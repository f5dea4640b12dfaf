"""Property tests of the path kernels that share ``sampler._crossing``.

Each generated switch row runs alone and tiled to ``_LOOP_MIN_PATHS`` rows,
so the crossing rule sees both vertex layouts of ``vertices_batch``: one
path per contiguous column, and one vertex of every path per contiguous row.
The batch kernels are held to the scalar functionals of ``telegraph.path``,
which find each crossing by their own segment scan and interpolation.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from telegraph import reflection, sampler
from telegraph.params import MotionParams, VelocitySign
from telegraph.path import TelegraphPath, first_passage, first_return
from telegraph.reflection import CrossingPair

PROPERTIES = settings(derandomize=True, deadline=None, max_examples=100)
TOL = 1e-12


@st.composite
def paths(draw):
    """(v0, t, c, sorted switch row) with at most 12 switches."""
    t = draw(st.floats(0.25, 4.0))
    c = draw(st.floats(0.25, 4.0))
    units = draw(st.lists(st.floats(0.001, 0.999), max_size=12, unique=True))
    row = sorted({u * t for u in units})
    v0 = draw(st.sampled_from([VelocitySign.PLUS, VelocitySign.MINUS]))
    return v0, t, c, row


def _rows(row):
    """The row alone and tiled to a batch of the other vertex layout."""
    one = np.array([row], dtype=float)
    return one, np.repeat(one, sampler._LOOP_MIN_PATHS, axis=0)


def _close(batch, scalar):
    """A batch time (NaN for none) against a scalar one (None for none)."""
    return np.isnan(batch) if scalar is None else abs(batch - scalar) <= TOL


def _same(results, tiled):
    """Every tiled row repeats the single row's results to the bit."""
    return all(np.array_equal(np.broadcast_to(one, many.shape), many, equal_nan=True)
               for one, many in zip(results, tiled))


@PROPERTIES
@given(paths(), st.floats(-0.5, 1.2))
def test_batch_passage_and_return_equal_the_scalar_functionals(path, level):
    v0, t, c, row = path
    beta = level * c * t
    scalar = TelegraphPath(v0, t, row)
    params = MotionParams(c, 1.0)
    one, many = _rows(row)
    fpt = sampler.first_passage_batch(v0, one, t, c, beta)
    back = sampler.first_return_batch(v0, one, t, c)
    assert _close(fpt[0], first_passage(scalar, beta, params))
    assert _close(back[0], first_return(scalar, params))
    assert _same((fpt, back), (sampler.first_passage_batch(v0, many, t, c, beta),
                               sampler.first_return_batch(v0, many, t, c)))


@PROPERTIES
@given(paths(), st.floats(0.01, 0.99))
def test_cut_points_are_passage_and_return_times_of_path_and_image(path, level):
    _, t, c, row = path
    params = MotionParams(c, 1.0)
    one, many = _rows(row)
    # a level below the maximum of the upward-start path, which it crosses
    beta = level * sampler.running_max_batch(VelocitySign.PLUS, one, t, c)[0]
    cuts = reflection.crossings_batch(one, t, c, beta)
    assert _same(cuts, reflection.crossings_batch(many, t, c, beta))
    t1, t2, h, l, ok = (a[0] for a in cuts)
    if not ok:
        return
    image = reflection.reflect_batch(one, [t1], [t2])
    back = reflection.zero_return_crossings_batch(image, t, c, beta)
    assert _same(back, reflection.zero_return_crossings_batch(
        np.repeat(image, sampler._LOOP_MIN_PATHS, axis=0), t, c, beta))
    u1, u2, j1, j2, ok_back = (a[0] for a in back)
    if not ok_back:
        return
    forward = TelegraphPath(VelocitySign.PLUS, t, row)
    reflected = TelegraphPath(VelocitySign.MINUS, t, image[0].tolist())
    assert abs(t1 - first_passage(forward, beta, params)) <= TOL
    assert abs(u1 - first_return(reflected, params)) <= TOL
    assert abs(u2 - first_passage(reflected, beta, params)) <= TOL
    assert abs(t2 - u2) <= TOL and abs(t2 - t1 - u1) <= TOL
    assert CrossingPair(int(h), int(l)).image() == CrossingPair(int(j1), int(j2))
    undone = reflection.reflect_inverse_batch(image, [u1], [u2])
    assert np.abs(undone - one).max(initial=0.0) <= TOL


@PROPERTIES
@given(st.integers(1, 10 ** 4), st.integers(0, 10 ** 4))
def test_crossing_pair_image_is_an_involution(h, gap):
    pair = CrossingPair(h, h + gap)
    assert pair.image().image() == pair
