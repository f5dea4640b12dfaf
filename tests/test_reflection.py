import numpy as np
import pytest

from telegraph import (
    CrossingPair,
    DegeneratePathError,
    MotionParams,
    ReflectionContext,
    ReflectionDomainError,
    TelegraphPath,
    VelocitySign,
    classify_crossings,
    in_P_minus,
    in_P_plus,
    negative_reflect,
    negative_reflect_inverse,
)
from telegraph import reflection, sampler
from telegraph.path import first_passage, first_return

PARAMS = MotionParams(c=1.0, lam=1.0)
PLUS = VelocitySign.PLUS
MINUS = VelocitySign.MINUS


def make_ctx(beta=1.0, x=1.0, horizon=4.0, c=1.0):
    return ReflectionContext(beta=beta, x=x, params=MotionParams(c, 1.0), horizon=horizon)


class TestContextValidation:
    def test_accepts_interior_values(self):
        make_ctx(beta=0.5, x=0.2, horizon=2.0)

    @pytest.mark.parametrize(
        "beta,x",
        [
            (-0.1, 0.0),  # negative level
            (0.0, -0.5),  # level at the start: the up-crossing is a degenerate cut
            (4.0, 0.0),  # level at the light cone edge
            (1.0, 1.5),  # endpoint above the level
            (1.0, -2.0),  # endpoint at/below the reflected cone edge
        ],
    )
    def test_rejects_out_of_range(self, beta, x):
        with pytest.raises(ValueError):
            make_ctx(beta=beta, x=x, horizon=4.0)


class TestCrossingPair:
    def test_image_formula(self):
        assert CrossingPair(1, 2).image() == CrossingPair(2, 2)
        assert CrossingPair(2, 5).image() == CrossingPair(4, 5)

    def test_image_is_an_involution(self):
        for h in range(1, 5):
            for l in range(h, 7):
                pair = CrossingPair(h, l)
                assert pair.image().image() == pair

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            CrossingPair(0, 2)
        with pytest.raises(ValueError):
            CrossingPair(3, 2)


class TestWorkedExample:
    """Upward start on [0, 4] with switches at 1.5 and 3, level beta = 1."""

    PATH = TelegraphPath(PLUS, 4.0, (1.5, 3.0))
    CTX = make_ctx(beta=1.0, x=1.0, horizon=4.0)

    def test_membership(self):
        assert in_P_plus(self.PATH, self.CTX)
        assert not in_P_minus(self.PATH, self.CTX)

    def test_crossing_pair_and_image(self):
        pair = classify_crossings(self.PATH, self.CTX)
        assert (pair.h, pair.l) == (1, 2)
        assert (pair.image().h, pair.image().l) == (2, 2)

    def test_forward_image(self):
        image = negative_reflect(self.PATH, self.CTX)
        assert image.v0 is MINUS
        assert image.switch_times == pytest.approx((0.5, 3.0))
        assert in_P_minus(image, self.CTX)

    def test_round_trip(self):
        image = negative_reflect(self.PATH, self.CTX)
        back = negative_reflect_inverse(image, self.CTX)
        assert back.v0 is PLUS
        assert back.switch_times == pytest.approx(self.PATH.switch_times, abs=1e-12)

    def test_affine_vector_form_agrees_with_surgery(self):
        # positions at the switch times and the horizon
        v_plus = np.array([1.5, 0.0, 1.0])
        pair = classify_crossings(self.PATH, self.CTX)
        image = reflection.affine_map_vector_form(v_plus, pair, beta=1.0)
        assert image == pytest.approx([-0.5, 2.0, 1.0])


class TestSingleSwitch:
    def test_one_switch_path_reflects(self):
        # one switch, crossing pair uses the final displacement: l = n + 1
        ctx = make_ctx(beta=0.3, x=0.2, horizon=1.0)
        path = TelegraphPath(PLUS, 1.0, (0.6,))
        pair = classify_crossings(path, ctx)
        assert (pair.h, pair.l) == (1, 2)
        image = negative_reflect(path, ctx)
        assert image.v0 is MINUS
        assert in_P_minus(image, ctx)
        back = negative_reflect_inverse(image, ctx)
        assert back.switch_times == pytest.approx(path.switch_times, abs=1e-12)


class TestDomainErrors:
    def test_path_below_level_is_rejected(self):
        ctx = make_ctx(beta=1.0, x=0.5, horizon=4.0)
        low = TelegraphPath(PLUS, 4.0, (0.5, 3.75))
        assert not in_P_plus(low, ctx)
        with pytest.raises(ReflectionDomainError):
            negative_reflect(low, ctx)

    def test_wrong_endpoint_is_rejected(self):
        ctx = make_ctx(beta=1.0, x=0.5, horizon=4.0)
        path = TelegraphPath(PLUS, 4.0, (1.5, 3.0))  # ends at 1.0, ctx wants 0.5
        with pytest.raises(ReflectionDomainError):
            negative_reflect(path, ctx)

    def test_vertex_touching_level_is_degenerate(self):
        # maximum exactly equals the level: crossing times are not well defined
        ctx = make_ctx(beta=1.0, x=0.0, horizon=4.0)
        path = TelegraphPath(PLUS, 4.0, (1.0, 2.0, 3.5, 3.5 + 1e-13))
        with pytest.raises((DegeneratePathError, ReflectionDomainError, ValueError)):
            negative_reflect(path, ctx)


class TestOneDomainRule:
    """Boundary paths of the transform's domain rule, checked on the batch
    kernels and on the scalar functions that run them on one row."""

    def test_endpoint_on_the_level_is_ok(self):
        # the worked example ends exactly at beta = x = 1
        t1, t2, h, l, ok = reflection.crossings_batch(np.array([[1.5, 3.0]]), 4.0, 1.0, 1.0)
        assert ok[0]
        assert (t1[0], t2[0], h[0], l[0]) == (1.0, 2.0, 1, 2)

    def test_vertex_touching_the_level_after_the_down_crossing_is_ok(self):
        # positions 0, 0.6, 0.2, 0.3, -0.2, 0.2: the vertex at s = 1.1 sits on
        # beta = 0.3 after the down-crossing at s = 0.9
        switches = np.array([[0.6, 1.0, 1.1, 1.6]])
        t1, t2, _, _, ok = reflection.crossings_batch(switches, 2.0, 1.0, 0.3)
        assert ok[0]
        image = reflection.reflect_batch(switches, t1, t2)[0]
        assert image == pytest.approx([0.3, 1.0, 1.1, 1.6], abs=1e-12)
        ctx = make_ctx(beta=0.3, x=0.2, horizon=2.0)
        path = TelegraphPath(PLUS, 2.0, tuple(switches[0]))
        assert negative_reflect(path, ctx).switch_times == pytest.approx(image, abs=1e-12)

    def test_zero_return_on_a_switch_is_degenerate(self):
        # positions 0, -0.25, 0, -0.1, 0.3: the first return to zero is the
        # vertex at s = 0.5
        switches = (0.25, 0.5, 0.6)
        *_, ok = reflection.zero_return_crossings_batch(np.array([switches]), 1.0, 1.0, 0.2)
        assert not ok[0]
        ctx = make_ctx(beta=0.2, x=0.1, horizon=1.0)
        with pytest.raises(DegeneratePathError):
            negative_reflect_inverse(TelegraphPath(MINUS, 1.0, switches), ctx)

    def test_endpoint_on_the_level_has_no_preimage(self):
        # positions 0, -0.25, 0.5: the path returns to zero but only reaches
        # beta = 0.5 at the horizon, so it never crosses it
        ctx = make_ctx(beta=0.5, x=0.5, horizon=1.0)
        path = TelegraphPath(MINUS, 1.0, (0.25,))
        *_, j2, ok = reflection.zero_return_crossings_batch(np.array([[0.25]]), 1.0, 1.0, 0.5)
        assert not ok[0] and j2[0] == 1
        with pytest.raises(ReflectionDomainError, match="no preimage"):
            negative_reflect_inverse(path, ctx)


class TestBatchAgainstScalar:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_batch_matches_scalar_pipeline(self, n):
        rng = np.random.default_rng(7)
        t, c, beta = 1.0, 1.0, 0.25
        switches = np.sort(rng.uniform(0.0, t, size=(400, n)), axis=1)
        t1, t2, h, l, ok = reflection.crossings_batch(switches, t, c, beta)
        assert ok.any()
        images = reflection.reflect_batch(switches[ok], t1[ok], t2[ok])
        params = MotionParams(c, 1.0)
        for row_in, row_out, a, b, hh, ll in zip(
            switches[ok], images, t1[ok], t2[ok], h[ok], l[ok]
        ):
            path = TelegraphPath(PLUS, t, tuple(row_in))
            image = TelegraphPath(MINUS, t, tuple(row_out))
            # the scalar path functionals are an independent reference: the
            # image first reaches beta where the input crosses back down
            assert a == pytest.approx(first_passage(path, beta, params), abs=1e-12)
            assert b == pytest.approx(first_passage(image, beta, params), abs=1e-12)
            x = sampler.position_batch(PLUS, row_in[None, :], t, c)[0]
            ctx = ReflectionContext(beta=beta, x=float(x), params=params, horizon=t)
            pair = classify_crossings(path, ctx)
            assert (pair.h, pair.l) == (hh, ll)
            scalar_image = negative_reflect(path, ctx)
            assert row_out == pytest.approx(scalar_image.switch_times, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_zero_return_cut_points_match_scalar(self, n):
        rng = np.random.default_rng(17)
        t, c, beta = 1.0, 1.0, 0.25
        switches = np.sort(rng.uniform(0.0, t, size=(400, n)), axis=1)
        t1, t2, _, _, ok = reflection.crossings_batch(switches, t, c, beta)
        images = reflection.reflect_batch(switches[ok], t1[ok], t2[ok])
        u1, u2, _, _, ok_inv = reflection.zero_return_crossings_batch(images, t, c, beta)
        assert ok_inv.all()
        params = MotionParams(c, 1.0)
        for row, a, b in zip(images, u1, u2):
            path = TelegraphPath(MINUS, t, tuple(row))
            reference = (first_return(path, params), first_passage(path, beta, params))
            assert (a, b) == pytest.approx(reference, abs=1e-12)

    def test_batch_round_trip_and_injectivity(self):
        rng = np.random.default_rng(11)
        t, c, beta = 1.0, 1.0, 0.2
        switches = np.sort(rng.uniform(0.0, t, size=(2000, 4)), axis=1)
        t1, t2, h, l, ok = reflection.crossings_batch(switches, t, c, beta)
        sub = switches[ok]
        images = reflection.reflect_batch(sub, t1[ok], t2[ok])
        u1, u2, j1, j2, ok_inv = reflection.zero_return_crossings_batch(images, t, c, beta)
        assert ok_inv.all()
        back = reflection.reflect_inverse_batch(images, u1, u2)
        assert np.max(np.abs(back - sub)) <= 1e-12
        unique_rows = np.unique(np.round(images, 12), axis=0)
        assert unique_rows.shape[0] == images.shape[0]

    def test_batch_images_change_start_sign(self):
        rng = np.random.default_rng(3)
        t, c, beta = 1.0, 1.0, 0.3
        switches = np.sort(rng.uniform(0.0, t, size=(500, 3)), axis=1)
        t1, t2, h, l, ok = reflection.crossings_batch(switches, t, c, beta)
        images = reflection.reflect_batch(switches[ok], t1[ok], t2[ok])
        x_plus = sampler.position_batch(PLUS, switches[ok], t, c)
        x_minus = sampler.position_batch(MINUS, images, t, c)
        assert x_minus == pytest.approx(2.0 * beta - x_plus, abs=1e-12)
