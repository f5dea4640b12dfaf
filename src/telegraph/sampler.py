"""Random generation of telegraph paths and Monte Carlo estimation.

Paths are sampled either unconditionally (Poisson switch count) or
conditionally on the number of switches, in which case the switch times
are uniform order statistics on (0, t).  Batch helpers evaluate path
functionals (position, running maximum, first-passage and return times,
and the exact singular events M = 0 and M = T(t)) over many paths at once
with numpy; ``sample_conditional`` returns one :class:`TelegraphPath`.

Every batch kernel, these and the crossing kernels of ``reflection``, is a
reduction of vertex arrays run by one driver, ``reduce_vertices``, which
both draws switch rows and reduces them.  Its input is a source of switch
rows, :class:`SwitchRows`: (count k, rows m_k) groups in increasing k and a
``draw(k, rows)`` that returns the next rows of count k.  A Monte Carlo
chunk's ``draw`` calls ``sample_switches_batch`` on the chunk's generator;
an (m, n) array is the one-group source whose ``draw`` slices it, so every
batch kernel takes either as its ``switches``.

The driver cuts the groups into blocks of at most ``_BLOCK_VERTICES``
vertices per array (2^16, at least one path), draws a block's rows only when
it reaches that block, builds the block's vertex-major (n+2, rows) times and
positions with ``vertices_batch``, and writes the block's per-path results
into arrays with one entry per row, in group order.  A numpy generator that
draws (a, k) and then (b, k) uniforms yields the bits of one (a + b, k) draw,
so every stream is the same as a whole-chunk draw, but no chunk's switch
array exists whole and a kernel's temporaries stay in a per-core L2 cache:
one 16384-path histogram chunk at n = 10^4 peaks at 1.7 MiB, not 1.3 GB.

A group too large for one block is cut into blocks of its own.  Consecutive
smaller groups share one block, each row padded with switches at t up to the
block's largest count.  A padded switch adds a segment of length t - t = 0,
so the next position is the previous one plus (+-c) * 0.0, which is the same
float; every later vertex repeats the path's true endpoint at time t.  So the
position, maximum, first level crossing and first return of every row are the
same floats as without padding, and, since a path's arithmetic does not
depend on the block it falls in, the results are the same to the bit for
every block size.

Randomness follows a stream contract: a 64-bit seed plus a stream id
select a reproducible, statistically independent generator (counter-style
keys, after Salmon et al. 2011).  The Monte Carlo estimators cut ``reps``
into chunks of ``CHUNK`` rows, the last one holding the remainder, and draw
chunk i from stream i; threads only schedule chunks and results are reduced
in chunk order, so an estimate depends only on (seed, reps).  A z-score
uses the binomial error of the analytic reference.
"""

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .params import MotionParams, VelocitySign
from .path import TelegraphPath

__all__ = [
    "CHUNK",
    "RngStream",
    "McReport",
    "HistogramBin",
    "sample_conditional",
    "sample_switches_batch",
    "SwitchRows",
    "vertices_batch",
    "reduce_vertices",
    "position_batch",
    "running_max_batch",
    "first_passage_batch",
    "first_return_batch",
    "max_is_zero_batch",
    "max_equals_position_batch",
    "mc_probability",
    "mc_density_histogram",
]


@dataclass(frozen=True)
class RngStream:
    """Seed plus stream id identifying a reproducible generator.

    Distinct (seed, stream_id) pairs give statistically independent
    sequences; identical pairs reproduce identical draws.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)


@dataclass(frozen=True)
class McReport:
    """Point estimate with binomial standard error and optional reference."""

    estimate: float
    std_error: float
    replications: int
    analytic: Optional[float] = None
    z_score: Optional[float] = None

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.std_error < 0.0:
            raise ValueError("std_error must be >= 0")


@dataclass(frozen=True)
class HistogramBin:
    """One histogram bin of a Monte Carlo density estimate."""

    lo: float
    hi: float
    report: McReport


def _check_horizon(t: float) -> None:
    if not (np.isfinite(t) and t > 0.0):
        raise ValueError(f"time t must be finite and > 0, got {t}")


def sample_conditional(
    n: int, t: float, v0: VelocitySign, rng: np.random.Generator
) -> TelegraphPath:
    """Path with exactly n switches, i.i.d. uniform on (0, t), sorted."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_horizon(t)
    times = np.sort(rng.uniform(0.0, t, size=n))
    return TelegraphPath(v0, t, tuple(times.tolist()))


# ---------------------------------------------------------------------------
# Vectorized batch functionals


def sample_switches_batch(
    n: int, t: float, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """(reps, n) array of sorted switch times conditional on n switches."""
    switches = rng.uniform(0.0, t, size=(reps, n))
    switches.sort(axis=1)
    return switches


#: Fewest paths for which ``vertices_batch`` stores vertex k of every path
#: contiguously and sums with a loop of row adds (about 1 us each).  Smaller
#: batches, such as Poisson groups at large lambda*t, store each path
#: contiguously for one cumsum: at n = 1000 a running max of 200 paths takes
#: 1.9 ms that way and 2.5 ms by the loop, of 300 paths 2.7 and 1.9 ms.  The
#: threshold still sits at the crossover for the blocks of ``reduce_vertices``
#: (2^16 // (n+2) paths), medians of 41 in two runs on 2 cores: at n = 200
#: (324 paths) the block's vertices take 0.52-0.53 ms by the loop and
#: 0.56-0.60 ms by cumsum, its crossings 1.23-1.25 and 1.55 ms; at n = 8 the
#: loop is 2-7 times faster, at n = 1000 (65 paths) cumsum 2-3 times.
_LOOP_MIN_PATHS = 300

#: Most vertices per (n+2, rows) array that ``reduce_vertices`` builds at once
#: (a block holds at least one path).  2^16 float64 vertices are 512 KiB, so a
#: block's times, positions and masks stay in a 2 MiB per-core L2 cache.
#: Medians of 7 on 2 cores, at 2^14 / 2^15 / 2^16 / 2^17 / 2^18 vertices and
#: as one block: ``crossings_batch`` of 250k paths at n = 8 takes 67 / 57 / 53
#: / 54 / 58 and 82 ms, a running max of 16384 paths at n = 64 11.2 / 7.1 /
#: 6.1 / 5.9 / 6.4 and 9.6 ms, and a 16384-path max histogram at n = 1000
#: about 300 ms from 2^15 up against 494 ms.
_BLOCK_VERTICES = 1 << 16


def vertices_batch(
    v0: VelocitySign, switches: np.ndarray, t: float, c: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Vertex times and positions of m equal-count paths, both of shape (n+2, m)
    (in Fortran order below ``_LOOP_MIN_PATHS`` paths): column i equals
    ``path._vertices`` of switch row i, bit for bit."""
    sw = np.atleast_2d(np.asarray(switches, dtype=float))
    m, n = sw.shape
    wide = m >= _LOOP_MIN_PATHS
    times, pos = np.empty((2, n + 2, m)) if wide else np.empty((2, m, n + 2)).transpose(0, 2, 1)
    times[0] = 0.0
    times[1 : n + 1] = sw.T
    times[n + 1] = t
    pos[0] = 0.0
    np.subtract(times[1:], times[:-1], out=pos[1:])
    pos[1:] *= (v0.value_sign * c * (-1.0) ** np.arange(n + 1))[:, None]
    if wide:
        for k in range(2, n + 2):
            pos[k] += pos[k - 1]
    else:
        np.cumsum(pos[1:], axis=0, out=pos[1:])
    return times, pos


class SwitchRows(NamedTuple):
    """A source of switch rows for ``reduce_vertices``.

    ``groups`` lists (count k, rows m_k) pairs in increasing k, and
    ``draw(k, rows)`` returns the next ``rows`` sorted switch rows of count k
    as a (rows, k) array.  The driver draws each group's rows in order, a
    block at a time.
    """

    groups: Sequence[Tuple[int, int]]
    draw: Callable[[int, int], np.ndarray]


def _array_rows(switches) -> SwitchRows:
    """The one-group source of an (m, n) array: ``draw`` slices it in order."""
    sw = np.atleast_2d(np.asarray(switches, dtype=float))
    m, n = sw.shape
    taken = [0]

    def draw(k: int, rows: int) -> np.ndarray:
        start = taken[0]
        taken[0] += rows
        return sw[start : start + rows]

    return SwitchRows(((n, m),), draw)


def _blocks(groups: Sequence[Tuple[int, int]]):
    """Blocks of (count, rows) parts with at most ``_BLOCK_VERTICES`` vertices
    per array, or one path.  A group that does not fit one block is cut into
    blocks of its own; consecutive smaller groups share a block, sized by its
    largest count.  An empty source gives one empty block."""
    shared, rows = [], 0
    for k, m in groups:
        step = max(1, _BLOCK_VERTICES // (k + 2))
        if shared and (k + 2) * (rows + m) > _BLOCK_VERTICES:
            yield shared
            shared, rows = [], 0
        if m > step:
            for start in range(0, m, step):
                yield [(k, min(step, m - start))]
        else:
            shared.append((k, m))
            rows += m
    if shared:
        yield shared


def _switch_blocks(source: SwitchRows, t: float):
    """Switches of each block of a source, drawn when reached: the rows of a
    shared block are padded with switches at t to its largest count."""
    for block in _blocks(source.groups):
        if len(block) == 1:
            yield source.draw(*block[0])
            continue
        sw = np.full((sum(m for _, m in block), block[-1][0]), float(t))
        row = 0
        for k, m in block:
            sw[row : row + m, :k] = source.draw(k, m)
            row += m
        yield sw


def reduce_vertices(
    reduce: Callable[[np.ndarray, np.ndarray], tuple],
    v0: VelocitySign,
    switches,
    t: float,
    c: float,
) -> tuple:
    """Per-path results of a vertex kernel over the rows of a source.

    ``switches`` is a :class:`SwitchRows` source or an (m, n) array of
    equal-count rows.  ``reduce(times, pos)`` takes the ``vertices_batch``
    arrays of a block of paths and returns a tuple of arrays with one entry
    per path of the block.  The results of every block are written, in group
    order, into arrays with one entry per row, allocated after the first
    block (an empty batch runs one empty block, so its outputs still take the
    kernel's dtypes).  Neither the block a path falls in nor the padding of
    a shared block changes its arithmetic (see the module docstring), so the
    results are the same to the bit whatever the block size.
    """
    source = switches if isinstance(switches, SwitchRows) else _array_rows(switches)
    m = sum(rows for _, rows in source.groups)
    outs, start = None, 0
    for sw in _switch_blocks(source, t):
        results = reduce(*vertices_batch(v0, sw, t, c))
        if outs is None:
            outs = tuple(np.empty(m, dtype=r.dtype) for r in results)
        stop = start + len(sw)
        for out, r in zip(outs, results):
            out[start:stop] = r
        start = stop
    return outs


def position_batch(
    v0: VelocitySign, switches: np.ndarray, t: float, c: float
) -> np.ndarray:
    """Positions at the horizon."""
    return reduce_vertices(lambda times, pos: (pos[-1],), v0, switches, t, c)[0]


def running_max_batch(
    v0: VelocitySign, switches: np.ndarray, t: float, c: float
) -> np.ndarray:
    """Running maxima; the maximum of a piecewise-linear path is a vertex."""
    return reduce_vertices(lambda times, pos: (pos.max(axis=0),), v0, switches, t, c)[0]


def first_passage_batch(
    v0: VelocitySign, switches: np.ndarray, t: float, c: float, beta: float
) -> np.ndarray:
    """First times the paths reach level beta: 0 for a level at or below
    the start, NaN where never reached."""

    def reduce(times, pos):
        hit = pos >= beta
        reached = hit.any(axis=0)
        idx = np.argmax(hit, axis=0)
        rows = np.arange(pos.shape[1])
        idx = np.maximum(idx, 1)  # idx 0: unreached, or already at the level at s = 0
        # the crossing segment rises from below beta, so its slope is +c
        out = times[idx - 1, rows] + (beta - pos[idx - 1, rows]) / c
        out[hit[0]] = 0.0
        out[~reached] = np.nan
        return (out,)

    return reduce_vertices(reduce, v0, switches, t, c)[0]


def first_return_batch(
    v0: VelocitySign, switches: np.ndarray, t: float, c: float
) -> np.ndarray:
    """First strictly positive zero of each path; NaN where none exists."""
    sgn = float(v0.value_sign)

    def reduce(times, pos):
        # a Plus path returns when a vertex position drops to <= 0, and
        # symmetrically for Minus; the first vertex is excluded
        back = sgn * pos[1:] <= 0.0
        returned = back.any(axis=0)
        idx = np.argmax(back, axis=0) + 1
        rows = np.arange(pos.shape[1])
        out = times[idx - 1, rows] + sgn * pos[idx - 1, rows] / c
        out[~returned] = np.nan
        return (out,)

    return reduce_vertices(reduce, v0, switches, t, c)[0]


def max_is_zero_batch(
    v0: VelocitySign, switches: np.ndarray, t: float, c: float
) -> np.ndarray:
    """Exact indicator of the event M(t) = 0 (the path never goes positive)."""
    return reduce_vertices(lambda times, pos: (pos.max(axis=0) <= 0.0,), v0, switches, t, c)[0]


def max_equals_position_batch(
    v0: VelocitySign, switches: np.ndarray, t: float, c: float
) -> np.ndarray:
    """Exact indicator of M(t) = T(t) (the endpoint attains the maximum)."""
    return reduce_vertices(lambda times, pos: (pos.max(axis=0) <= pos[-1],),
                           v0, switches, t, c)[0]


# ---------------------------------------------------------------------------
# Monte Carlo estimators

#: Rows per Monte Carlo chunk; chunk i draws from ``RngStream(seed, i)``.
CHUNK = 1 << 14


def _run_chunks(work, reps: int, seed: int, threads: int) -> list:
    """Results of ``work(count, rng)`` on each chunk of ``reps`` rows, in chunk order.

    Chunk i holds rows ``i*CHUNK`` up to ``min((i+1)*CHUNK, reps)`` and draws
    from stream i of ``seed``.  Threads only schedule chunks, so the results
    depend on (seed, reps) alone.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    sizes = [min(CHUNK, reps - start) for start in range(0, reps, CHUNK)]

    def run(i: int):
        return work(sizes[i], RngStream(seed, i).generator())

    if threads <= 1:
        return [run(i) for i in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=min(threads, len(sizes))) as pool:
        return list(pool.map(run, range(len(sizes))))


def _check_counts(n: Optional[int], params: MotionParams, t: float) -> None:
    """Refuse switch counts that no block of ``_BLOCK_VERTICES`` can hold.

    A conditional count needs n + 2 <= ``_BLOCK_VERTICES``.  An unconditional
    one needs lambda*t <= ``_BLOCK_VERTICES`` / 2: a Poisson count then passes
    2^16 - 2 only beyond 180 standard deviations.
    """
    if n is not None and n + 2 > _BLOCK_VERTICES:
        raise ValueError(f"switch count n = {n} is above the Monte Carlo limit "
                         f"n <= {_BLOCK_VERTICES - 2}")
    if n is None and params.lam * t > _BLOCK_VERTICES / 2:
        raise ValueError(f"lambda*t = {params.lam * t:g} is above the Monte Carlo limit "
                         f"lambda*t <= {_BLOCK_VERTICES // 2}")


def _chunk_rows(
    n: Optional[int], params: MotionParams, t: float, count: int, rng: np.random.Generator
):
    """Each row's switch count (None for n switches in every row) and the
    source of one chunk's switch rows, drawn from ``rng``.

    With ``n=None`` each row draws a Poisson(lambda*t) count, and the rows
    are grouped by count in increasing order.
    """
    draw = lambda k, m: sample_switches_batch(k, t, m, rng)
    if n is not None:
        return None, SwitchRows(((n, count),), draw)
    counts = rng.poisson(params.lam * t, size=count)
    ks, sizes = np.unique(counts, return_counts=True)
    return counts, SwitchRows(tuple(zip(ks.tolist(), sizes.tolist())), draw)


def mc_probability(
    event: Callable[[TelegraphPath, MotionParams], bool],
    params: MotionParams,
    t: float,
    reps: int,
    v0=VelocitySign.PLUS,
    n: Optional[int] = None,
    seed: int = 0,
    threads: int = 1,
    analytic: Optional[float] = None,
) -> McReport:
    """Binomial estimate of P{event} over sampled paths.

    ``n=None`` samples unconditionally (Poisson switch count), otherwise
    conditionally on n switches; ``v0="uniform"`` draws a fair coin per
    path.  Paths are drawn in chunks of ``CHUNK`` rows, chunk i from stream
    i of ``seed``; the result depends only on (seed, reps), not on
    ``threads`` or scheduling.  The switch counts must fit one block of
    ``_BLOCK_VERTICES`` vertices: n <= 2^16 - 2, or lambda*t <= 2^15 without
    n; outside that domain a ``ValueError`` is raised before any draw.
    """
    _check_horizon(t)
    _check_counts(n, params, t)
    uniform = v0 == "uniform" or v0 is None
    if not (uniform or isinstance(v0, VelocitySign)):
        v0 = VelocitySign.from_str(v0)

    def work(count: int, rng: np.random.Generator) -> int:
        if uniform:
            signs = np.where(rng.random(count) < 0.5, VelocitySign.PLUS, VelocitySign.MINUS)
        else:
            signs = np.full(count, v0, dtype=object)
        counts, rows = _chunk_rows(n, params, t, count, rng)
        if counts is not None:
            signs = signs[np.argsort(counts, kind="stable")]  # into group order
        hits = i = 0
        for block in _blocks(rows.groups):
            for k, m in block:
                for row in rows.draw(k, m).tolist():
                    hits += bool(event(TelegraphPath(signs[i], t, row), params))
                    i += 1
        return hits

    total = sum(_run_chunks(work, reps, seed, threads))
    p_hat = total / reps
    se = float(np.sqrt(p_hat * (1.0 - p_hat) / reps))
    se_ref = 0.0 if analytic is None else np.sqrt(max(analytic * (1.0 - analytic), 0.0) / reps)
    z = float((p_hat - analytic) / se_ref) if se_ref > 0.0 else None
    return McReport(p_hat, se, reps, analytic, z)


@functools.lru_cache(maxsize=256)
def _legendre(nodes: int) -> tuple:
    from numpy.polynomial.legendre import leggauss  # kept off the package import
    return leggauss(nodes)


def _gauss(f: Callable[[np.ndarray], np.ndarray], pieces: Sequence, nodes: int):
    """Gauss-Legendre integral over consecutive pieces, exact to degree 2*nodes - 1.

    The piece ends may be arrays of one shape, for a family of intervals: f is
    called once, on the nodes of every piece along a new last axis, and the
    integral has the shape of the ends.
    """
    x, w = _legendre(nodes)
    ends = np.asarray(pieces, dtype=float)[..., None]
    half, mid = 0.5 * (ends[1:] - ends[:-1]), 0.5 * (ends[1:] + ends[:-1])
    return ((half * f(mid + half * x)) @ w).sum(axis=0)


#: Most Gauss-Legendre nodes per bin of a histogram's analytic reference;
#: 64 nodes are exact to degree 127, so up to switch count n = 124.  An
#: unconditional reference takes all 64: against 256 sub-pieces of 64 nodes,
#: the bin averages of the unconditional first-passage (beta = 0.3, either
#: start) and first-return densities at c = t = 1 with 1, 10 and 100 bins are
#: within 1e-13 relative wherever lambda * width <= 100, and 4.7e-5 for the
#: return density on one bin of (0, 1) at lambda = 1000.
_MAX_BIN_NODES = 64


#: batch functionals by name, with whether each takes the level beta
_FUNCTIONALS = {
    "position": (position_batch, False),
    "max": (running_max_batch, False),
    "fpt": (first_passage_batch, True),
    "return": (first_return_batch, False),
}


def mc_density_histogram(
    functional: str,
    v0: VelocitySign,
    n: Optional[int],
    params: MotionParams,
    t: float,
    bins: int,
    value_range: Tuple[float, float],
    reps: int,
    seed: int = 0,
    threads: int = 1,
    beta: Optional[float] = None,
    analytic: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> List[HistogramBin]:
    """Histogram density estimate of a path functional with bin-wise errors.

    ``functional`` is one of ``position``, ``max``, ``fpt`` (needs a level
    ``beta > 0``), ``return``; undefined values (NaN) fall in no bin.
    Paths are drawn in chunks as in :func:`mc_probability`, on the same
    domain of switch counts, so the histogram depends only on (seed, reps).
    Per bin, the density estimate is frequency/width with standard error
    sqrt(p(1-p)/reps)/width, where an empty bin falls back to p = 1/reps.
    ``analytic``, where given, is a density taking an array of points; it is
    called on the nodes of a Gauss-Legendre rule in every bin, a block of at
    most ``_BLOCK_VERTICES`` points at a time, and each bin carries its bin
    average ref and a z-score against it, under the error the reference predicts
    (p = ref*width in the formula above), not the bin's own.  The rule has
    n // 2 + 2 nodes, at most ``_MAX_BIN_NODES``: a conditional density is a
    polynomial of degree at most n - 1 on each piece of its support, so a
    bin inside one piece gets its exact average.  A bin that straddles a
    support edge or another breakpoint gets an approximate one, and so does
    an unconditional density, which takes ``_MAX_BIN_NODES`` nodes (its
    measured accuracy is beside that constant).  A bin whose reference holds
    every sample has no z-score.
    """
    _check_horizon(t)
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo, hi = value_range
    if not lo < hi:
        raise ValueError("empty value range")
    try:
        fn, takes_level = _FUNCTIONALS[functional]
    except KeyError:
        raise ValueError(f"unknown functional {functional!r}") from None
    if takes_level:
        if beta is None or not beta > 0.0:
            raise ValueError(f"functional {functional!r} needs a level beta > 0, got {beta}")
        fn = functools.partial(fn, beta=beta)
    _check_counts(n, params, t)

    def work(count: int, rng: np.random.Generator) -> np.ndarray:
        vals = fn(v0, _chunk_rows(n, params, t, count, rng)[1], t, params.c)
        counts, _ = np.histogram(vals[~np.isnan(vals)], bins=bins, range=(lo, hi))
        return counts

    counts = sum(_run_chunks(work, reps, seed, threads))

    edges = np.linspace(lo, hi, bins + 1)
    width = (hi - lo) / bins
    p_hat = counts / reps
    estimate = p_hat / width

    def std_error(p):
        return np.sqrt(np.maximum(p, 1.0 / reps) * np.maximum(1.0 - p, 0.0) / reps) / width

    se = std_error(p_hat)
    if analytic is not None:
        nodes = _MAX_BIN_NODES if n is None else min(n // 2 + 2, _MAX_BIN_NODES)
        step = max(1, _BLOCK_VERTICES // nodes)
        ref = np.empty(bins)
        for start in range(0, bins, step):
            block = slice(start, start + step)
            ref[block] = _gauss(analytic, (edges[:-1][block], edges[1:][block]), nodes)
        ref /= width
        se_ref = std_error(ref * width)
    out = []
    for i in range(bins):
        r = z = None
        if analytic is not None:
            r = float(ref[i])
            if se_ref[i] > 0.0:
                z = float((estimate[i] - r) / se_ref[i])
        report = McReport(float(estimate[i]), float(se[i]), reps, r, z)
        out.append(HistogramBin(float(edges[i]), float(edges[i + 1]), report))
    return out
