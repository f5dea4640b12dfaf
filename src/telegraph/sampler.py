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
task's ``draw`` fills them from its chunks' generators (see below); an (m, n)
array is the one-group source whose ``draw`` slices it, so every batch kernel
takes either as its ``switches``.  Every crossing time, of the first passage
and return here and of both reflection cuts, comes from one rule,
``_crossing``, on a mask of the segments that meet a level.

The driver cuts the groups into blocks of at most ``_BLOCK_VERTICES``
vertices per array (2^16, at least one path), draws a block's rows only when
it reaches that block, builds the block's vertex-major (n+2, rows) times and
positions with ``vertices_batch``, and writes the block's per-path results
into arrays with one entry per row, in group order.  A numpy generator that
draws (a, k) and then (b, k) uniforms yields the bits of one (a + b, k) draw,
so every stream is the same as a whole-chunk draw, but no chunk's switch
array exists whole and a kernel's temporaries stay in a per-core L2 cache:
one 16384-path histogram chunk at n = 10^4 peaks at 1.7 MiB, not 1.3 GB.

A switch draw is ``t * rng.random((rows, k))``, the bits of ``rng.uniform(0,
t)``, which computes 0 + t*u.  numpy's ``sort(axis=1)`` costs 30-50 ns per row
however short the row, so rows of 2 to 6 switches are sorted instead by a fixed
compare-exchange network (``np.minimum``/``np.maximum`` on the columns of a
transposed copy, Batcher 1968) and come back as that copy's Fortran-order view;
min and max are exact, so each row holds the floats ``sort`` would give.  On
the rows of one 2^16-vertex block (best of 5 repeats of 50, numpy 2.4.6 on 2
cores) the network takes 33 / 106 / 145 us at n = 2 / 4 / 6 against 720 / 518 /
359 us for ``sort``, and at n = 8 it loses, 243 against 228 us.

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
chunk i from stream i.  Threads get tasks, runs of consecutive chunks, and
the integer counts of the tasks are summed, so an estimate depends only on
(seed, reps).  A z-score uses the binomial error of the analytic reference.

A chunk draws, in order, the sign coins of ``v0="uniform"`` (in
``mc_probability``), then, without a switch count, the size of every count
group at once: one ``rng.multinomial`` over the Poisson(lambda*t) cells of
``_poisson_cells``, the pmf over the window outside which it underflows,
cached per lambda*t.  The rows' counts are i.i.d. Poisson(lambda*t), and the
draw takes 4 / 62 / 300 us per 16384-row chunk at lambda*t = 3 / 1000 / 2^15,
against 960 / 670 / 660 us for a ``rng.poisson`` count per row grouped by
``np.unique`` (best of 5, numpy 2.4.6 on 2 cores).  Then each group is drawn
whole.  A task, up to 2^16 rows, is one source: group k is every chunk's rows
of count k in chunk order, drawn into one array from the chunks' generators,
so the rows are the chunks' own at one draw, sort and kernel pass per block.
Two threads issuing numpy calls of 2000 / 8000 elements reach 0.47 / 0.63
times one thread's element rate (``np.minimum``, numpy 2.4.6, 2 cores), and
a chunk without a switch count splits into about 16 groups of that size, so
with one chunk per call 2 threads lost to 1.  ``CHUNK`` fixes each stream's
rows and a block fits a core's L2 cache, so neither changes.
``mc_probability`` calls a Python event per path, which holds the
interpreter lock, so it runs its chunks on the calling thread whatever
``threads`` says; it checks each drawn block once with numpy on the
conditions of ``path.validate`` and builds the block's paths without
re-validating them.
"""

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, repeat
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


#: Compare-exchange networks (i, j), i < j, that sort rows of 2 to 6 entries:
#: Batcher's odd-even merge sort (1968) for the next power of two, with the
#: comparators that touch a column beyond the row dropped.
_NETWORKS = {
    2: ((0, 1),),
    3: ((0, 1), (0, 2), (1, 2)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    5: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2), (0, 4), (2, 4), (1, 2), (3, 4)),
    6: ((0, 1), (2, 3), (4, 5), (0, 2), (1, 3), (1, 2), (0, 4), (1, 5), (2, 4), (3, 5),
        (1, 2), (3, 4)),
}


def sample_switches_batch(
    n: int, t: float, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """(reps, n) array of sorted switch times conditional on n switches, the
    bits of ``np.sort(rng.uniform(0, t, (reps, n)), axis=1)``.

    Rows of 2 to 6 switches are sorted by the network of ``_NETWORKS`` and
    come back as a Fortran-order view (see the module docstring); longer rows
    are sorted in place by ``sort(axis=1)``.
    """
    return _draw_rows([[rng, reps]], n, reps, t)


def _draw_rows(parts: list, n: int, rows: int, t: float) -> np.ndarray:
    """The next ``rows`` sorted switch rows of count n as ``sample_switches_batch``
    draws them, from the [generator, rows left] pairs of ``parts`` in order."""
    switches, row = np.empty((rows, n)), 0
    for part in parts:  # a spent or unreached part draws 0 rows
        take = min(part[1], rows - row)
        part[0].random(out=switches[row : row + take])
        part[1] -= take
        row += take
    switches *= t
    if n < 2:
        return switches
    if n not in _NETWORKS:
        switches.sort(axis=1)
        return switches
    cols = switches.T.copy()
    low = np.empty(rows)
    for i, j in _NETWORKS[n]:
        np.minimum(cols[i], cols[j], out=low)
        np.maximum(cols[i], cols[j], out=cols[j])
        cols[i] = low
    return cols.T


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


def _first_rows(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Index of the first true row of each column of a (rows, m) vertex-major
    mask, 0 where the column has none (as ``np.argmax(mask, axis=0)``), and
    whether it has one.

    The index is read off the largest weight r - k over the true rows k of a
    column, a reduction across rows, which is several times faster on a
    vertex-major mask than ``argmax`` along its strided axis.
    """
    r = mask.shape[0]
    weights = np.arange(r, 0, -1, dtype=np.min_scalar_type(r))
    top = (mask * weights[:, None]).max(axis=0).astype(np.intp)
    found = top > 0
    return np.where(found, r - top, 0), found


def _vertex_offsets(a: np.ndarray, k: np.ndarray) -> Tuple[np.ndarray, int]:
    """Flat offsets into ``a.ravel("K")`` of vertex k[i] of path i of a
    contiguous (vertices, m) array of either layout, and the step from a
    vertex to the next.  One such read costs about a quarter of the 2-D
    gather ``a[k, np.arange(m)]``."""
    row, col = (stride // a.itemsize for stride in a.strides)
    return k * row + np.arange(a.shape[1]) * col, row


def _crossing(times: np.ndarray, pos: np.ndarray, segments: np.ndarray, level: float, c: float,
              tol: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where and when each path first meets a level: the displacement index
    k + 1 of the first true row k of ``segments``, a (rows, m) mask true on
    the segments from vertex k to k + 1 that meet ``level``; the time
    ``t_k + |level - x_k| / c`` of the meeting, |level - x_k| being the rise
    or the fall up to it; and whether there is one (k = 0 where not).  With
    ``tol``, a meeting within ``tol`` of either end of its segment is none.
    """
    k, found = _first_rows(segments)
    at, step = _vertex_offsets(pos, k)
    tv = times.ravel("K")
    start = tv[at]
    hit = start + np.abs(level - pos.ravel("K")[at]) / c
    if tol is not None:
        found &= np.minimum(hit - start, tv[at + step] - hit) > tol
    return k + 1, hit, found


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
    if shared or not groups:
        yield shared


def _switch_blocks(source: SwitchRows, t: float):
    """Switches of each block of a source, drawn when reached: the rows of a
    shared block are padded with switches at t to its largest count, and the
    empty block of an empty source is a (0, 0) array."""
    for block in _blocks(source.groups):
        if len(block) == 1:
            yield source.draw(*block[0])
            continue
        sw = np.full((sum(m for _, m in block), max((k for k, _ in block), default=0)), float(t))
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
        if beta <= 0.0:  # every path starts at or above the level
            return (np.zeros(pos.shape[1]),)
        # the first vertex at or above the level ends the crossing segment
        _, out, reached = _crossing(times, pos, pos[1:] >= beta, beta, c)
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
        _, out, returned = _crossing(times, pos, sgn * pos[1:] <= 0.0, 0.0, c)
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
    """Results of ``work(counts, rngs)`` on each task of ``reps`` rows, in task order.

    Chunk i holds rows ``i*CHUNK`` up to ``min((i+1)*CHUNK, reps)`` and draws
    from stream i of ``seed`` in whichever task and thread.  A task holds 1 to
    ``_BLOCK_VERTICES // CHUNK`` consecutive chunks, at most an even share,
    and runs on one of at most ``threads`` workers, one per task and CPU.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(threads, cpus or 1))
    rows = CHUNK * max(1, min(_BLOCK_VERTICES // CHUNK, -(-reps // (CHUNK * workers))))
    tasks = [range(start, min(start + rows, reps), CHUNK) for start in range(0, reps, rows)]

    def run(task: range):  # the first rows of the task's chunks
        return work([min(CHUNK, reps - i) for i in task],
                    [RngStream(seed, i // CHUNK).generator() for i in task])

    if workers == 1 or len(tasks) == 1:
        return [run(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(run, tasks))


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


@functools.lru_cache(maxsize=32)
def _poisson_cells(lam_t: float) -> Tuple[int, np.ndarray]:
    """The first count ``lo`` and the read-only Poisson(lam_t) probabilities of
    counts lo, lo + 1, ... over the window outside which the pmf underflows
    below the normal floats, normalised to sum 1.

    The window grows from the mode outward by p(k+1) = p(k) * lam_t/(k+1) and
    p(k-1) = p(k) * k/lam_t.  (Subnormal products would stall where the
    ratio is near 1, so the window stops at the smallest normal float.)  A
    lam_t that underflowed to 0 has the one cell k = 0.
    """
    tiny = np.finfo(float).tiny
    mode = math.floor(lam_t)
    # log p(mode); a mode of 0, also at lam_t = 0, has p(0) = exp(-lam_t)
    top = math.exp((mode * math.log(lam_t) if mode else 0.0) - lam_t - math.lgamma(mode + 1))
    down, p, k = [], top, mode
    while k > 0:
        p *= k / lam_t
        if p < tiny:
            break
        down.append(p)
        k -= 1
    up, p, k = [], top, mode
    while True:
        k += 1
        p *= lam_t / k
        if p < tiny:
            break
        up.append(p)
    cells = np.array(down[::-1] + [top] + up)
    cells /= cells.sum()
    cells.flags.writeable = False
    return mode - len(down), cells


def _chunk_rows(
    n: Optional[int], params: MotionParams, t: float, counts: Sequence[int],
    rngs: Sequence[np.random.Generator],
) -> SwitchRows:
    """The source of a task's switch rows, chunk i holding ``counts[i]`` rows from
    ``rngs[i]``.  With ``n=None`` each chunk first draws one ``rng.multinomial``
    over the cells of ``_poisson_cells(lambda*t)``, its number of rows of each
    count, so the counts are i.i.d. Poisson(lambda*t).  Group k, in increasing
    k, is every chunk's rows of count k in chunk order, drawn into one array
    from their generators in that order and sorted once.
    """
    lo, sizes = n, np.array(counts)[:, None]
    if n is None:
        lo, cells = _poisson_cells(params.lam * t)
        sizes = np.array([rng.multinomial(count, cells) for count, rng in zip(counts, rngs)])
    # the rows of each count still to draw, per generator in chunk order
    parts = {k + lo: [[rng, m] for rng, m in zip(rngs, sizes[:, k].tolist()) if m]
             for k in np.flatnonzero(sizes.sum(axis=0)).tolist()}
    return SwitchRows(tuple((k, sum(m for _, m in q)) for k, q in parts.items()),
                      lambda k, rows: _draw_rows(parts[k], k, rows, t))


def _paths(signs: Sequence[VelocitySign], switches: np.ndarray, t: float):
    """:class:`TelegraphPath` of each sign and sorted switch row, one at a time.

    The block is checked once with numpy, on the conditions of
    ``path.validate``: first switch > 0, strictly increasing, last switch < t
    (NaN fails each).  A block that passes builds its paths without
    re-running ``validate``, by filling each instance's ``__dict__``; one that
    fails builds them by the constructor, which raises its own message at the
    first bad row.
    """
    rows = switches.tolist()
    if switches.shape[1] and not ((switches[:, 0] > 0.0).all()
                                  and (switches[:, 1:] > switches[:, :-1]).all()
                                  and (switches[:, -1] < t).all()):
        yield from map(TelegraphPath, signs, repeat(t), rows)
        return
    new = object.__new__
    for sign, row in zip(signs, rows):
        path = new(TelegraphPath)
        fields = path.__dict__
        fields["v0"], fields["horizon"], fields["switch_times"] = sign, t, tuple(row)
        yield path


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
    i of ``seed``: its sign coins, then (with ``n=None``) one multinomial
    over the Poisson(lambda*t) count cells, then each count group whole, and
    the j-th path in group order takes the j-th coin.  The result depends
    only on (seed, reps).  The chunks run one by one on the calling thread:
    the event is a Python call per path and holds the interpreter lock, so a
    second thread only contends for it, and ``threads`` is accepted but unused.
    Each drawn block of switch rows is checked once with numpy on the
    conditions of ``path.validate``, and its paths are built without
    re-validating them; a bad row raises the constructor's ``ValueError``.
    The switch counts must fit one block of ``_BLOCK_VERTICES`` vertices:
    n <= 2^16 - 2, or lambda*t <= 2^15 without n; outside that domain a
    ``ValueError`` is raised before any draw.
    """
    _check_horizon(t)
    _check_counts(n, params, t)
    uniform = v0 == "uniform"
    if not uniform:
        v0 = VelocitySign(v0)

    def chunk(count: int, rng: np.random.Generator) -> int:
        if uniform:
            signs = np.where(rng.random(count) < 0.5, VelocitySign.PLUS,
                             VelocitySign.MINUS).tolist()
        else:
            signs = [v0] * count
        rows = _chunk_rows(n, params, t, [count], [rng])
        hits = start = 0
        for k, m in chain.from_iterable(_blocks(rows.groups)):
            paths = _paths(signs[start : start + m], rows.draw(k, m), t)
            hits += sum(1 for path in paths if event(path, params))
            start += m
        return hits

    total = sum(_run_chunks(lambda counts, rngs: sum(map(chunk, counts, rngs)), reps, seed, 1))
    p_hat = total / reps
    se = float(np.sqrt(p_hat * (1.0 - p_hat) / reps))
    se_ref = 0.0 if analytic is None else np.sqrt(max(analytic * (1.0 - analytic), 0.0) / reps)
    z = float((p_hat - analytic) / se_ref) if se_ref > 0.0 else None
    return McReport(p_hat, se, reps, analytic, z)


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
    mass: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> List[HistogramBin]:
    """Histogram density estimate of a path functional with bin-wise errors.

    ``functional`` is one of ``position``, ``max``, ``fpt`` (needs a level
    ``beta > 0``), ``return``; undefined values (NaN) fall in no bin.
    Paths are drawn in chunks as in :func:`mc_probability`, on the same
    domain of switch counts; a worker histograms a task of chunks at a time,
    and the histogram depends only on (seed, reps).
    Per bin, the density estimate is frequency/width with standard error
    sqrt(p(1-p)/reps)/width, where an empty bin falls back to p = 1/reps.
    ``mass``, where given, maps the bin edges to the law's mass in each bin,
    binned as ``np.histogram`` bins the samples (``laws.Resolved.mass``).
    Each bin then carries its reference ref = mass/width and a z-score
    against it, under the error the reference predicts (p = ref*width in the
    formula above), not the bin's own.  A bin whose reference holds every
    sample has no z-score.
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

    def work(counts: Sequence[int], rngs: Sequence[np.random.Generator]) -> np.ndarray:
        vals = fn(v0, _chunk_rows(n, params, t, counts, rngs), t, params.c)
        # with a range given, np.histogram's own in-range test drops NaN
        return np.histogram(vals, bins=bins, range=(lo, hi))[0]

    counts = sum(_run_chunks(work, reps, seed, threads))

    edges = np.linspace(lo, hi, bins + 1)
    width = (hi - lo) / bins
    p_hat = counts / reps
    estimate = p_hat / width

    def std_error(p):
        return np.sqrt(np.maximum(p, 1.0 / reps) * np.maximum(1.0 - p, 0.0) / reps) / width

    refs = zs = [None] * bins
    if mass is not None:
        ref = mass(edges) / width
        refs = ref.tolist()
        zs = [float((e - r) / s) if s > 0.0 else None
              for e, r, s in zip(estimate, ref, std_error(ref * width))]
    return [HistogramBin(a, b, McReport(e, s, reps, r, z)) for a, b, e, s, r, z in zip(
        edges[:-1].tolist(), edges[1:].tolist(), estimate.tolist(), std_error(p_hat).tolist(),
        refs, zs)]
