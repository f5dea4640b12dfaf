import dataclasses
import functools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from telegraph import (
    MotionParams,
    RngStream,
    TelegraphPath,
    VelocitySign,
    first_passage,
    first_return,
    position_at,
    running_max,
    sample_conditional,
)
from telegraph import laws, reflection, sampler, verify
from telegraph.path import _vertices, validate

PARAMS = MotionParams(c=1.0, lam=1.0)
PLUS = VelocitySign.PLUS
MINUS = VelocitySign.MINUS


class TestRngStream:
    def test_same_seed_and_stream_reproduces(self):
        a = RngStream(42, stream_id=3).generator().uniform(size=5)
        b = RngStream(42, stream_id=3).generator().uniform(size=5)
        assert a == pytest.approx(b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, stream_id=0).generator().uniform(size=5)
        b = RngStream(42, stream_id=1).generator().uniform(size=5)
        assert not np.allclose(a, b)

    def test_distinct_seeds_differ(self):
        a = RngStream(1).generator().uniform(size=5)
        b = RngStream(2).generator().uniform(size=5)
        assert not np.allclose(a, b)


class TestPathSampling:
    def test_conditional_switch_count_and_ordering(self):
        rng = RngStream(0).generator()
        for n in (1, 4, 9):
            path = sample_conditional(n, 2.0, PLUS, rng)
            assert len(path.switch_times) == n
            assert list(path.switch_times) == sorted(path.switch_times)
            assert all(0.0 < s < 2.0 for s in path.switch_times)

    @pytest.mark.parametrize("lam_t", [0.1, 3.0, 30.0, 1000.0, 2.0 ** 15])
    def test_unconditional_count_is_poisson(self, lam_t):
        # the counts of 2^20 rows in chunks as the estimators draw them, against the
        # Poisson pmf from lgamma: mean, variance and a chi-square over cells that
        # expect at least 5 rows (each tail pooled into its end cell)
        reps, params = 1 << 20, MotionParams(c=1.0, lam=lam_t / 2.0)
        groups = sampler._run_chunks(
            lambda counts, rngs: sampler._chunk_rows(None, params, 2.0, counts, rngs).groups,
            reps, 61, 1)
        ks, ms = np.array([g for chunk in groups for g in chunk]).T
        assert ms.sum() == reps
        mean = (ks * ms).sum() / reps
        var = (ms * (ks - mean) ** 2).sum() / (reps - 1)
        assert abs(mean - lam_t) < 5.0 * math.sqrt(lam_t / reps)
        # Var(sample variance) ~ (mu_4 - sigma^4) / reps = (lam_t + 2 lam_t^2) / reps
        assert abs(var - lam_t) < 5.0 * math.sqrt((lam_t + 2.0 * lam_t**2) / reps)
        span = np.arange(ks.max() + 2)
        pmf = np.exp(span * math.log(lam_t) - lam_t
                     - np.array([math.lgamma(k + 1.0) for k in span]))
        expect = reps * pmf
        cells = np.flatnonzero(expect >= 5.0)
        first, last = cells[0], cells[-1]
        observed = np.bincount(ks, weights=ms, minlength=span.size)
        obs = observed[first : last + 1].copy()
        exp_ = expect[first : last + 1].copy()
        obs[0] += observed[:first].sum()
        exp_[0] += reps * pmf[:first].sum()
        obs[-1] += observed[last + 1 :].sum()
        exp_[-1] = reps - exp_[:-1].sum()
        chi2 = ((obs - exp_) ** 2 / exp_).sum()
        # Wilson-Hilferty 1 - 1e-6 quantile of chi-square with df = cells - 1
        df = obs.size - 1
        bound = df * (1.0 - 2.0 / (9.0 * df) + 4.75 * math.sqrt(2.0 / (9.0 * df))) ** 3
        assert chi2 < bound, (chi2, df)

    @pytest.mark.parametrize("lam, t", [(1e-200, 1e-200), (5e-324, 1.0)])
    def test_tiny_rate_draws_no_switch(self, lam, t):
        # lambda*t underflows to 0, or is the least subnormal, whose k = 1 cell is below
        # the normal floats: one cell, k = 0
        rows = sampler._chunk_rows(None, MotionParams(c=1.0, lam=lam), t, [100],
                                   [RngStream(62).generator()])
        assert tuple(rows.groups) == ((0, 100),)

    def test_v0_policy_fixed_signs(self):
        starts_minus = lambda path, params: path.v0 is MINUS
        for v0, want in (("+", 0.0), ("-", 1.0), (MINUS, 1.0)):
            report = sampler.mc_probability(starts_minus, PARAMS, 1.0, 50, v0=v0, seed=2)
            assert report.estimate == want

    def test_v0_policy_uniform_mixes(self):
        signs = set()
        sampler.mc_probability(lambda path, params: signs.add(path.v0), PARAMS, 1.0, 50,
                               v0="uniform", seed=3)
        assert signs == {PLUS, MINUS}


class TestBatchFunctionals:
    def setup_method(self):
        rng = RngStream(7).generator()
        self.switches = sampler.sample_switches_batch(4, 1.0, 200, rng)

    def _paths(self, v0):
        return [TelegraphPath(v0, 1.0, tuple(row)) for row in self.switches]

    @pytest.mark.parametrize("v0", [PLUS, MINUS])
    def test_position_matches_scalar(self, v0):
        got = sampler.position_batch(v0, self.switches, 1.0, 1.0)
        want = [position_at(p, 1.0, PARAMS) for p in self._paths(v0)]
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("v0", [PLUS, MINUS])
    def test_running_max_matches_scalar(self, v0):
        got = sampler.running_max_batch(v0, self.switches, 1.0, 1.0)
        want = [running_max(p, PARAMS) for p in self._paths(v0)]
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("v0", [PLUS, MINUS])
    def test_first_passage_matches_scalar(self, v0):
        beta = 0.3
        got = sampler.first_passage_batch(v0, self.switches, 1.0, 1.0, beta)
        for g, p in zip(got, self._paths(v0)):
            want = first_passage(p, beta, PARAMS)
            if want is None:
                assert math.isnan(g)
            else:
                assert g == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("v0", [PLUS, MINUS])
    @pytest.mark.parametrize("n", [0, 1, 3, 8])
    @pytest.mark.parametrize("beta", [-0.5, 0.0, 0.3])
    def test_first_passage_matches_scalar_at_any_level(self, v0, n, beta):
        switches = sampler.sample_switches_batch(n, 1.0, 50, RngStream(8).generator())
        got = sampler.first_passage_batch(v0, switches, 1.0, 1.0, beta)
        for g, row in zip(got, switches):
            want = first_passage(TelegraphPath(v0, 1.0, tuple(row)), beta, PARAMS)
            if want is None:
                assert math.isnan(g)
            else:
                assert g == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("v0", [PLUS, MINUS])
    def test_first_return_matches_scalar(self, v0):
        got = sampler.first_return_batch(v0, self.switches, 1.0, 1.0)
        for g, p in zip(got, self._paths(v0)):
            want = first_return(p, PARAMS)
            if want is None:
                assert math.isnan(g)
            else:
                assert g == pytest.approx(want, abs=1e-12)

    def test_event_indicators_match_scalar(self):
        zero = sampler.max_is_zero_batch(MINUS, self.switches, 1.0, 1.0)
        stuck = sampler.max_equals_position_batch(MINUS, self.switches, 1.0, 1.0)
        for z, s, p in zip(zero, stuck, self._paths(MINUS)):
            assert z == (running_max(p, PARAMS) <= 0.0)
            assert s == (running_max(p, PARAMS) <= position_at(p, 1.0, PARAMS))


class TestVertexMajorKernel:
    """Column i of the vertex-major arrays is ``path._vertices`` of row i, bit for bit."""

    @pytest.mark.parametrize("v0", [PLUS, MINUS])
    @pytest.mark.parametrize("n", [0, 1, 2, 8, 64, 1000])
    @pytest.mark.parametrize(
        "m", [1, sampler._LOOP_MIN_PATHS - 1, sampler._LOOP_MIN_PATHS + 1]
    )
    def test_columns_equal_scalar_vertices(self, v0, n, m):
        switches = sampler.sample_switches_batch(n, 1.3, m, RngStream(31, n).generator())
        times, pos = sampler.vertices_batch(v0, switches, 1.3, 0.7)
        assert times.shape == pos.shape == (n + 2, m)
        for i, row in enumerate(switches):
            want_times, want_pos = _vertices(TelegraphPath(v0, 1.3, tuple(row)), 0.7)
            assert times[:, i].tolist() == want_times
            assert pos[:, i].tolist() == want_pos

    @pytest.mark.parametrize("v0", [PLUS, MINUS])
    def test_wide_batch_hitting_times_match_scalar(self, v0):
        m = sampler._LOOP_MIN_PATHS + 1
        switches = sampler.sample_switches_batch(5, 1.0, m, RngStream(33).generator())
        fpt = sampler.first_passage_batch(v0, switches, 1.0, 1.0, 0.2)
        ret = sampler.first_return_batch(v0, switches, 1.0, 1.0)
        for f, r, row in zip(fpt, ret, switches):
            path = TelegraphPath(v0, 1.0, tuple(row))
            wants = (first_passage(path, 0.2, PARAMS), first_return(path, PARAMS))
            for got, want in zip((f, r), wants):
                if want is None:
                    assert math.isnan(got)
                else:
                    assert got == pytest.approx(want, abs=1e-12)


class TestSwitchDraws:
    """``sample_switches_batch`` is ``np.sort(rng.uniform(0, t, (m, n)), axis=1)``, bit
    for bit: the draw is t * rng.random, and rows of 2 to 6 switches are sorted by a
    compare-exchange network."""

    @pytest.mark.parametrize("n", range(9))
    @pytest.mark.parametrize("t", [1.0, 1.3, 3.0])
    def test_equals_sorted_uniform_draw(self, n, t):
        got = sampler.sample_switches_batch(n, t, 4001, RngStream(44, n).generator())
        want = np.sort(RngStream(44, n).generator().uniform(0.0, t, (4001, n)), axis=1)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    def test_network_rows_come_back_as_a_fortran_view(self):
        for n in range(9):
            sw = sampler.sample_switches_batch(n, 1.0, 50, RngStream(45).generator())
            assert sw.flags.c_contiguous == (n not in sampler._NETWORKS)
            assert sw.flags.f_contiguous == (n < 2 or n in sampler._NETWORKS)

    @pytest.mark.parametrize("n, comparators", [(2, 1), (3, 3), (4, 5), (5, 9), (6, 12)])
    def test_networks_sort_every_zero_one_row(self, n, comparators):
        # a comparator network that sorts every 0-1 row sorts every row (Knuth 5.3.4)
        network = sampler._NETWORKS[n]
        assert len(network) == comparators and all(i < j < n for i, j in network)
        rows = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        for i, j in network:
            rows[:, i], rows[:, j] = rows[:, [i, j]].min(axis=1), rows[:, [i, j]].max(axis=1)
        assert np.array_equal(rows, np.sort(rows, axis=1))

    @pytest.mark.parametrize("block_vertices", [8 * 3, 8 * 40, 1 << 40])
    def test_block_draws_equal_sorted_uniform_draws(self, monkeypatch, block_vertices):
        # counts 0 to 8, one group cut across blocks and a padded shared block
        groups = ((0, 3), (1, 5), (2, 9), (3, 4), (4, 60), (5, 2), (6, 7), (7, 1), (8, 3))
        rng = RngStream(46).generator()
        want = [np.sort(rng.uniform(0.0, 1.3, (m, k)), axis=1) for k, m in groups]
        monkeypatch.setattr(sampler, "_BLOCK_VERTICES", block_vertices)
        rng = RngStream(46).generator()
        source = sampler.SwitchRows(
            groups, lambda k, m: sampler.sample_switches_batch(k, 1.3, m, rng))
        seen = []
        sampler.reduce_vertices(lambda times, pos: seen.append(times[1:-1].T.copy()) or (pos[-1],),
                                PLUS, source, 1.3, 0.7)
        rows = iter(row for sw in want for row in sw)
        for block, got in zip(sampler._blocks(groups), seen):
            width = block[-1][0]
            for k, m in block:
                for _ in range(m):
                    expect = np.full(width, 1.3)
                    expect[:k] = next(rows)
                    assert got[0].tobytes() == expect.tobytes()
                    got = got[1:]
            assert len(got) == 0
        assert next(rows, None) is None


class TestFirstRowsAndOffsets:
    """The crossing kernels find the first true row of a vertex-major mask and read
    vertices at flat offsets; both equal ``argmax(axis=0)`` and 2-D gathers."""

    @pytest.mark.parametrize("rows", [1, 2, 9, 255, 256, 40_000, 70_000])
    @pytest.mark.parametrize("fortran", [False, True])
    def test_first_rows_equal_argmax(self, rows, fortran):
        m = 40
        rng = RngStream(47, rows).generator()
        # about two true entries per column, the first column all false
        mask = rng.random((rows, m)) < 2.0 / rows
        mask[:, :2] = False
        mask[-1, 1] = True  # a first true entry on the last row
        if fortran:
            mask = np.asfortranarray(mask)
        idx, found = sampler._first_rows(mask)
        assert idx.dtype == np.intp
        assert np.array_equal(idx, np.argmax(mask, axis=0))
        assert np.array_equal(found, mask.any(axis=0))
        assert not found[0] and idx[1] == rows - 1

    @pytest.mark.parametrize("m", [1, sampler._LOOP_MIN_PATHS - 1, sampler._LOOP_MIN_PATHS])
    def test_vertex_offsets_equal_gathers(self, m):
        sw = sampler.sample_switches_batch(6, 1.0, m, RngStream(48).generator())
        times, pos = sampler.vertices_batch(PLUS, sw, 1.0, 1.0)
        assert times.flags.f_contiguous == (m < sampler._LOOP_MIN_PATHS)
        k = RngStream(49).generator().integers(0, 7, m)
        at, step = sampler._vertex_offsets(pos, k)
        cols = np.arange(m)
        assert np.array_equal(pos.ravel("K")[at], pos[k, cols])
        assert np.array_equal(times.ravel("K")[at], times[k, cols])
        assert np.array_equal(times.ravel("K")[at + step], times[k + 1, cols])

    @pytest.mark.parametrize("n", [8, 300])
    def test_kernels_give_the_same_bits_in_either_layout(self, monkeypatch, n):
        # one wide (vertex-major) block against blocks below _LOOP_MIN_PATHS, which
        # store each path contiguously; n = 300 takes two-byte mask weights
        sw = sampler.sample_switches_batch(n, 1.0, 700, RngStream(50, n).generator())
        beta = 0.05 if n > 8 else 0.25

        def results():
            return [
                *reflection.crossings_batch(sw, 1.0, 1.0, beta),
                *reflection.zero_return_crossings_batch(sw, 1.0, 1.0, beta),
                *(sampler.first_passage_batch(v0, sw, 1.0, 1.0, beta) for v0 in (PLUS, MINUS)),
                *(sampler.first_return_batch(v0, sw, 1.0, 1.0) for v0 in (PLUS, MINUS)),
            ]

        monkeypatch.setattr(sampler, "_BLOCK_VERTICES", 1 << 40)
        wide = results()
        monkeypatch.setattr(sampler, "_BLOCK_VERTICES", (sampler._LOOP_MIN_PATHS - 1) * (n + 2))
        narrow = results()
        for got, want in zip(narrow, wide):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert wide[4].any() and np.isfinite(wide[10]).any()  # some rows are cut

    def test_hitting_times_beyond_the_int16_range(self):
        # n + 1 beyond the int16 range: the mask weights are uint16, the indices intp
        n = 40_000
        sw = sampler.sample_switches_batch(n, 1.0, 2, RngStream(51).generator())
        fpt = sampler.first_passage_batch(PLUS, sw, 1.0, 1.0, 0.002)
        ret = sampler.first_return_batch(MINUS, sw, 1.0, 1.0)
        for f, r, row in zip(fpt, ret, sw):
            want_f = first_passage(TelegraphPath(PLUS, 1.0, tuple(row)), 0.002, PARAMS)
            want_r = first_return(TelegraphPath(MINUS, 1.0, tuple(row)), PARAMS)
            assert f == pytest.approx(want_f, abs=1e-12)
            assert r == pytest.approx(want_r, abs=1e-12)


class TestVertexBlocks:
    """Cutting a batch into blocks of paths changes no bit of any kernel's result."""

    FUNCTIONALS = [
        lambda v0, sw: sampler.position_batch(v0, sw, 1.3, 0.7),
        lambda v0, sw: sampler.running_max_batch(v0, sw, 1.3, 0.7),
        lambda v0, sw: sampler.first_passage_batch(v0, sw, 1.3, 0.7, 0.2),
        lambda v0, sw: sampler.first_return_batch(v0, sw, 1.3, 0.7),
        lambda v0, sw: sampler.max_is_zero_batch(v0, sw, 1.3, 0.7),
        lambda v0, sw: sampler.max_equals_position_batch(v0, sw, 1.3, 0.7),
    ]
    CROSSINGS = [
        lambda sw: reflection.crossings_batch(sw, 1.3, 0.7, 0.25),
        lambda sw: reflection.zero_return_crossings_batch(sw, 1.3, 0.7, 0.25),
    ]

    def _results(self, sw):
        functionals = [f(v0, sw) for f in self.FUNCTIONALS for v0 in (PLUS, MINUS)]
        return functionals, [f(sw) for f in self.CROSSINGS]

    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize(
        "m, paths_per_block",
        [
            (1, 0), (1, 1), (1, 2),
            # one path per block, step - 1, step, step + 1, and a ragged last block
            (50, 1), (50, 49), (50, 50), (50, 51), (50, 17),
            # one wide batch against blocks below _LOOP_MIN_PATHS
            (700, sampler._LOOP_MIN_PATHS - 1),
        ],
    )
    def test_blocks_change_no_bit(self, monkeypatch, n, m, paths_per_block):
        sw = sampler.sample_switches_batch(n, 1.3, m, RngStream(37, m).generator())
        monkeypatch.setattr(sampler, "_BLOCK_VERTICES", 1 << 40)
        want_functionals, want_crossings = self._results(sw)
        monkeypatch.setattr(sampler, "_BLOCK_VERTICES", paths_per_block * (n + 2))
        got_functionals, got_crossings = self._results(sw)
        for got, want in zip(got_functionals, want_functionals):
            assert got.dtype == want.dtype and got.shape == (m,)
            assert got.tobytes() == want.tobytes()
        for got, want in zip(got_crossings, want_crossings):
            ok = want[-1]
            assert np.array_equal(got[-1], ok)
            for g, w in zip(got[:-1], want[:-1]):
                assert g.dtype == w.dtype and g.shape == (m,)
                assert g[ok].tobytes() == w[ok].tobytes()

    @pytest.mark.parametrize("functional, beta", [("max", None), ("fpt", 0.3), ("return", None)])
    def test_histogram_counts_do_not_depend_on_blocks(self, monkeypatch, functional, beta):
        def estimates():
            bins = sampler.mc_density_histogram(
                functional, MINUS, 8, PARAMS, 1.0, bins=16, value_range=(0.0, 1.0),
                reps=3001, seed=38, beta=beta,
            )
            return [b.report.estimate for b in bins]

        want = estimates()
        monkeypatch.setattr(sampler, "_BLOCK_VERTICES", 7 * 10)
        assert estimates() == want

    def test_crossings_peak_memory_is_bounded_by_outputs(self):
        # the unblocked kernel peaked at about 7x its outputs on this batch
        sw = sampler.sample_switches_batch(8, 1.0, 250_000, RngStream(39).generator())
        tracemalloc.start()
        try:
            outputs = reflection.crossings_batch(sw, 1.0, 1.0, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * sum(a.nbytes for a in outputs)

    def test_histogram_chunk_peak_memory_is_bounded_by_its_switches(self):
        n = 64
        tracemalloc.start()
        try:
            sampler.mc_density_histogram(
                "max", MINUS, n, PARAMS, 1.0, bins=20, value_range=(0.0, 1.0),
                reps=sampler.CHUNK, seed=40,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * sampler.CHUNK * n * np.dtype(float).itemsize


class TestSwitchRowDriver:
    """The driver draws each block's rows when it reaches the block; shared blocks pad
    rows with switches at t.  Neither changes a bit against per-group array calls."""

    T = 1.3
    # count 0, several small groups, one large group and a one-row group
    GROUPS = ((0, 5), (1, 7), (2, 3), (3, 40), (5, 2), (9, 1))
    SCALAR = [
        lambda p: position_at(p, p.horizon, MotionParams(0.7, 1.0)),
        lambda p: running_max(p, MotionParams(0.7, 1.0)),
        lambda p: first_passage(p, 0.2, MotionParams(0.7, 1.0)),
        lambda p: first_return(p, MotionParams(0.7, 1.0)),
    ]

    def _source(self, seed):
        rng = RngStream(seed).generator()
        return sampler.SwitchRows(
            self.GROUPS, lambda k, m: sampler.sample_switches_batch(k, self.T, m, rng))

    def _per_group(self, seed):
        rng = RngStream(seed).generator()
        return [sampler.sample_switches_batch(k, self.T, m, rng) for k, m in self.GROUPS]

    FUNCTIONALS = [
        lambda v0, sw: sampler.position_batch(v0, sw, 1.3, 0.7),
        lambda v0, sw: sampler.running_max_batch(v0, sw, 1.3, 0.7),
        lambda v0, sw: sampler.first_passage_batch(v0, sw, 1.3, 0.7, 0.2),
        lambda v0, sw: sampler.first_return_batch(v0, sw, 1.3, 0.7),
        lambda v0, sw: sampler.max_is_zero_batch(v0, sw, 1.3, 0.7),
        lambda v0, sw: sampler.max_equals_position_batch(v0, sw, 1.3, 0.7),
    ]

    @pytest.mark.parametrize(
        "block_vertices, plan",
        [
            # every group in one block, padded to count 9
            (1 << 40, [GROUPS]),
            # small groups share blocks, count 3 is cut across blocks of 8 paths
            (40, [[(0, 5), (1, 7)], [(2, 3)], *[[(3, 8)]] * 5, [(5, 2), (9, 1)]]),
            # one-path blocks
            (1, [[(k, 1)] for k, m in GROUPS for _ in range(m)]),
        ],
    )
    def test_block_plan(self, monkeypatch, block_vertices, plan):
        monkeypatch.setattr(sampler, "_BLOCK_VERTICES", block_vertices)
        assert [list(b) for b in sampler._blocks(self.GROUPS)] == [list(b) for b in plan]

    @pytest.mark.parametrize("v0", [PLUS, MINUS])
    @pytest.mark.parametrize("block_vertices", [1, 4, 40, 100, 1 << 40])
    def test_functionals_equal_per_group_calls(self, monkeypatch, v0, block_vertices):
        groups = self._per_group(41)
        want = [np.concatenate([f(v0, sw) for sw in groups]) for f in self.FUNCTIONALS]
        monkeypatch.setattr(sampler, "_BLOCK_VERTICES", block_vertices)
        got = [f(v0, self._source(41)) for f in self.FUNCTIONALS]
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        rows = [tuple(row) for sw in groups for row in sw.tolist()]
        for values, scalar in zip(got, self.SCALAR):
            for value, row in zip(values.tolist(), rows):
                expect = scalar(TelegraphPath(v0, self.T, row))
                if expect is None:
                    assert math.isnan(value)
                else:
                    assert value == pytest.approx(expect, abs=1e-12)

    def test_draws_each_block_when_it_reaches_it(self, monkeypatch):
        events = []
        source = self._source(42)
        draw = lambda k, m: events.append((k, m)) or source.draw(k, m)
        reduce = lambda times, pos: events.append(pos.shape) or (pos[-1],)
        monkeypatch.setattr(sampler, "_BLOCK_VERTICES", 40)
        sampler.reduce_vertices(reduce, PLUS, source._replace(draw=draw), self.T, 0.7)
        want = []
        for block in sampler._blocks(self.GROUPS):
            want += [*block, (block[-1][0] + 2, sum(m for _, m in block))]
        assert events == want

    def test_empty_source_gives_empty_arrays_of_the_kernel_dtypes(self):
        # one empty block runs, without a draw, so each output keeps its kernel's dtype
        empty = sampler.SwitchRows((), lambda k, m: pytest.fail("an empty source drew rows"))
        kernels = [*self.FUNCTIONALS[:4],
                   lambda v0, sw: reflection.crossings_batch(sw, 1.3, 0.7, 0.2)]
        assert [list(b) for b in sampler._blocks(())] == [[]]
        for kernel in kernels:
            got, want = (out if isinstance(out, tuple) else (out,)
                         for out in (kernel(PLUS, empty), kernel(PLUS, self._source(44))))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.shape == (0,) and g.dtype == w.dtype

    @pytest.mark.parametrize("dist, args", [("uniform", (0.0, 1.3)), ("poisson", (3.0,)),
                                            ("poisson", (1000.0,))])
    def test_piecewise_draws_equal_one_draw(self, dist, args):
        # the driver's stream contract: (a, k) then (b, k) gives the bits of (a + b, k)
        one = getattr(RngStream(43).generator(), dist)(*args, size=(37, 5))
        rng = RngStream(43).generator()
        parts = [getattr(rng, dist)(*args, size=(m, 5)) for m in (1, 11, 25)]
        assert np.concatenate(parts).tobytes() == one.tobytes()

    @staticmethod
    def _group_histogram(functional, v0, params, reps, seed, bins, value_range, beta):
        # the per-group layout spelled out: each chunk draws one multinomial over the
        # Poisson cells, then every nonempty count group whole, in increasing count
        fn = dict(position=sampler.position_batch, max=sampler.running_max_batch,
                  fpt=functools.partial(sampler.first_passage_batch, beta=beta),
                  ret=sampler.first_return_batch)[functional]
        lo, cells = sampler._poisson_cells(params.lam * 1.0)
        total = np.zeros(bins, dtype=np.int64)
        for i, start in enumerate(range(0, reps, sampler.CHUNK)):
            rng = RngStream(seed, i).generator()
            sizes = rng.multinomial(min(sampler.CHUNK, reps - start), cells)
            for k, m in enumerate(sizes.tolist(), lo):
                if m:
                    vals = fn(v0, sampler.sample_switches_batch(k, 1.0, m, rng), 1.0, params.c)
                    total += np.histogram(vals[~np.isnan(vals)], bins=bins, range=value_range)[0]
        return total

    @pytest.mark.parametrize("lam, reps", [(0.1, 3 * 5000), (3.0, 20000), (30.0, 20000),
                                           (1000.0, 3000)])
    @pytest.mark.parametrize("functional", ["max", "fpt", "ret"])
    def test_unconditional_histogram_equals_per_group_counts(self, lam, reps, functional):
        params = MotionParams(c=1.0, lam=lam)
        bins, value_range, v0 = 24, (-1.0, 1.0), MINUS if functional == "max" else PLUS
        want = self._group_histogram(functional, v0, params, reps, 44, bins, value_range, 0.3)
        got = sampler.mc_density_histogram(
            "return" if functional == "ret" else functional, v0, None, params, 1.0,
            bins=bins, value_range=value_range, reps=reps, seed=44, threads=2,
            beta=0.3 if functional == "fpt" else None,
        )
        width = (value_range[1] - value_range[0]) / bins
        assert [b.report.estimate for b in got] == [k / reps / width for k in want]

    def test_uniform_start_probability_equals_per_path_reference(self, monkeypatch):
        # per chunk: the sign coins, one multinomial over the Poisson cells, then each
        # nonempty count group whole; the j-th path in group order takes the j-th coin
        monkeypatch.setattr(sampler, "CHUNK", 1000)
        params, reps = MotionParams(c=1.0, lam=3.0), 2500
        lo, cells = sampler._poisson_cells(params.lam * 1.0)
        want = []
        for i, start in enumerate(range(0, reps, sampler.CHUNK)):
            rng = RngStream(45, i).generator()
            size = min(sampler.CHUNK, reps - start)
            coins = iter((rng.random(size) < 0.5).tolist())
            sizes = rng.multinomial(size, cells)
            for k, m in enumerate(sizes.tolist(), lo):
                if m:
                    sw = sampler.sample_switches_batch(k, 1.0, m, rng)
                    want += [TelegraphPath(PLUS if next(coins) else MINUS, 1.0, row)
                             for row in sw.tolist()]
            assert next(coins, None) is None
        seen = []
        event = lambda p, params: seen.append(p) or position_at(p, 1.0, params) > 0.1
        got = sampler.mc_probability(event, params, 1.0, reps, v0="uniform", seed=45)
        assert seen == want
        assert got.estimate == sum(position_at(p, 1.0, params) > 0.1 for p in want) / reps

    def test_large_n_chunk_peak_memory(self):
        # a whole-chunk draw of these 2000 rows alone takes 160 MB
        tracemalloc.start()
        try:
            sampler.mc_density_histogram(
                "max", PLUS, 10_000, PARAMS, 1.0, bins=20, value_range=(0.0, 1.0),
                reps=2000, seed=46,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    @pytest.mark.parametrize("n, lam", [(sampler._BLOCK_VERTICES - 1, 1.0),
                                        (None, sampler._BLOCK_VERTICES / 2 * 1.001)])
    def test_counts_no_block_holds_are_refused(self, n, lam):
        params = MotionParams(c=1.0, lam=lam)
        with pytest.raises(ValueError, match="Monte Carlo limit"):
            sampler.mc_density_histogram("max", PLUS, n, params, 1.0, bins=4,
                                         value_range=(0.0, 1.0), reps=2)
        with pytest.raises(ValueError, match="Monte Carlo limit"):
            sampler.mc_probability(lambda p, params: True, params, 1.0, 2, n=n)

    def test_largest_count_a_block_holds_is_sampled(self):
        n = sampler._BLOCK_VERTICES - 2
        bins = sampler.mc_density_histogram("position", PLUS, n, PARAMS, 1.0, bins=2,
                                            value_range=(-1.0, 1.0), reps=3, seed=47)
        assert sum(b.report.estimate for b in bins) == pytest.approx(3 / 3 / 1.0)


class TestMcProbability:
    def test_reproducible_and_reports_z(self):
        event = lambda path, params: bool(path.switch_times) and path.switch_times[0] < 0.5
        a = sampler.mc_probability(event, PARAMS, 1.0, 2000, n=2, seed=3, analytic=0.75)
        b = sampler.mc_probability(event, PARAMS, 1.0, 2000, n=2, seed=3, analytic=0.75)
        assert a.estimate == b.estimate
        assert a.replications == 2000
        assert abs(a.z_score) < 4.0

    def test_threaded_run_is_deterministic(self):
        event = lambda path, params: running_max(path, params) <= 0.0
        a = sampler.mc_probability(event, PARAMS, 1.0, 4000, v0=MINUS, n=3, seed=9, threads=4)
        b = sampler.mc_probability(event, PARAMS, 1.0, 4000, v0=MINUS, n=3, seed=9, threads=4)
        assert a.estimate == b.estimate

    def test_never_crossing_probability_matches_atom(self):
        event = lambda path, params: running_max(path, params) <= 0.0
        expected = laws.max_atom_zero(MINUS, 3)
        rep = sampler.mc_probability(
            event, PARAMS, 1.0, 20000, v0=MINUS, n=3, seed=1, analytic=expected
        )
        assert abs(rep.z_score) < 4.0

    def test_block_checked_paths_equal_constructor_paths(self):
        # a block that passes the numpy check builds its paths without validate: each
        # equals, hashes as and is as frozen as the path the constructor builds
        seen = []
        sampler.mc_probability(lambda p, params: seen.append(p), PARAMS, 1.0, 300,
                               v0="uniform", n=4, seed=10)
        rng = RngStream(10, 0).generator()
        coins = (rng.random(300) < 0.5).tolist()
        rows = sampler.sample_switches_batch(4, 1.0, 300, rng).tolist()
        want = [TelegraphPath(PLUS if up else MINUS, 1.0, row) for up, row in zip(coins, rows)]
        assert seen == want
        assert [hash(p) for p in seen] == [hash(p) for p in want]
        assert all(type(p) is TelegraphPath and validate(p) is None for p in seen)
        with pytest.raises(dataclasses.FrozenInstanceError):
            seen[0].horizon = 2.0

    @pytest.mark.parametrize("bad", [[0.0, 0.4, 0.7], [0.2, 0.4, 0.4], [0.2, math.nan, 0.7],
                                     [0.2, 0.4, 1.0], [math.nan], [1.0]])
    def test_bad_row_raises_the_constructor_message(self, monkeypatch, bad):
        # the fault enters where every Monte Carlo draw is made
        rows = sampler.sample_switches_batch(len(bad), 1.0, 40, RngStream(11, 0).generator())
        real = sampler._draw_rows

        def draw(parts, n, rows, t):
            sw = np.array(real(parts, n, rows, t))
            sw[rows // 2] = bad
            return sw

        monkeypatch.setattr(sampler, "_draw_rows", draw)
        with pytest.raises(ValueError) as want:
            TelegraphPath(MINUS, 1.0, bad)
        seen = []
        with pytest.raises(ValueError) as got:
            sampler.mc_probability(lambda p, params: seen.append(p), PARAMS, 1.0, 40,
                                   v0=MINUS, n=len(bad), seed=11)
        assert str(got.value) == str(want.value)
        # the rows before the bad one reach the event as the constructor's paths
        assert seen == [TelegraphPath(MINUS, 1.0, row) for row in rows[:20].tolist()]

    def test_paths_of_a_block_longer_than_a_slice(self):
        # 2500 rows are two whole slices and a part of one
        rng = RngStream(12, 0).generator()
        signs = [PLUS if up else MINUS for up in (rng.random(2500) < 0.5).tolist()]
        switches = sampler.sample_switches_batch(3, 1.0, 2500, rng)
        assert len(switches) > 2 * sampler._PATH_SLICE
        got = [(p.v0, p.horizon, p.switch_times) for p in sampler._paths(signs, switches, 1.0)]
        want = [TelegraphPath(sign, 1.0, row) for sign, row in zip(signs, switches.tolist())]
        assert got == [(p.v0, p.horizon, p.switch_times) for p in want]
        assert all(type(times) is tuple for _, _, times in got)

    def test_bad_row_past_the_first_slice_raises_the_constructor_message(self):
        switches = sampler.sample_switches_batch(3, 1.0, 2500, RngStream(13, 0).generator())
        switches[2000] = [0.2, 0.4, 0.4]
        with pytest.raises(ValueError) as want:
            TelegraphPath(MINUS, 1.0, [0.2, 0.4, 0.4])
        with pytest.raises(ValueError) as got:
            list(sampler._paths([MINUS] * 2500, switches, 1.0))
        assert str(got.value) == str(want.value)


class TestMcDensityHistogram:
    def test_position_histogram_matches_analytic(self):
        bins = sampler.mc_density_histogram(
            "position",
            PLUS,
            2,
            PARAMS,
            1.0,
            bins=10,
            value_range=(-1.0, 1.0),
            reps=200000,
            seed=4,
            mass=laws.resolve("position", "+", 2, 1.0, 1.0, 1.0).mass,
        )
        assert len(bins) == 10
        worst = max(abs(b.report.z_score) for b in bins)
        assert worst < 4.0
        total = sum(b.report.estimate * (b.hi - b.lo) for b in bins)
        assert total == pytest.approx(1.0, abs=0.01)

    def test_fpt_histogram_excluding_direct_flight_atom(self):
        beta = 0.5
        bins = sampler.mc_density_histogram(
            "fpt",
            PLUS,
            3,
            PARAMS,
            1.0,
            bins=8,
            value_range=(beta + 1e-6, 1.0),
            reps=150000,
            seed=5,
            beta=beta,
            mass=laws.resolve("fpt", "+", 3, 1.0, 1.0, 1.0, beta=beta).mass,
        )
        worst = max(abs(b.report.z_score) for b in bins)
        assert worst < 4.0

    @pytest.mark.parametrize("n, bins", [(8, 1), (8, 5), (3, 4)])
    def test_reference_is_the_bin_average(self, n, bins):
        # the position density is one polynomial piece on (-ct, ct)
        density = lambda x: laws.position_pdf(+1, n, x, 1.0, 1.0)
        got = sampler.mc_density_histogram(
            "position", PLUS, n, PARAMS, 1.0, bins=bins, value_range=(-1.0, 1.0), reps=100,
            mass=laws.resolve("position", "+", n, 1.0, 1.0, 1.0).mass,
        )
        for b in got:
            mass = verify.quadrature(lambda x: float(density(x)), b.lo, b.hi, abs_tol=1e-13)
            assert b.report.analytic == pytest.approx(mass / (b.hi - b.lo), abs=1e-12)
        if bins == 1:
            assert got[0].report.analytic == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("n", [8, None])
    def test_reference_is_evaluated_a_block_of_bins_at_a_time(self, monkeypatch, n):
        sizes = []

        def density(x):
            sizes.append(x.size)
            return laws.position_pdf(+1, 8, x, 1.0, 1.0)

        # the n = 8 position law, taking the node count of switch count n
        law = dataclasses.replace(laws.resolve("position", "+", 8, 1.0, 1.0, 1.0), n=n, pdf=density)

        def refs():
            bins = sampler.mc_density_histogram(
                "position", PLUS, n, PARAMS, 1.0, bins=101, value_range=(-1.0, 1.0), reps=100,
                mass=law.mass,
            )
            return [b.report.analytic for b in bins]

        points = 101 * (laws._MAX_NODES if n is None else 8 // 2 + 2)
        want = refs()
        assert sizes == [points]
        sizes.clear()
        monkeypatch.setattr(laws, "_MAX_POINTS", 20 * laws._MAX_NODES)
        got = refs()
        assert max(sizes) <= 20 * laws._MAX_NODES and sum(sizes) == points
        # a one-row block may round its last bit differently from a wider one
        assert got == pytest.approx(want, rel=1e-14)

    def test_histogram_estimates_are_plain_floats(self):
        bins = sampler.mc_density_histogram(
            "max", MINUS, 2, PARAMS, 1.0, bins=4, value_range=(0.0, 1.0), reps=5000, seed=6
        )
        for b in bins:
            assert type(b.report.estimate) is float
            assert type(b.report.std_error) is float


class TestChunkedDriver:
    """Estimates depend on (seed, reps) only: chunk i of CHUNK rows draws from stream i."""

    @staticmethod
    def _estimates(bins):
        return [b.report.estimate for b in bins]

    @pytest.mark.parametrize(
        "v0, n, event",
        [
            (MINUS, 3, lambda p, params: running_max(p, params) <= 0.0),
            ("uniform", None, lambda p, params: position_at(p, 1.0, params) > 0.0),
        ],
    )
    def test_mc_probability_independent_of_threads(self, v0, n, event):
        reps = 2 * sampler.CHUNK + 123
        got = {
            threads: sampler.mc_probability(
                event, PARAMS, 1.0, reps, v0=v0, n=n, seed=12, threads=threads
            ).estimate
            for threads in (1, 2, 4)
        }
        assert got[1] == got[2] == got[4]

    @pytest.mark.parametrize(
        "functional, v0, n, params",
        [
            ("position", PLUS, 8, PARAMS),
            ("return", MINUS, None, MotionParams(c=1.0, lam=5.0)),
            # Poisson groups of a few hundred paths, each with n near 1000
            ("max", PLUS, None, MotionParams(c=1.0, lam=1000.0)),
        ],
    )
    def test_histogram_independent_of_threads(self, functional, v0, n, params):
        # at lambda = 1000 one chunk and a remainder of 5 rows keep the run short
        reps = sampler.CHUNK + 5 if params.lam == 1000.0 else 3 * sampler.CHUNK + 1001
        got = [
            self._estimates(
                sampler.mc_density_histogram(
                    functional, v0, n, params, 1.0, bins=20, value_range=(-1.0, 1.0),
                    reps=reps, seed=13, threads=threads,
                )
            )
            for threads in (1, 2, 4)
        ]
        assert got[0] == got[1] == got[2]

    def _chunk_counts(self, sizes, seed, bins, value_range):
        # the documented layout, spelled out: chunk i holds sizes[i] rows from stream i
        total = np.zeros(bins, dtype=np.int64)
        for i, size in enumerate(sizes):
            rng = RngStream(seed, i).generator()
            sw = sampler.sample_switches_batch(8, 1.0, size, rng)
            vals = sampler.position_batch(PLUS, sw, 1.0, 1.0)
            total += np.histogram(vals, bins=bins, range=value_range)[0]
        return total

    @pytest.mark.parametrize("reps", [1000, 2 * sampler.CHUNK + 7])
    def test_histogram_follows_chunk_layout(self, reps):
        sizes = [sampler.CHUNK] * (reps // sampler.CHUNK) + [reps % sampler.CHUNK]
        bins, value_range = 16, (-1.0, 1.0)
        want = self._chunk_counts(sizes, 21, bins, value_range)
        assert want.sum() == reps  # every row is drawn once and lands in a bin
        for threads in (1, 3):
            got = sampler.mc_density_histogram(
                "position", PLUS, 8, PARAMS, 1.0, bins=bins, value_range=value_range,
                reps=reps, seed=21, threads=threads,
            )
            width = (value_range[1] - value_range[0]) / bins
            assert self._estimates(got) == [k / reps / width for k in want]

    def test_mc_probability_below_one_chunk(self):
        event = lambda p, params: running_max(p, params) <= 0.0
        reps = 500
        rng = RngStream(22, 0).generator()
        sw = sampler.sample_switches_batch(3, 1.0, reps, rng)
        want = sampler.max_is_zero_batch(MINUS, sw, 1.0, 1.0).sum() / reps
        for threads in (1, 4):
            got = sampler.mc_probability(
                event, PARAMS, 1.0, reps, v0=MINUS, n=3, seed=22, threads=threads
            )
            assert got.estimate == want


def _chunk_layout(reps, seed, n, lam, coins=False):
    """The per-chunk layout spelled out, independent of ``_run_chunks``: chunk i draws
    from stream i its sign coins (where asked), without n its multinomial over the
    Poisson cells, then each nonempty count group whole.  Yields each chunk's coins (or
    None) and the sorted switch rows of its groups at t = 1."""
    lo, cells = sampler._poisson_cells(lam)
    for i, start in enumerate(range(0, reps, sampler.CHUNK)):
        rng = RngStream(seed, i).generator()
        size = min(sampler.CHUNK, reps - start)
        ups = (rng.random(size) < 0.5).tolist() if coins else None
        groups = ([(n, size)] if n is not None else
                  [(k, m) for k, m in enumerate(rng.multinomial(size, cells).tolist(), lo) if m])
        yield ups, [np.sort(rng.uniform(0.0, 1.0, (m, k)), axis=1) for k, m in groups]


class TestTasks:
    """A task of consecutive chunks is one source; the per-chunk layout is the oracle.

    The oracle tests shrink ``CHUNK`` to 2^9 and ``_BLOCK_VERTICES`` with it, so a task
    still holds at most 4 chunks and a count group still spans chunks and blocks, at a
    thirty-second of the rows.  Their reps are 1, CHUNK - 1, CHUNK + 1, 5*CHUNK + 3 and
    9*CHUNK of the shrunk chunk.
    """

    REPS = [(0, 1), (1, -1), (1, 1), (5, 3), (9, 0)]
    COUNTS = [(0, 1.0), (1, 1.0), (4, 1.0), (8, 1.0), (64, 1.0),
              (None, 0.5), (None, 5.0), (None, 300.0)]

    @pytest.fixture
    def helpers(self, monkeypatch):
        """The helper threads ``_run_chunks`` starts; each runs its worker at ``start``,
        on this thread, so no thread starts and the caller finds the queue empty."""
        started = []

        class SerialThread:  # stands in for threading.Thread
            def __init__(self, target):
                self.target = target

            def start(self):
                started.append(self)
                self.target()

            def join(self):
                return None

        monkeypatch.setattr(sampler, "Thread", SerialThread)
        return started

    @staticmethod
    def _cpus(monkeypatch, cpus):
        monkeypatch.setattr(sampler.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)

    @staticmethod
    def _shrink(monkeypatch, chunks, extra):
        monkeypatch.setattr(sampler, "CHUNK", 1 << 9)
        monkeypatch.setattr(sampler, "_BLOCK_VERTICES", 1 << 11)
        return chunks * sampler.CHUNK + extra

    # the workers, the caller and its helpers, are min(threads, tasks, CPUs)
    @pytest.mark.parametrize("threads, cpus, workers, tasks", [
        (5000, 3, 3, [4, 4, 2]),
        (5000, 64, 10, [1] * 10),
        (2, 8, 2, [4, 4, 2]),
        (8, 4, 4, [3, 3, 3, 1]),
        (3, 1, 1, [4, 4, 2]),
        (1, 8, 1, [4, 4, 2]),
    ])
    def test_workers_are_capped_at_tasks_and_cpus(self, monkeypatch, helpers, threads, cpus,
                                                  workers, tasks):
        self._cpus(monkeypatch, cpus)
        reps = 9 * sampler.CHUNK + 5
        got = sampler._run_chunks(lambda counts, rngs: counts, reps, 1, threads)
        assert len(helpers) == workers - 1
        assert [len(counts) for counts in got] == tasks
        assert [m for counts in got for m in counts] == [sampler.CHUNK] * 9 + [5]

    @pytest.mark.parametrize("cpu_count, workers", [(3, 3), (None, 1)])
    def test_cpu_count_where_affinity_is_unknown(self, monkeypatch, helpers, cpu_count,
                                                 workers):
        monkeypatch.delattr(sampler.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sampler.os, "cpu_count", lambda: cpu_count)
        got = sampler._run_chunks(lambda counts, rngs: counts, 9 * sampler.CHUNK + 5, 1, 5000)
        assert len(helpers) == workers - 1
        assert [m for counts in got for m in counts] == [sampler.CHUNK] * 9 + [5]

    def test_capped_workers_keep_the_estimate(self, monkeypatch, helpers):
        def estimates(threads):
            bins = sampler.mc_density_histogram(
                "return", MINUS, None, MotionParams(c=1.0, lam=5.0), 1.0, bins=20,
                value_range=(0.0, 1.0), reps=5 * sampler.CHUNK + 3, seed=63, threads=threads)
            return [b.report.estimate for b in bins]

        want = estimates(1)
        self._cpus(monkeypatch, 2)
        assert estimates(5000) == want
        assert len(helpers) == 1

    @staticmethod
    def _joining(thread) -> bool:
        """Whether ``thread`` waits in ``Thread.join``."""
        frame = sys._current_frames().get(thread.ident)
        while frame is not None and frame.f_code is not threading.Thread.join.__code__:
            frame = frame.f_back
        return frame is not None

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_failed_task_stops_later_tasks(self, monkeypatch, failing):
        # 20 chunks are 5 tasks of 4 chunks on 2 workers, the caller and one helper
        self._cpus(monkeypatch, 2)
        caller, before = threading.current_thread(), threading.enumerate()
        error = ValueError("helper task") if failing == "helper" else KeyboardInterrupt()
        started, workers = [], {}
        inside = {"caller": threading.Event(), "helper": threading.Event()}

        def work(counts, rngs):
            here = "caller" if threading.current_thread() is caller else "helper"
            other = "helper" if here == "caller" else "caller"
            started.append(here)
            workers[here] = threading.current_thread()
            inside[here].set()
            assert inside[other].wait(timeout=30), "the workers did not both start a task"
            if here == failing:
                raise error
            # hold this task until the failed worker has emptied the queue: a failed
            # helper then ends, and a failed caller then waits for its helper
            if failing == "helper":
                workers["helper"].join(timeout=30)
                assert not workers["helper"].is_alive()
            else:
                deadline = time.monotonic() + 30
                while not self._joining(caller) and time.monotonic() < deadline:
                    time.sleep(0.001)
                assert self._joining(caller)
            return counts

        with pytest.raises(type(error)) as raised:
            sampler._run_chunks(work, 20 * sampler.CHUNK, 1, 2)
        assert raised.value is error
        # each worker started one task; the other three never started
        assert sorted(started) == ["caller", "helper"]
        assert threading.enumerate() == before

    def test_each_task_runs_once_in_order_under_contention(self, monkeypatch):
        # 8 workers on 2 cores, switching threads every microsecond: 40 chunks are 10
        # tasks of 4, and a task taken twice or a result lost would show
        self._cpus(monkeypatch, 8)
        want = [tuple(range(start, start + 4)) for start in range(0, 40, 4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ran = []

                def work(counts, rngs):
                    task = tuple(rng.bit_generator.seed_seq.spawn_key[0] for rng in rngs)
                    ran.append(task)
                    return task

                assert sampler._run_chunks(work, 40 * sampler.CHUNK, 1, 8) == want
                assert sorted(ran) == want
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _histogram(functional, v0, n, lam, reps, seed):
        fn = dict(max=sampler.running_max_batch,
                  fpt=functools.partial(sampler.first_passage_batch, beta=0.3))[functional]
        total = np.zeros(16, dtype=np.int64)
        for _, groups in _chunk_layout(reps, seed, n, lam):
            for sw in groups:
                total += np.histogram(fn(v0, sw, 1.0, 1.0), bins=16, range=(-1.0, 1.0))[0]
        return (total / reps / (2.0 / 16)).tolist()

    @staticmethod
    def _estimates(functional, v0, n, lam, reps, seed, threads):
        bins = sampler.mc_density_histogram(
            functional, v0, n, MotionParams(c=1.0, lam=lam), 1.0, bins=16,
            value_range=(-1.0, 1.0), reps=reps, seed=seed, threads=threads,
            beta=0.3 if functional == "fpt" else None)
        return [b.report.estimate for b in bins]

    @pytest.mark.parametrize("chunks, extra", REPS)
    @pytest.mark.parametrize("v0", [PLUS, MINUS])
    @pytest.mark.parametrize("n, lam", COUNTS)
    def test_histogram_equals_per_chunk_layout(self, monkeypatch, n, lam, v0, chunks, extra):
        reps = self._shrink(monkeypatch, chunks, extra)
        # fpt for an upward start: NaN where the level is never reached
        functional = "fpt" if v0 is PLUS else "max"
        want = self._histogram(functional, v0, n, lam, reps, 64)
        # 8 usable CPUs, so each of the thread counts splits the chunks its own way
        self._cpus(monkeypatch, 8)
        for threads in (1, 2, 3, 8):
            assert self._estimates(functional, v0, n, lam, reps, 64, threads) == want, threads

    @pytest.mark.parametrize("n, lam", [(4, 1.0), (None, 5.0)])
    def test_histogram_equals_per_chunk_layout_in_small_blocks(self, monkeypatch, n, lam):
        # blocks of 7 * 10 vertices hold no chunk, so a task is one chunk
        reps = self._shrink(monkeypatch, 5, 3)
        want = self._histogram("max", MINUS, n, lam, reps, 65)
        monkeypatch.setattr(sampler, "_BLOCK_VERTICES", 7 * 10)
        for threads in (1, 3):
            assert self._estimates("max", MINUS, n, lam, reps, 65, threads) == want

    @pytest.mark.parametrize("chunks, extra", REPS)
    @pytest.mark.parametrize("v0", [PLUS, MINUS, "uniform"])
    @pytest.mark.parametrize("n, lam", COUNTS)
    def test_hits_equal_per_chunk_layout(self, monkeypatch, n, lam, v0, chunks, extra):
        reps = self._shrink(monkeypatch, chunks, extra)
        event = lambda p, params: (p.switch_times[-1:] > (0.5,)) == (p.v0 is PLUS)
        want = 0
        for ups, groups in _chunk_layout(reps, 66, n, lam, coins=v0 == "uniform"):
            signs = iter([PLUS if up else MINUS for up in ups] if ups else [v0] * reps)
            for sw in groups:
                want += sum(event(TelegraphPath(next(signs), 1.0, row), None)
                            for row in sw.tolist())
        # the events run on the calling thread whatever threads says
        got = sampler.mc_probability(event, MotionParams(c=1.0, lam=lam), 1.0, reps, v0=v0,
                                     n=n, seed=66, threads=3)
        assert got.estimate == want / reps


class TestFptLevel:
    @pytest.mark.parametrize("beta", [None, 0.0, -0.5])
    def test_fpt_histogram_needs_positive_level(self, beta):
        with pytest.raises(ValueError, match="beta > 0"):
            sampler.mc_density_histogram(
                "fpt", PLUS, None, PARAMS, 1.0, bins=4, value_range=(0.0, 1.0), reps=100,
                beta=beta,
            )
