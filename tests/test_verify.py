import json
import math
import time

import numpy as np
import pytest

from telegraph import MotionParams, RngStream, TelegraphPath, VelocitySign
from telegraph import laws, sampler, verify
from telegraph.path import running_max, running_min
from telegraph.verify import CheckResult, QuadratureError, quadrature

PLUS = VelocitySign.PLUS
MINUS = VelocitySign.MINUS


class TestQuadrature:
    def test_polynomial_is_near_exact(self):
        got = quadrature(lambda x: 3.0 * x * x, 0.0, 2.0)
        assert got == pytest.approx(8.0, abs=1e-12)

    def test_sine_over_half_period(self):
        assert quadrature(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)

    def test_declared_edges_help_kinked_integrands(self):
        f = lambda x: abs(x - 0.3)
        got = quadrature(f, 0.0, 1.0, abs_tol=1e-12, edges=(0.3,))
        assert got == pytest.approx(0.3**2 / 2 + 0.7**2 / 2, abs=1e-10)

    def test_non_convergence_raises_with_partial_value(self):
        jump = lambda x: 0.0 if x < 1.0 / 3.0 else 1.0
        with pytest.raises(QuadratureError) as err:
            quadrature(jump, 0.0, 1.0, abs_tol=1e-14)
        assert isinstance(err.value.partial, float)

    def test_reversed_interval_is_rejected(self):
        with pytest.raises(ValueError):
            quadrature(math.sin, 1.0, 0.0)


class TestGaussRule:
    # x**d turns a node's rounding error e into a relative error d*e, so the
    # 34 nodes the default audit reaches at n = 64 are exact only to ~5e-14
    @pytest.mark.parametrize(
        "nodes,rel", [(1, 1e-14), (2, 1e-14), (3, 1e-14), (5, 1e-14), (17, 1e-14), (34, 2e-13)]
    )
    def test_exact_for_degree_up_to_2m_minus_1(self, nodes, rel):
        a, b = 0.3, 1.7
        for d in range(2 * nodes):
            got = laws._gauss(lambda x: x**d, (a, b), nodes)
            want = (b ** (d + 1) - a ** (d + 1)) / (d + 1)
            assert got == pytest.approx(want, rel=rel, abs=0.0), d

    def test_pieces_add_up(self):
        f = lambda x: abs(x - 0.3) ** 3
        got = laws._gauss(f, (-1.0, 0.3, 2.0), 2)
        assert got == pytest.approx((1.3**4 + 1.7**4) / 4, rel=1e-14)


@pytest.fixture(scope="module")
def normalization_64():
    return verify.normalization_suite()


class TestNormalizationSuite:
    def test_default_runs_n_max_64_and_passes(self, normalization_64):
        assert len(normalization_64) == 4 * 64 * 2
        assert [r.name for r in normalization_64 if not r.passed] == []

    def test_doubling_the_nodes_changes_no_total(self, normalization_64, monkeypatch):
        # the rule is exact already, so twice the nodes agree up to rounding
        gauss = laws._gauss
        monkeypatch.setattr(
            laws, "_gauss", lambda f, pieces, nodes: gauss(f, pieces, 2 * nodes)
        )
        doubled = verify.normalization_suite()
        assert [r.name for r in doubled] == [r.name for r in normalization_64]
        worst = max(abs(a.observed - b.observed) for a, b in zip(doubled, normalization_64))
        assert worst <= 1e-13

    def test_totals_match_adaptive_simpson(self):
        # independent nested Simpson totals, at the tolerances the audit used
        # before it moved to Gauss-Legendre rules
        t = c = ct = 1.0
        want = {}
        for v0 in (PLUS, MINUS):
            sgn = v0.value_sign
            for n in range(1, 9):
                want[f"position-total-{v0.value}-n={n}"] = quadrature(
                    lambda x: laws.position_pdf(sgn, n, x, t, c), -ct, ct, 1e-12, edges=(0.0,)
                )
                want[f"max-total-{v0.value}-n={n}"] = quadrature(
                    lambda b: laws.max_pdf(v0, n, b, t, c), 0.0, ct, 1e-12
                ) + laws.max_atom_zero(v0, n)

                def inner(b):
                    if not 2.0 * b - ct < b:
                        return 0.0
                    return quadrature(
                        lambda x: laws.joint_pdf(v0, n, b, x, t, c), 2.0 * b - ct, b, 1e-12
                    )

                def lines(b):
                    return laws.joint_atom_max_equals_position_pdf(
                        v0, n, b, t, c
                    ) + laws.joint_atom_diagonal_pdf(v0, n, b, t, c)

                want[f"joint-total-{v0.value}-n={n}"] = (
                    quadrature(inner, 0.0, ct, 3e-10)
                    + quadrature(lines, 0.0, ct, 1e-12)
                    + quadrature(
                        lambda x: laws.joint_atom_max_zero_pdf(v0, n, x, t, c), -ct, 0.0, 1e-12
                    )
                )
                beta = 0.4 * ct
                want[f"fpt-vs-max-cdf-{v0.value}-n={n}"] = quadrature(
                    lambda s: laws.fpt_pdf(v0, n, beta, s, t, c), beta / c, t, 1e-12
                ) + laws.fpt_atom(v0, n, beta, t, c)
        got = {r.name: r.observed for r in verify.normalization_suite(n_max=8)}
        assert got.keys() == want.keys()
        worst = max(abs(got[k] - want[k]) for k in want)
        assert worst <= 1e-12


class TestSuites:
    def test_identity_suite_passes(self):
        results = verify.run_identity_suite(n_max=4, grid_points=8)
        assert results
        assert all(r.passed for r in results)

    def test_normalization_suite_passes(self):
        results = verify.normalization_suite(n_max=4)
        assert len(results) == 4 * 4 * 2
        assert all(r.passed for r in results)

    def test_return_dossier_pins_known_discrepancy(self):
        results = verify.return_printed_suite()
        by_name = {r.name: r for r in results}
        pinned = by_name["return-printed-n=2-is-zero"]
        assert pinned.passed
        assert "known-discrepancy" in pinned.detail
        assert by_name["return-corrected-n=2-oracle"].passed

    def test_random_walk_enumeration_is_exact(self):
        results = verify.random_walk_enumeration(n_max=8)
        assert results
        assert all(r.passed for r in results)

    def test_kac_rejects_what_it_cannot_compare(self):
        with pytest.raises(ValueError, match="two c values"):
            verify.kac_limit_check(c_values=(50.0,))
        with pytest.raises(ValueError, match="got 1 distinct"):
            verify.kac_limit_check(c_values=(5.0, 5.0))
        with pytest.raises(ValueError, match="t must be > 0"):
            verify.kac_limit_check(t_values=(1.0, 0.0))
        with pytest.raises(ValueError, match="switching rate"):
            verify.kac_limit_check(c_values=(20.0, 1e300))

    def test_kac_errors_at_rounding_need_not_shrink(self):
        # at these horizons both densities match the Brownian one to rounding;
        # at t = 1e30 the error is 0 at c = 20 and 1.9e-16 at c = 50
        results = verify.kac_limit_check(t_values=(1e30, 1e100))
        assert [r.passed for r in results] == [True] * 4
        grows = results[1]
        assert grows.expected < grows.observed <= verify._KAC_FLOOR

    def test_kac_errors_that_grow_fail(self, monkeypatch):
        # relative errors 0.03 at c = 20 and 0.04 at c = 50
        brown = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
        monkeypatch.setattr(verify.laws, "fpt_pdf_unconditional", lambda v0, beta, t, params:
                            brown * (1.0 + {20.0: 0.03, 50.0: 0.04}[params.c]))
        results = verify.kac_limit_check(t_values=(1.0,))
        assert [r.passed for r in results] == [True, False]
        assert results[1].observed == pytest.approx(0.04)

    def test_mc_cross_suite_passes_at_reduced_size(self):
        results = verify.mc_cross_suite(reps=40000, seed=0)
        assert results
        assert all(r.passed for r in results)

    def test_mc_cross_masses_equal_the_singular_event_kernels(self):
        # one pass of the downward start gives both events of each count
        reps = 30000
        results = verify.mc_cross_suite(reps=reps, seed=0)
        rng = RngStream(0, 901).generator()
        want = []
        for n in range(1, 7):
            sw = sampler.sample_switches_batch(n, 1.0, reps, rng)
            v0 = VelocitySign.PLUS if n % 2 == 0 else VelocitySign.MINUS
            want += [
                (f"mc-max-zero-mass-n={n}",
                 float(sampler.max_is_zero_batch(VelocitySign.MINUS, sw, 1.0, 1.0).mean())),
                (f"mc-max-equals-position-mass-{v0.value}-n={n}",
                 float(sampler.max_equals_position_batch(v0, sw, 1.0, 1.0).mean())),
            ]
        assert [(r.name, r.observed) for r in results] == want

    def test_sign_flip_extrema_equal_the_path_functionals(self, monkeypatch):
        # every maximum and minimum the suite takes in batch is the scalar one
        seen, reduce_vertices = [], verify.reduce_vertices

        def recording(reduce, v0, switches, t, c):
            out = reduce_vertices(reduce, v0, switches, t, c)
            seen.append((v0, switches, out))
            return out

        monkeypatch.setattr(verify, "reduce_vertices", recording)
        result = [r for r in verify.run_identity_suite(n_max=5, grid_points=4)
                  if r.name == "min-max-sign-flip"]
        assert len(result) == 1 and result[0].passed
        assert len(seen) == 2 * 6
        params = MotionParams(1.0, 1.0)
        for v0, switches, (highs, lows) in seen:
            assert switches.shape == (50, switches.shape[1])
            paths = [TelegraphPath(v0, 1.0, tuple(row)) for row in switches.tolist()]
            assert highs.tolist() == [running_max(p, params) for p in paths]
            assert lows.tolist() == [running_min(p, params) for p in paths]


def _walks(n, first_step):
    """All 2**(n-1) simple-walk paths of n steps with the first step fixed, as
    the (2**(n-1), n+1) array of partial sums from 0: the brute-force oracle
    of the walk counts."""
    m = 1 << (n - 1)
    tail = ((np.arange(m)[:, None] >> np.arange(n - 1)) & 1) * 2 - 1
    steps = np.concatenate([np.full((m, 1), first_step), tail], axis=1)
    walks = np.zeros((m, n + 1), dtype=np.int64)
    np.cumsum(steps, axis=1, out=walks[:, 1:])
    return walks


class TestWalkCounts:
    def test_dynamic_program_counts_every_walk(self):
        lengths = []
        for n, up, down in verify._walk_counts(12):
            walks = _walks(n, 1)
            table = np.bincount((walks[:, -1] + n) * (n + 1) + walks.max(axis=1),
                                minlength=(2 * n + 1) * (n + 1)).reshape(2 * n + 1, n + 1)
            assert up.tolist() == table.tolist()
            assert down.tolist() == np.bincount(_walks(n, -1)[:, -1] + n,
                                                minlength=2 * n + 1).tolist()
            lengths.append(n)
        assert lengths == list(range(1, 13))

    def test_counts_are_exact_past_int64(self):
        *_, (n, up, down) = verify._walk_counts(70)
        assert sum(up.ravel()) == sum(down) == 2 ** (n - 1)
        assert all(type(v) is int for v in [*up.ravel(), *down])

    def test_suite_passes_to_n_100_within_a_second(self):
        start = time.perf_counter()
        results = verify.random_walk_enumeration(100)
        elapsed = time.perf_counter() - start
        assert [r.name for r in results] == [f"random-walk-counts-n={n}" for n in range(2, 101)]
        assert all(r.passed for r in results)
        assert elapsed < 1.0

    def test_a_wrong_count_fails_at_its_first_largest_gap(self, monkeypatch):
        walk_counts = verify._walk_counts

        def one_more_down_walk_to_zero(n_max):
            for n, up, down in walk_counts(n_max):
                down = down.copy()
                down[n] += 1
                yield n, up, down

        monkeypatch.setattr(verify, "_walk_counts", one_more_down_walk_to_zero)
        results = verify.random_walk_enumeration(3)
        assert [(r.passed, r.observed, r.detail) for r in results] == [
            (False, 1.0, "beta=0, x=0: 1 vs 2"), (False, 1.0, "beta=0, x=0: 0 vs 1")]


class TestReporting:
    RESULTS = [
        CheckResult("alpha", True, 1.0, 1.0, 1e-9, "ok"),
        CheckResult("beta", False, 0.5, 1.0, 1e-9),
    ]

    def test_json_round_trip(self):
        rows = json.loads(verify.results_to_json(self.RESULTS))
        assert [row["name"] for row in rows] == ["alpha", "beta"]
        assert rows[1]["passed"] is False

    def test_values_are_plain_python(self):
        result = CheckResult("delta", np.bool_(True), np.float64(0.5), np.int64(1), 1)
        assert [type(v) for v in (result.passed, result.observed, result.expected,
                                  result.tolerance)] == [bool, float, float, float]

    def test_nan_observation_fails(self):
        assert not CheckResult("gamma", True, math.nan, 0.0, math.inf).passed

    def test_table_mentions_every_check(self):
        table = verify.results_to_table(self.RESULTS)
        assert "alpha" in table
        assert "beta" in table
