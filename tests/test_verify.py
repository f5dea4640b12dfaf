import json
import math

import pytest

from telegraph import Conditioning, MotionParams, VelocitySign, laws, verify
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
            got = verify._gauss(lambda x: x**d, (a, b), nodes)
            want = (b ** (d + 1) - a ** (d + 1)) / (d + 1)
            assert got == pytest.approx(want, rel=rel, abs=0.0), d

    def test_pieces_add_up(self):
        f = lambda x: abs(x - 0.3) ** 3
        got = verify._gauss(f, (-1.0, 0.3, 2.0), 2)
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
        gauss = verify._gauss
        monkeypatch.setattr(
            verify, "_gauss", lambda f, pieces, nodes: gauss(f, pieces, 2 * nodes)
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
                ) + laws.max_atom_zero(Conditioning(v0, n)).value

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
                ) + laws.fpt_atom(Conditioning(v0, n), beta, t, MotionParams(c, 1.0)).value
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

    def test_mc_cross_suite_passes_at_reduced_size(self):
        results = verify.mc_cross_suite(reps=40000, seed=0)
        assert results
        assert all(r.passed for r in results)


class TestReporting:
    RESULTS = [
        CheckResult("alpha", True, 1.0, 1.0, 1e-9, "ok"),
        CheckResult("beta", False, 0.5, 1.0, 1e-9),
    ]

    def test_json_round_trip(self):
        rows = json.loads(verify.results_to_json(self.RESULTS))
        assert [row["name"] for row in rows] == ["alpha", "beta"]
        assert rows[1]["passed"] is False

    def test_nan_observation_fails(self):
        assert not CheckResult("gamma", True, math.nan, 0.0, math.inf).passed

    def test_table_mentions_every_check(self):
        table = verify.results_to_table(self.RESULTS)
        assert "alpha" in table
        assert "beta" in table
