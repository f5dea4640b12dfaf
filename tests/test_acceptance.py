"""End-to-end acceptance checks for the telegraph-process distribution library.

Each test class corresponds to one acceptance criterion: exact normalization
of every implemented law, the analytic and pathwise forms of the negative
reflection principle, the singular-mass identities, Monte Carlo agreement,
derivative and endpoint identities, the Brownian (Kac) limit, the return-time
dossier, and the discrete random-walk analogue.
"""

import math
import time

import numpy as np
import pytest

from telegraph import MotionParams, TelegraphPath, VelocitySign
from telegraph import laws, reflection, sampler, verify

PARAMS = MotionParams(c=1.0, lam=1.0)
PLUS = VelocitySign.PLUS
MINUS = VelocitySign.MINUS


def interior_grid(lo, hi, k):
    return np.linspace(lo, hi, k + 2)[1:-1]


class TestCriterion1Normalization:
    def test_all_laws_normalize_within_budget(self):
        start = time.perf_counter()
        results = verify.normalization_suite(n_max=8)
        elapsed = time.perf_counter() - start
        failed = [r.name for r in results if not r.passed]
        assert failed == []
        # position, max, joint, fpt for both signs and n = 1..8
        assert len(results) == 4 * 8 * 2
        assert elapsed < 30.0


class TestCriterion2AnalyticReflection:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_pointwise_identity_on_grid(self, n):
        t = c = 1.0
        worst = 0.0
        for beta in interior_grid(0.0, c * t, 20):
            for x in interior_grid(2.0 * beta - c * t, beta, 20):
                lhs = laws.position_pdf(+1, n, x, t, c) - laws.joint_cdf_in_max_pdf(
                    PLUS, n, beta, x, t, c
                )
                rhs = laws.position_pdf(-1, n, 2.0 * beta - x, t, c)
                worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-12


class TestCriterion3PathwiseReflection:
    REPS = 100_000

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bijection_on_sampled_paths(self, n):
        t, c, beta = 1.0, 1.0, 0.25
        rng = sampler.RngStream(1234, stream_id=n).generator()
        switches = sampler.sample_switches_batch(n, t, self.REPS, rng)
        t1, t2, h, l, ok = reflection.crossings_batch(switches, t, c, beta)
        sub = switches[ok]
        assert sub.shape[0] > 1000  # the admissible event has real probability

        images = reflection.reflect_batch(sub, t1[ok], t2[ok])

        # 100% of images carry the reflected endpoint (membership in the
        # negative-start target set)
        x_plus = sampler.position_batch(PLUS, sub, t, c)
        x_minus = sampler.position_batch(MINUS, images, t, c)
        assert np.max(np.abs(x_minus - (2.0 * beta - x_plus))) <= 1e-12

        # spot-check full membership through the scalar predicate
        for row_in, row_out in zip(sub[:200], images[:200]):
            ctx = reflection.ReflectionContext(
                beta=beta,
                x=float(sampler.position_batch(PLUS, row_in[None, :], t, c)[0]),
                params=MotionParams(c, 1.0),
                horizon=t,
            )
            assert reflection.in_P_minus(TelegraphPath(MINUS, t, tuple(row_out)), ctx)

        # round trip within 1e-12
        u1, u2, j1, j2, ok_inv = reflection.zero_return_crossings_batch(
            images, t, c, beta
        )
        assert ok_inv.all()
        back = reflection.reflect_inverse_batch(images, u1, u2)
        assert np.max(np.abs(back - sub)) <= 1e-12

        # injectivity: no two admissible inputs share an image
        assert np.unique(np.round(images, 12), axis=0).shape[0] == images.shape[0]

        # crossing pairs map through the index automorphism in 100% of cases
        assert np.array_equal(j1, l[ok] - h[ok] + 1)
        assert np.array_equal(j2, l[ok])


class TestCriterion4CyclicMasses:
    ANALYTIC = {k: math.comb(2 * k, k) / 4.0**k for k in range(1, 6)}

    def test_analytic_values(self):
        assert [self.ANALYTIC[k] for k in range(1, 6)] == pytest.approx(
            [0.5, 0.375, 0.3125, 0.2734375, 0.24609375]
        )
        for k in range(1, 6):
            for n in (2 * k - 1, 2 * k):
                got = laws.max_atom_zero(MINUS, n)
                assert got == self.ANALYTIC[k]

    @pytest.mark.parametrize("k", range(1, 6))
    def test_monte_carlo_within_three_sigma(self, k):
        reps = 1_000_000
        for n in (2 * k - 1, 2 * k):
            rng = sampler.RngStream(177, stream_id=10 * k + n).generator()
            switches = sampler.sample_switches_batch(n, 1.0, reps, rng)
            hits = sampler.max_is_zero_batch(MINUS, switches, 1.0, 1.0)
            p = self.ANALYTIC[k]
            se = math.sqrt(p * (1.0 - p) / reps)
            assert abs(hits.mean() - p) <= 3.0 * se

    def test_exact_invariance_in_speed_and_horizon(self):
        rng = sampler.RngStream(5).generator()
        fractions = np.sort(rng.uniform(size=(50_000, 3)), axis=1)
        outcomes = []
        for c, t in ((1.0, 1.0), (3.0, 0.2), (0.5, 10.0)):
            outcomes.append(sampler.max_is_zero_batch(MINUS, fractions * t, t, c))
        assert np.array_equal(outcomes[0], outcomes[1])
        assert np.array_equal(outcomes[0], outcomes[2])
        for n in (1, 2, 3, 4):
            values = {
                laws.max_atom_zero(MINUS, n)
                for _ in ((1.0, 1.0), (3.0, 0.2), (0.5, 10.0))
            }
            assert len(values) == 1


class TestCriterion5OccupationAtom:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_integrated_atom_mass(self, k):
        n = 2 * k
        mass = verify.quadrature(
            lambda b: laws.joint_atom_max_equals_position_pdf(PLUS, n, b, 1.0, 1.0),
            0.0,
            1.0,
            abs_tol=1e-12,
        )
        assert mass == pytest.approx(math.comb(2 * k, k) / 4.0**k, abs=1e-10)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_monte_carlo_cross_check(self, k):
        n = 2 * k
        reps = 1_000_000
        rng = sampler.RngStream(88, stream_id=k).generator()
        switches = sampler.sample_switches_batch(n, 1.0, reps, rng)
        hits = sampler.max_equals_position_batch(PLUS, switches, 1.0, 1.0)
        p = math.comb(2 * k, k) / 4.0**k
        se = math.sqrt(p * (1.0 - p) / reps)
        assert abs(hits.mean() - p) <= 3.0 * se


def assert_band_rule(z_scores):
    z = np.abs(np.asarray(z_scores, dtype=float))
    assert z.max() <= 4.0
    assert int(((z > 3.0) & (z <= 4.0)).sum()) <= 2


class TestCriterion6MonteCarloDensities:
    REPS = 1_000_000
    BINS = 20

    def run_histogram(self, functional, v0, n, value_range, seed, beta=None, mass=None):
        bins = sampler.mc_density_histogram(
            functional,
            v0,
            n,
            PARAMS,
            1.0,
            bins=self.BINS,
            value_range=value_range,
            reps=self.REPS,
            seed=seed,
            beta=beta,
            mass=mass,
        )
        assert_band_rule([b.report.z_score for b in bins])

    def test_position_upward_two_switches(self):
        self.run_histogram(
            "position", PLUS, 2, (-1.0, 1.0), seed=101,
            mass=laws.resolve("position", "+", 2, 1.0, 1.0, 1.0).mass,
        )

    def test_position_downward_five_switches(self):
        self.run_histogram(
            "position", MINUS, 5, (-1.0, 1.0), seed=102,
            mass=laws.resolve("position", "-", 5, 1.0, 1.0, 1.0).mass,
        )

    def test_max_downward_three_switches(self):
        # the law has an atom at 0; the histogram covers the density part
        self.run_histogram(
            "max", MINUS, 3, (1e-9, 1.0), seed=103,
            mass=laws.resolve("max", "-", 3, 1.0, 1.0, 1.0).mass,
        )

    def test_joint_marginal_above_level(self):
        # endpoint histogram restricted to paths whose maximum exceeds beta,
        # compared with the analytic excess density
        n, beta, t, c = 3, 0.25, 1.0, 1.0
        rng = sampler.RngStream(104).generator()
        switches = sampler.sample_switches_batch(n, t, self.REPS, rng)
        above = sampler.running_max_batch(PLUS, switches, t, c) > beta
        x = sampler.position_batch(PLUS, switches, t, c)[above]
        lo, hi = 2.0 * beta - c * t + 1e-9, beta
        edges = np.linspace(lo, hi, self.BINS + 1)
        counts, _ = np.histogram(x, bins=edges)
        width = edges[1] - edges[0]
        z_scores = []
        for i in range(self.BINS):
            p_hat = counts[i] / self.REPS
            se = math.sqrt(max(p_hat, 1.0 / self.REPS) * (1.0 - p_hat) / self.REPS)
            grid = np.linspace(edges[i], edges[i + 1], 9)[1:-1]
            target = float(
                np.mean(
                    [
                        laws.position_pdf(+1, n, g, t, c)
                        - laws.joint_cdf_in_max_pdf(PLUS, n, beta, g, t, c)
                        for g in grid
                    ]
                )
            )
            z_scores.append((p_hat / width - target) / (se / width))
        assert_band_rule(z_scores)

    def test_fpt_upward_four_switches(self):
        # the direct-flight atom sits at beta/c; start the range just above it
        beta = 0.5
        self.run_histogram(
            "fpt", PLUS, 4, (beta + 1e-6, 1.0), seed=105, beta=beta,
            mass=laws.resolve("fpt", "+", 4, 1.0, 1.0, 1.0, beta=beta).mass,
        )

    def test_corrected_return_three_switches(self):
        self.run_histogram(
            "return", MINUS, 3, (1e-9, 1.0), seed=106,
            mass=laws.resolve("return", "-", 3, 1.0, 1.0, 1.0).mass,
        )


class TestCriterion7DerivativeIdentity:
    @pytest.mark.parametrize("v0", [PLUS, MINUS])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_cdf_time_derivative(self, v0, n):
        t = c = 1.0
        h = 1e-5 * t
        for beta in interior_grid(0.0, c * t * (1.0 - 2.0 * h / t), 9):
            fd = -(
                laws.max_cdf_value(v0, n, beta, t + h, c)
                - laws.max_cdf_value(v0, n, beta, t - h, c)
            ) / (2.0 * h)
            ref = beta / t * laws.max_pdf(v0, n, beta, t, c)
            assert fd == pytest.approx(ref, rel=1e-5, abs=1e-5)


class TestCriterion8FptEndpointIdentity:
    @pytest.mark.parametrize("ratio", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_even_counts_match_closed_form(self, n, ratio):
        t = c = 1.0
        beta = ratio * c * t
        got = laws.fpt_pdf(PLUS, n, beta, t, t, c)
        line = c * laws.joint_atom_max_equals_position_pdf(PLUS, n, beta, t, c)
        assert abs(got - line) <= 1e-12
        assert abs(got - beta / t * laws.max_pdf(PLUS, n, beta, t, c)) <= 1e-12
        got_minus = laws.fpt_pdf(MINUS, n, beta, t, t, c)
        line_minus = c * laws.joint_atom_max_equals_position_pdf(MINUS, n, beta, t, c)
        assert abs(got_minus - line_minus) <= 1e-12


class TestCriterion9KacLimit:
    def test_brownian_limit_within_budget(self):
        start = time.perf_counter()
        results = verify.kac_limit_check(
            beta=1.0, t_values=(0.5, 1.0, 2.0), c_values=(20.0, 50.0)
        )
        elapsed = time.perf_counter() - start
        assert results
        assert all(r.passed for r in results)
        assert elapsed < 5.0


class TestCriterion10ReturnDossier:
    def test_dossier_suite(self):
        results = verify.return_printed_suite()
        by_name = {r.name: r for r in results}
        assert by_name["return-corrected-n=2-oracle"].passed
        assert by_name["return-corrected-n=1-constant"].passed
        assert by_name["return-corrected-minus-printed-term"].passed
        pinned = by_name["return-printed-n=2-is-zero"]
        assert pinned.passed
        assert "known-discrepancy" in pinned.detail

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_corrected_density_matches_monte_carlo(self, n):
        reps = 200_000
        rng = sampler.RngStream(99, stream_id=n).generator()
        switches = sampler.sample_switches_batch(n, 1.0, reps, rng)
        returns = sampler.first_return_batch(MINUS, switches, 1.0, 1.0)
        returns = returns[~np.isnan(returns)]
        lo, hi = 0.2, 0.8
        p_hat = ((returns >= lo) & (returns < hi)).sum() / reps
        target = verify.quadrature(
            lambda s: laws.return_pdf_corrected(n, s, 1.0), lo, hi, abs_tol=1e-10
        )
        se = math.sqrt(target * (1.0 - target) / reps)
        assert abs(p_hat - target) <= 3.0 * se

    def test_unconditional_density_matches_truncated_oracle(self):
        # the window (0, 200/lam) captures all but the t^(-3/2) tail; the
        # density itself is validated against the high-precision value of
        # the truncated integral
        mpmath = pytest.importorskip("mpmath")
        total = 0.0
        for a, b in ((1e-12, 1.0), (1.0, 10.0), (10.0, 50.0), (50.0, 200.0)):
            total += verify.quadrature(
                lambda t: laws.return_pdf_unconditional(t, PARAMS), a, b, abs_tol=1e-9
            )
        oracle = float(
            mpmath.quad(lambda u: mpmath.besseli(1, u) * mpmath.exp(-u) / u, [0, 1, 10, 50, 200])
        )
        assert total == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.xfail(
        strict=True,
        reason="the return law has a t^(-3/2) tail, so the finite window "
        "(0, 200/lam) misses ~0.056 of the mass; unit total is unattainable",
    )
    def test_unconditional_density_integrates_to_one_on_finite_window(self):
        total = 0.0
        for a, b in ((1e-12, 1.0), (1.0, 10.0), (10.0, 50.0), (50.0, 200.0)):
            total += verify.quadrature(
                lambda t: laws.return_pdf_unconditional(t, PARAMS), a, b, abs_tol=1e-9
            )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestCriterion11RandomWalk:
    def test_exact_counts_within_budget(self):
        start = time.perf_counter()
        results = verify.random_walk_enumeration(n_max=14)
        elapsed = time.perf_counter() - start
        assert results
        assert all(r.passed for r in results)
        assert elapsed < 10.0
