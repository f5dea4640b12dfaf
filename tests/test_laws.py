import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from telegraph import Conditioning, MotionParams, VelocitySign, quadrature
from telegraph import laws

PARAMS = MotionParams(c=1.0, lam=1.0)
PLUS = VelocitySign.PLUS
MINUS = VelocitySign.MINUS


def _fraction_coef(num, den):
    # exact rational reference for laws._coef
    if any(m < 0 for m in den):
        return 0.0
    f = Fraction(1)
    for m in num:
        f *= math.factorial(m)
    for m in den:
        f /= math.factorial(m)
    return float(f)


def _coef_args(values):
    # the argument shapes the laws request: (a,)/(b, c), ()/(a, b, c), (a,)/()
    for a, b, c in itertools.product(values, repeat=3):
        yield (a,), (b, c)
        yield (), (a, b, c)
    for a in values:
        yield (a,), ()


class TestCoefficients:
    def test_exact_range_matches_fraction_reference_to_the_bit(self):
        for num, den in _coef_args(range(31)):
            assert laws._coef(num, den).hex() == _fraction_coef(num, den).hex(), (num, den)

    def test_log_space_range_matches_fraction_reference(self):
        values = sorted({*range(0, 61, 3), 31})
        for num, den in _coef_args(values):
            if max(num + den) <= 30:
                continue
            assert laws._coef(num, den) == pytest.approx(
                _fraction_coef(num, den), rel=1e-12, abs=0.0
            ), (num, den)

    def test_negative_denominator_argument_gives_zero(self):
        assert laws._coef((3,), (1, -1)) == 0.0
        assert laws._coef((), (-2,)) == 0.0
        assert laws._coef((100,), (40, -1)) == 0.0

    def test_negative_numerator_argument_raises(self):
        for _ in range(2):  # a raised error is not cached
            with pytest.raises(ValueError):
                laws._coef((-1,), (2,))


class TestPositionLaw:
    def test_single_switch_is_uniform(self):
        for x in (-0.9, -0.2, 0.0, 0.4, 0.99):
            assert laws.position_pdf(+1, 1, x, 1.0, 1.0) == pytest.approx(0.5)
            assert laws.position_pdf(-1, 1, x, 1.0, 1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_velocity_mirror_symmetry(self, n):
        for x in (-0.7, -0.1, 0.3, 0.8):
            assert laws.position_pdf(+1, n, x, 1.0, 1.0) == pytest.approx(
                laws.position_pdf(-1, n, -x, 1.0, 1.0), abs=1e-14
            )

    @pytest.mark.parametrize("sign,n", [(+1, 1), (-1, 2), (+1, 3), (-1, 4), (+1, 6)])
    def test_normalizes_to_one(self, sign, n):
        total = quadrature(
            lambda x: laws.position_pdf(sign, n, x, 1.0, 1.0), -1.0, 1.0, abs_tol=1e-11
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_unsigned_is_average_of_signed(self):
        for n in (1, 2, 3):
            for x in (-0.5, 0.2):
                avg = 0.5 * (
                    laws.position_pdf(+1, n, x, 1.0, 1.0)
                    + laws.position_pdf(-1, n, x, 1.0, 1.0)
                )
                assert laws.position_pdf_unsigned(n, x, 1.0, 1.0) == pytest.approx(avg)

    def test_outside_light_cone_is_zero(self):
        assert laws.position_pdf(+1, 2, 1.5, 1.0, 1.0) == 0.0
        assert laws.position_pdf(+1, 2, -1.5, 1.0, 1.0) == 0.0

    def test_boundary_uses_inside_limit(self):
        # even-count densities are discontinuous at the cone edge; the closed
        # convention returns the inside limit so quadrature endpoints are usable
        inside = laws.position_pdf(+1, 2, 1.0 - 1e-12, 1.0, 1.0)
        assert laws.position_pdf(+1, 2, 1.0, 1.0, 1.0) == pytest.approx(inside, rel=1e-9)

    def test_wrapper_reports_density_kind(self):
        out = laws.position_density(Conditioning(PLUS, 2), 0.2, 1.0, PARAMS)
        assert out.kind == "density"
        assert out.value == pytest.approx(laws.position_pdf(+1, 2, 0.2, 1.0, 1.0))


class TestMaxLaw:
    def test_two_switch_minus_value(self):
        # frozen value cross-checked by simulation and normalization
        assert laws.max_pdf(MINUS, 2, 0.5, 1.0, 1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "v0,n", [(PLUS, 1), (PLUS, 2), (MINUS, 1), (MINUS, 2), (PLUS, 5), (MINUS, 4)]
    )
    def test_density_plus_atom_normalizes(self, v0, n):
        mass = quadrature(
            lambda b: laws.max_pdf(v0, n, b, 1.0, 1.0), 0.0, 1.0, abs_tol=1e-11
        )
        atom = laws.max_atom_zero(Conditioning(v0, n)).value
        assert mass + atom == pytest.approx(1.0, abs=1e-9)

    def test_never_crossing_atom_is_cyclic(self):
        # P{M = 0} for a downward start depends only on ceil(n/2)
        values = [laws.max_atom_zero(Conditioning(MINUS, n)).value for n in range(1, 7)]
        assert values == pytest.approx([0.5, 0.5, 0.375, 0.375, 0.3125, 0.3125])

    def test_upward_start_has_no_zero_atom(self):
        for n in range(1, 5):
            assert laws.max_atom_zero(Conditioning(PLUS, n)).value == 0.0

    @pytest.mark.parametrize("v0,n", [(PLUS, 2), (MINUS, 3)])
    def test_cdf_matches_integrated_density(self, v0, n):
        beta = 0.6
        mass = quadrature(
            lambda b: laws.max_pdf(v0, n, b, 1.0, 1.0), 0.0, beta, abs_tol=1e-11
        )
        atom = laws.max_atom_zero(Conditioning(v0, n)).value
        assert laws.max_cdf_value(v0, n, beta, 1.0, 1.0) == pytest.approx(
            atom + mass, abs=1e-9
        )

    def test_cdf_is_monotone_and_reaches_one(self):
        grid = [0.1 * k for k in range(11)]
        vals = [laws.max_cdf_value(PLUS, 3, b, 1.0, 1.0) for b in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_scaling_in_speed_and_time(self):
        # beta/ct is the only shape variable: densities scale by 1/(ct)
        a = laws.max_pdf(MINUS, 2, 0.5, 1.0, 1.0)
        b = laws.max_pdf(MINUS, 2, 0.5 * 3.0 * 0.2, 0.2, 3.0)
        assert b == pytest.approx(a / (3.0 * 0.2))


class TestJointLaw:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_negative_reflection_pointwise(self, n):
        # P{M > beta, T in dx} for an upward start equals the mirrored
        # endpoint density for a downward start
        t = c = 1.0
        for beta in (0.15, 0.4, 0.7):
            for x in (beta - 0.05, beta - 0.3, 2 * beta - 0.95):
                if not (2 * beta - c * t + 1e-9 < x <= beta):
                    continue
                lhs = laws.position_pdf(+1, n, x, t, c) - laws.joint_cdf_in_max_pdf(
                    PLUS, n, beta, x, t, c
                )
                rhs = laws.position_pdf(-1, n, 2 * beta - x, t, c)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("v0,n", [(PLUS, 2), (PLUS, 3), (MINUS, 2), (MINUS, 3)])
    def test_all_components_sum_to_one(self, v0, n):
        t = c = 1.0

        def outer(beta):
            lo = 2 * beta - c * t
            if beta - lo <= 0:
                return 0.0
            return quadrature(
                lambda x: laws.joint_pdf(v0, n, beta, x, t, c), lo, beta, abs_tol=1e-12
            )

        total = quadrature(outer, 0.0, c * t, abs_tol=3e-10)
        total += quadrature(
            lambda b: laws.joint_atom_max_equals_position_pdf(v0, n, b, t, c),
            0.0,
            c * t,
            abs_tol=1e-12,
        )
        if v0 is MINUS:
            total += quadrature(
                lambda x: laws.joint_atom_max_zero_pdf(v0, n, x, t, c),
                -c * t,
                0.0,
                abs_tol=1e-12,
            )
        if v0 is PLUS and n == 1:
            total += quadrature(
                lambda b: laws.joint_atom_diagonal_pdf(v0, n, b, t, c),
                0.0,
                c * t,
                abs_tol=1e-12,
            )
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_occupation_atom_mass_is_cyclic(self):
        # integral over beta of the {max == endpoint} atom equals the
        # never-crossing mass of the mirrored start
        for n in (2, 4):
            mass = quadrature(
                lambda b: laws.joint_atom_max_equals_position_pdf(PLUS, n, b, 1.0, 1.0),
                0.0,
                1.0,
                abs_tol=1e-11,
            )
            assert mass == pytest.approx(
                laws.max_atom_zero(Conditioning(MINUS, n)).value, abs=1e-9
            )

    def test_single_switch_diagonal_density(self):
        # upward start, one switch: max == (t + endpoint/c)/2 deterministic line
        assert laws.joint_atom_diagonal_pdf(PLUS, 1, 0.3, 1.0, 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("v0", [PLUS, MINUS])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_tail_in_position_derivative_is_joint_density(self, v0, n):
        # d/dx P{M in dbeta, T < x} = joint density at (beta, x)
        t = c = 1.0
        h = 1e-5
        worst = 0.0
        for beta in np.linspace(0.0, c * t, 12)[1:-1]:
            for x in np.linspace(2 * beta - c * t, beta, 12)[1:-1]:
                slope = (
                    laws.joint_tail_in_position_pdf(v0, n, beta, x + h, t, c)
                    - laws.joint_tail_in_position_pdf(v0, n, beta, x - h, t, c)
                ) / (2 * h)
                worst = max(worst, abs(slope - laws.joint_pdf(v0, n, beta, x, t, c)))
        assert worst <= 1e-7

    def test_joint_cdf_wrapper_matches_pdf_integral(self):
        beta, t, c = 0.5, 1.0, 1.0
        got = laws.joint_cdf_in_max_pdf(PLUS, 3, beta, 0.2, t, c)
        assert math.isfinite(got)
        assert got >= 0.0


class TestFptLaw:
    def test_atom_at_direct_flight(self):
        # upward start reaches beta at time beta/c iff no switch happens before
        for n in (1, 2, 3):
            atom = laws.fpt_atom(Conditioning(PLUS, n), 0.4, 1.0, PARAMS)
            assert atom.value == pytest.approx((1.0 - 0.4) ** n)
        assert laws.fpt_atom(Conditioning(MINUS, 2), 0.4, 1.0, PARAMS).value == 0.0

    @pytest.mark.parametrize("v0,n", [(PLUS, 2), (PLUS, 3), (MINUS, 2), (MINUS, 4)])
    def test_total_mass_matches_max_law(self, v0, n):
        beta, t, c = 0.4, 1.0, 1.0
        mass = quadrature(
            lambda s: laws.fpt_pdf(v0, n, beta, s, t, c), beta / c, t, abs_tol=1e-11
        )
        mass += laws.fpt_atom(Conditioning(v0, n), beta, t, PARAMS).value
        assert mass == pytest.approx(
            1.0 - laws.max_cdf_value(v0, n, beta, t, c), abs=1e-9
        )

    def test_vanishes_before_direct_flight_time(self):
        assert laws.fpt_pdf(PLUS, 3, 0.5, 0.3, 1.0, 1.0) == 0.0
        assert laws.fpt_pdf(MINUS, 3, 0.5, 0.49, 1.0, 1.0) == 0.0

    def test_endpoint_value_matches_closed_form(self):
        for v0 in (PLUS, MINUS):
            for n in (2, 4):
                got = laws.fpt_pdf(v0, n, 0.5, 1.0, 1.0, 1.0)
                assert got == pytest.approx(
                    laws.fpt_endpoint_pdf(v0, n, 0.5, 1.0, 1.0), abs=1e-14
                )

    def test_unconditional_density_frozen_value(self):
        # high-precision series value for c = lam = 1, beta = 0.5, t = 1
        got = laws.fpt_pdf_unconditional(PLUS, 0.5, 1.0, PARAMS)
        assert got == pytest.approx(0.10086572740845744, abs=1e-13)

    def test_unconditional_atom_is_exponential(self):
        atom = laws.fpt_atom_unconditional(PLUS, 0.5, PARAMS)
        assert atom.value == pytest.approx(math.exp(-0.5))


class TestReturnLaw:
    def test_printed_three_switch_value(self):
        assert laws.return_pdf_printed(3, 0.5, 1.0) == pytest.approx(0.09375)

    def test_corrected_three_switch_value(self):
        # printed + n (t-s)^(n-1) / (2 t^n)
        assert laws.return_pdf_corrected(3, 0.5, 1.0) == pytest.approx(0.46875)

    def test_corrected_two_switch_matches_order_statistics_oracle(self):
        t = 1.0
        for s in (0.1, 0.4, 0.8):
            assert laws.return_pdf_corrected(2, s, t) == pytest.approx(1.0 / t - s / t**2)

    def test_printed_two_switch_known_discrepancy(self):
        # the printed two-switch formula is identically zero although the
        # exact law has positive density; pinned so a silent change is caught
        for s in (0.1, 0.5, 0.9):
            assert laws.return_pdf_printed(2, s, 1.0) == 0.0

    def test_one_switch_is_constant(self):
        for s in (0.05, 0.5, 0.95):
            assert laws.return_pdf_printed(1, s, 2.0) == pytest.approx(0.25)
            assert laws.return_pdf_corrected(1, s, 2.0) == pytest.approx(0.25)

    def test_unconditional_matches_bessel_form(self):
        from telegraph.bessel import bessel_i_scaled

        for t in (0.3, 1.0, 4.0):
            expected = bessel_i_scaled(1, PARAMS.lam * t) / t
            assert laws.return_pdf_unconditional(t, PARAMS) == pytest.approx(expected)


class TestQueryInterface:
    BASE = {"v0": "+", "t": 1.0, "c": 1.0, "lambda": 1.0}

    def test_position_query(self):
        out = laws.evaluate_query({**self.BASE, "law": "position", "n": 2, "x": 0.2})
        assert out == {"kind": "density", "value": pytest.approx(0.6), "at": "T(t) = 0.2"}

    def test_unconditional_fpt_query(self):
        out = laws.evaluate_query({**self.BASE, "law": "fpt", "n": None, "beta": 0.5})
        assert out["value"] == pytest.approx(0.10086572740845744)

    def test_return_query_json_round_trip(self):
        line = json.dumps({**self.BASE, "law": "return", "v0": "-", "n": 3, "s": 0.5})
        out = json.loads(laws.evaluate_query_json(line))
        assert out["value"] == pytest.approx(0.46875)

    def test_unknown_law_raises(self):
        with pytest.raises(ValueError):
            laws.evaluate_query({**self.BASE, "law": "nope", "n": 1})

    def test_negative_switch_count_raises(self):
        with pytest.raises(ValueError):
            laws.position_density(Conditioning(PLUS, -1), 0.0, 1.0, PARAMS)
