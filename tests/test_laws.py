import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from telegraph import MotionParams, VelocitySign, quadrature
from telegraph import laws

PARAMS = MotionParams(c=1.0, lam=1.0)
PLUS = VelocitySign.PLUS
MINUS = VelocitySign.MINUS


# ---------------------------------------------------------------------------
# exact rational oracles: the printed factorial forms of the conditional laws
# in Fractions, at ct = 1 and dyadic points, where every input is exact in float


def _fact_ratio(num, den):
    """prod(m! for m in num) / prod(m! for m in den), an exact integer; 0 when
    some m in den is negative (reciprocal Gamma at non-positive integers)."""
    if min(den, default=0) < 0:
        return 0
    quotient, rest = divmod(
        math.prod(map(math.factorial, num)), math.prod(map(math.factorial, den))
    )
    assert rest == 0
    return quotient


def _position_oracle(sign, n, x):
    k, odd = divmod(n, 2)
    if odd:
        return _fact_ratio((n,), (k, k)) * (1 - x * x) ** k / 2**n
    return _fact_ratio((n,), (k, k - 1)) * (1 - x * x) ** (k - 1) * (1 + sign * x) / 4**k


def _max_oracle(v0, n, b):
    k, odd = divmod(n, 2)
    if v0 is PLUS:  # twice the velocity-averaged position density
        return _position_oracle(+1, n, b) + _position_oracle(-1, n, b)
    if not odd:
        return 2 * _position_oracle(-1, n, b)
    return math.comb(n, k) * (1 - b) ** k * (1 + b) ** (k - 1) * (n + b) / 2**n


def _line_oracle(v0, n, b):
    # the singular line M = T
    k, odd = divmod(n, 2)
    if v0 is PLUS and not odd:
        return _fact_ratio((n,), (k, k - 1)) * 2 * b * (1 - b * b) ** (k - 1) / 4**k
    if v0 is MINUS and odd:
        return math.comb(n, k) * (1 - b) ** k * (1 + b) ** (k - 1) * (1 + n * b) / 2**n
    return Fraction(0)


def _slice_oracle(v0, n, x):
    # the slice M = 0
    k, odd = divmod(n, 2)
    if v0 is PLUS:
        return Fraction(0)
    if not odd:
        return _position_oracle(-1, n, x) - _position_oracle(+1, n, x)
    return math.comb(n, k) * (1 - x) ** (k - 1) * (1 + x) ** k * (1 - n * x) / 2**n


def _joint_oracle(v0, n, b, x):
    w = 2 * b - x
    k, odd = divmod(n, 2)
    if odd and v0 is PLUS:
        return _fact_ratio((n,), (k, k - 1)) * w * (1 - w * w) ** (k - 1) / 2 ** (2 * k - 1)
    if not odd:
        second = 0 if k == 1 else (k - 1) * (1 - w) ** k * (1 + w) ** (k - 2)
        return _fact_ratio((n,), (k, k - 1)) * (k * (1 - w * w) ** (k - 1) - second) / 2 ** (
            2 * k - 1
        )
    first = _fact_ratio((n,), (k, k - 1)) * (1 - w) ** k * (1 + w) ** (k - 1)
    cb = _fact_ratio((n,), (k + 1, k - 2))
    second = 0 if cb == 0 else cb * (1 - w) ** (k + 1) * (1 + w) ** (k - 2)
    return (first - second) / 4**k


def _max_cdf_oracle(v0, n, b):
    if v0 is PLUS:
        # b * sum_{j <= (n-1)/2} C(2j, j) y^j / 4^j, y = p/q, in integers:
        # nested as 1 + y/2 (1 + 3y/4 (1 + ...)), with one division at the end
        y = 1 - b * b
        num = den = 1
        for j in range((n - 1) // 2, 0, -1):
            num, den = den * y.denominator * 2 * j + num * y.numerator * (2 * j - 1), (
                den * y.denominator * 2 * j
            )
        return b * Fraction(num, den) if n else Fraction(0)
    k, odd = divmod(n, 2)
    if not odd:
        return _max_cdf_oracle(PLUS, n, b) + math.comb(n, k) * (1 - b * b) ** k / 4**k
    return (n * _max_cdf_oracle(MINUS, n - 1, b) + _max_cdf_oracle(PLUS, n, b)) / (n + 1)


def _fpt_oracle(v0, n, beta, s):
    disc = s * s - beta * beta
    if v0 is PLUS:
        return beta * sum(
            _fact_ratio((n,), (j, j - 1, n - 2 * j)) * (1 - s) ** (n - 2 * j) * disc ** (j - 1)
            / 2 ** (2 * j - 1)
            for j in range(1, n // 2 + 1)
        )
    total = Fraction(0)
    for j in range(0, (n - 1) // 2 + 1):
        poly = 1 if j == 0 else disc ** (j - 1) * (s - beta) * (s + (2 * j + 1) * beta)
        total += (
            _fact_ratio((n,), (j, j + 1, n - 1 - 2 * j)) * (1 - s) ** (n - 1 - 2 * j) * poly
            / 2 ** (2 * j + 1)
        )
    return total


def _return_oracle(n, s):
    # the printed sums plus the inner first-passage atom n (1 - s)^(n-1) / 2
    k, odd = divmod(n, 2)
    top = k if odd else k - 1
    printed = sum(
        _fact_ratio((n,), (j, j + 1, n - 1 - 2 * j)) * (1 - s) ** (n - 1 - 2 * j) * s ** (2 * j)
        / 2 ** (2 * j + 1)
        for j in range(1, top + 1)
    )
    return printed + Fraction(n, 2) * (1 - s) ** (n - 1)


def _tail_in_position(v0, n, beta, x, t, c):
    """Density in beta of P{M(t) in dbeta, T(t) < x} given n >= 1 switches,
    for beta in (0, ct) and x in (2*beta - ct, beta): the printed closed form
    whose x-derivative is the joint density."""
    ct = c * t
    v = (2 * beta - x) / ct
    k, odd = divmod(n, 2)
    if not odd:  # same for both starting signs
        value = math.comb(n, k) * k / 2 ** (n - 1) * (1 - v) ** k * (1 + v) ** (k - 1)
    elif v0 is PLUS:
        value = math.comb(n, k) * (k + 1) / 4**k * (1 - v) ** k * (1 + v) ** k
    else:
        value = math.comb(n, k) * k / 4**k * (1 - v) ** (k + 1) * (1 + v) ** (k - 1)
    return value / ct


F = Fraction
ORACLE_N = [1, 2, 3, 8, 64, 1021, 1022, 1024, 4097, 10**4]
PASSAGE_N = [8, 64, 170, 171, 200, 1000]


def _points(n, points):
    # every point up to n = 64, the first two beyond: a Fraction point costs
    # milliseconds at n = 10^4
    return points if n <= 64 else points[:2]


def _check_oracle(cases):
    """(float value, exact value) pairs: within 1e-12 relative where the exact
    value is at least 1e-300, exactly 0 where it is 0."""
    worst = 0.0
    for got, want in cases:
        want = float(want)
        assert math.isfinite(got) and got >= 0.0, (got, want)
        if want == 0.0:
            assert got == 0.0
        elif want >= 1e-300:
            worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-12


class TestExactRationalOracle:
    """The array laws against the printed factorial forms in exact rationals,
    over the switch counts where a factorial alone leaves the float range."""

    @pytest.mark.parametrize("n", ORACLE_N)
    def test_position_max_and_singular_parts(self, n):
        xs = _points(n, [F(-1, 64), F(3, 16), F(-5, 16), F(7, 8)])
        bs = _points(n, [F(1, 64), F(5, 16), F(7, 8)])
        cases = []
        for v0 in (PLUS, MINUS):
            sign = v0.value_sign
            got = laws.position_pdf(sign, n, np.array(xs, dtype=float), 1.0, 1.0)
            cases += zip(got, (_position_oracle(sign, n, x) for x in xs))
            got = laws.max_pdf(v0, n, np.array(bs, dtype=float), 1.0, 1.0)
            cases += zip(got, (_max_oracle(v0, n, b) for b in bs))
            got = laws.joint_atom_max_equals_position_pdf(v0, n, np.array(bs, dtype=float), 1.0, 1.0)
            cases += zip(got, (_line_oracle(v0, n, b) for b in bs))
            got = laws.joint_atom_max_zero_pdf(v0, n, -np.array(bs, dtype=float), 1.0, 1.0)
            cases += zip(got, (_slice_oracle(v0, n, -b) for b in bs))
        _check_oracle(cases)

    @pytest.mark.parametrize("n", ORACLE_N)
    def test_joint_density_both_signs(self, n):
        wedge = _points(n, [(F(1, 16), F(1, 32)), (F(1, 8), F(-1, 16)), (F(1, 2), F(1, 4)),
                            (F(3, 4), F(5, 8))])
        beta, x = (np.array(col, dtype=float) for col in zip(*wedge))
        cases = []
        for v0 in (PLUS, MINUS):
            got = laws.joint_pdf(v0, n, beta, x, 1.0, 1.0)
            cases += zip(got, (_joint_oracle(v0, n, b, y) for b, y in wedge))
        _check_oracle(cases)

    @pytest.mark.parametrize("n", ORACLE_N)
    def test_max_cdf(self, n):
        bs = _points(n, [F(1, 64), F(5, 16), F(7, 8)])
        cases = []
        for v0 in (PLUS, MINUS):
            got = laws.max_cdf_value(v0, n, np.array(bs, dtype=float), 1.0, 1.0)
            cases += zip(got, (_max_cdf_oracle(v0, n, b) for b in bs))
        _check_oracle(cases)

    @pytest.mark.parametrize("n", PASSAGE_N)
    def test_first_passage_and_return(self, n):
        beta = F(1, 4)
        ss = _points(n, [F(1, 2), F(15, 16), F(5, 16), F(1)])
        grid = np.array(ss, dtype=float)
        cases = []
        for v0 in (PLUS, MINUS):
            got = laws.fpt_pdf(v0, n, float(beta), grid, 1.0, 1.0)
            cases += zip(got, (_fpt_oracle(v0, n, beta, s) for s in ss))
        got = laws.return_pdf_corrected(n, grid, 1.0)
        cases += zip(got, (_return_oracle(n, s) for s in ss))
        _check_oracle(cases)


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
                assert laws.position_pdf(0, n, x, 1.0, 1.0) == pytest.approx(avg)

    def test_outside_light_cone_is_zero(self):
        assert laws.position_pdf(+1, 2, 1.5, 1.0, 1.0) == 0.0
        assert laws.position_pdf(+1, 2, -1.5, 1.0, 1.0) == 0.0

    def test_boundary_uses_inside_limit(self):
        # even-count densities are discontinuous at the cone edge; the closed
        # convention returns the inside limit so quadrature endpoints are usable
        inside = laws.position_pdf(+1, 2, 1.0 - 1e-12, 1.0, 1.0)
        assert laws.position_pdf(+1, 2, 1.0, 1.0, 1.0) == pytest.approx(inside, rel=1e-9)

    def test_wrapper_reports_density_kind(self):
        law = laws.resolve("position", "+", 2, t=1.0, c=1.0, lam=1.0)
        assert law.kind == "density"
        assert law.values(0.2) == laws.position_pdf(+1, 2, 0.2, 1.0, 1.0)


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
        atom = laws.max_atom_zero(v0, n)
        assert mass + atom == pytest.approx(1.0, abs=1e-9)

    def test_never_crossing_atom_is_cyclic(self):
        # P{M = 0} for a downward start depends only on ceil(n/2)
        values = [laws.max_atom_zero(MINUS, n) for n in range(1, 7)]
        assert values == pytest.approx([0.5, 0.5, 0.375, 0.375, 0.3125, 0.3125])

    def test_upward_start_has_no_zero_atom(self):
        for n in range(1, 5):
            assert laws.max_atom_zero(PLUS, n) == 0.0

    @pytest.mark.parametrize("v0,n", [(PLUS, 2), (MINUS, 3)])
    def test_cdf_matches_integrated_density(self, v0, n):
        beta = 0.6
        mass = quadrature(
            lambda b: laws.max_pdf(v0, n, b, 1.0, 1.0), 0.0, beta, abs_tol=1e-11
        )
        atom = laws.max_atom_zero(v0, n)
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
                laws.max_atom_zero(MINUS, n), abs=1e-9
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
                    _tail_in_position(v0, n, beta, x + h, t, c)
                    - _tail_in_position(v0, n, beta, x - h, t, c)
                ) / (2 * h)
                worst = max(worst, abs(slope - laws.joint_pdf(v0, n, beta, x, t, c)))
        assert worst <= 1e-7

    def test_joint_cdf_wrapper_matches_pdf_integral(self):
        # P{M <= beta, T in dx} - P{M <= max(0, x), T in dx} is the integral of
        # the joint density over (max(0, x), beta), inside the wedge
        t = c = 1.0
        worst = 0.0
        for v0, n, x in itertools.product((PLUS, MINUS), range(1, 9), (-0.6, -0.2, 0.1, 0.3)):
            lo, hi = max(0.0, x), (c * t + x) / 2
            for frac in (0.3, 0.7, 0.999):
                beta = lo + frac * (hi - lo)
                left = laws.joint_cdf_in_max_pdf(v0, n, beta, x, t, c) - laws.joint_cdf_in_max_pdf(
                    v0, n, lo, x, t, c
                )
                right = quadrature(
                    lambda b: laws.joint_pdf(v0, n, b, x, t, c), lo, beta, abs_tol=1e-14
                )
                worst = max(worst, abs(left - right))
        assert worst <= 1e-12


    @pytest.mark.parametrize("v0", [PLUS, MINUS])
    @pytest.mark.parametrize("lam, beta", [(1e12, 1e-6), (1e20, 1e-10)])
    def test_unconditional_line_keeps_its_gap_at_a_large_rate(self, v0, lam, beta):
        # lam*t - z = 0.5 here, below one ulp of lam*t: formed as a difference
        # it would be lost, and the value off by a factor e^0.5
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        lam_, b = mpmath.mpf(lam), mpmath.mpf(beta)
        root = mpmath.sqrt(1 - b * b)
        i0, i1 = (mpmath.besseli(r, lam_ * root) * mpmath.exp(-lam_) for r in (0, 1))
        want = (lam_ * b / root * i1 if v0 is PLUS
                else (lam_ * b * i0 + mpmath.sqrt((1 - b) / (1 + b)) * i1) / (1 + b))
        got = laws.joint_atom_max_equals_position_pdf_unconditional(
            v0, beta, 1.0, MotionParams(1.0, lam))
        assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)


class TestFptLaw:
    def test_atom_at_direct_flight(self):
        # upward start reaches beta at time beta/c iff no switch happens before
        for n in (1, 2, 3):
            atom = laws.fpt_atom(PLUS, n, 0.4, 1.0, PARAMS.c)
            assert atom == pytest.approx((1.0 - 0.4) ** n)
        assert laws.fpt_atom(MINUS, 2, 0.4, 1.0, PARAMS.c) == 0.0

    @pytest.mark.parametrize("v0,n", [(PLUS, 2), (PLUS, 3), (MINUS, 2), (MINUS, 4)])
    def test_total_mass_matches_max_law(self, v0, n):
        beta, t, c = 0.4, 1.0, 1.0
        mass = quadrature(
            lambda s: laws.fpt_pdf(v0, n, beta, s, t, c), beta / c, t, abs_tol=1e-11
        )
        mass += laws.fpt_atom(v0, n, beta, t, PARAMS.c)
        assert mass == pytest.approx(
            1.0 - laws.max_cdf_value(v0, n, beta, t, c), abs=1e-9
        )

    def test_vanishes_before_direct_flight_time(self):
        assert laws.fpt_pdf(PLUS, 3, 0.5, 0.3, 1.0, 1.0) == 0.0
        assert laws.fpt_pdf(MINUS, 3, 0.5, 0.49, 1.0, 1.0) == 0.0

    def test_endpoint_value_matches_closed_form(self):
        # at s = t the passage density is c times the density of the line M = T
        for v0, n, c in itertools.product((PLUS, MINUS), (2, 4), (1.0, 0.7)):
            got = laws.fpt_pdf(v0, n, 0.5, 1.0, 1.0, c)
            assert got == pytest.approx(
                c * laws.joint_atom_max_equals_position_pdf(v0, n, 0.5, 1.0, c), abs=1e-14
            )

    def test_unconditional_density_frozen_value(self):
        # high-precision series value for c = lam = 1, beta = 0.5, t = 1
        got = laws.fpt_pdf_unconditional(PLUS, 0.5, 1.0, PARAMS)
        assert got == pytest.approx(0.10086572740845744, abs=1e-13)

    @pytest.mark.parametrize("v0", [PLUS, MINUS])
    def test_unconditional_density_support(self, v0):
        # 0 up to and at the direct-flight time beta/c, finite just after it,
        # with no floating-point warning on the way
        params, beta = MotionParams(0.7, 2.5), 0.4
        edge = beta / params.c
        t = np.array([-1.0, 0.0, edge, edge + 1e-5])
        huge = 1e160  # its square overflows a float
        with np.errstate(all="raise"):
            got = laws.fpt_pdf_unconditional(v0, beta, t, params)
            far = laws.fpt_pdf_unconditional(v0, huge, [-1.0, 0.0, 1.0, huge / params.c], params)
        assert got[:3].tolist() == [0.0, 0.0, 0.0] and not np.signbit(got[:3]).any()
        assert far.tolist() == [0.0] * 4 and not np.signbit(far).any()
        assert np.isfinite(got[3]) and got[3] > 0
        for level in (0.0, -0.5):
            with pytest.raises(ValueError, match="level must be > 0"):
                laws.fpt_pdf_unconditional(v0, level, t, params)

    @pytest.mark.parametrize("t", [1e30, 1e50, 1e160])
    def test_unconditional_density_at_long_horizons_is_brownian(self, t):
        # under lambda = c^2 the upward-start density tends to the Brownian
        # beta exp(-beta^2/(2t)) / sqrt(2 pi t^3); at these horizons the two
        # agree to rounding, and a gap formed as lam*t - z would lose them all
        got = laws.fpt_pdf_unconditional(PLUS, 1.0, t, MotionParams(20.0, 400.0))
        brown = math.exp(-0.5 / t) / math.sqrt(2.0 * math.pi * t) / t
        assert got == pytest.approx(brown, rel=1e-10, abs=0.0)

    def test_unconditional_atom_is_exponential(self):
        atom = laws.fpt_atom_unconditional(PLUS, 0.5, PARAMS)
        assert atom == pytest.approx(math.exp(-0.5))


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


def _poisson_mixture(conditional, lam_t):
    """Sum over n = 1..149 of P{N(t) = n} * conditional(n), lam*t <= 15."""
    return sum(
        math.exp(n * math.log(lam_t) - lam_t - math.lgamma(n + 1)) * conditional(n)
        for n in range(1, 150)
    )


class TestPoissonMixture:
    """Each unconditional Bessel law is the Poisson(lam*t) mixture of the
    conditional laws over the switch count (Kac 1974; Orsingher 1990)."""

    REL = 1e-13

    @pytest.fixture(params=[1.0, 5.0, 15.0], ids=lambda lam: f"lam={lam:g}")
    def lam(self, request):
        return request.param

    @pytest.fixture(params=[(1.0, 1.0), (1.5, 2.0)], ids=["t=1,c=1", "t=1.5,c=2"])
    def tc(self, request):
        return request.param

    @pytest.mark.parametrize("v0", [PLUS, MINUS])
    def test_joint_density_and_lines(self, v0, tc, lam):
        t, c = tc
        ct, params = c * t, MotionParams(c, lam)
        for beta in (0.2 * ct, 0.5 * ct, 0.8 * ct):
            for frac in (0.1, 0.5, 0.9):
                x = 2 * beta - ct + frac * (ct - beta)
                got = _poisson_mixture(
                    lambda n: laws.joint_pdf(v0, n, beta, x, t, c), lam * t
                )
                want = laws.joint_pdf_unconditional(v0, beta, x, t, params)
                assert got == pytest.approx(want, rel=self.REL, abs=0.0)
            got = _poisson_mixture(
                lambda n: laws.joint_atom_max_equals_position_pdf(v0, n, beta, t, c), lam * t
            )
            want = laws.joint_atom_max_equals_position_pdf_unconditional(v0, beta, t, params)
            assert got == pytest.approx(want, rel=self.REL, abs=0.0)
            if v0 is MINUS:
                got = _poisson_mixture(
                    lambda n: laws.joint_atom_max_zero_pdf(v0, n, -beta, t, c), lam * t
                )
                want = laws.joint_atom_max_zero_pdf_unconditional(v0, -beta, t, params)
                assert got == pytest.approx(want, rel=self.REL, abs=0.0)

    @pytest.mark.parametrize("v0", [PLUS, MINUS])
    def test_first_passage_at_the_horizon(self, v0, tc, lam):
        t, c = tc
        params = MotionParams(c, lam)
        for beta in (0.2 * c * t, 0.5 * c * t, 0.8 * c * t):
            got = _poisson_mixture(lambda n: laws.fpt_pdf(v0, n, beta, t, t, c), lam * t)
            want = laws.fpt_pdf_unconditional(v0, beta, t, params)
            assert got == pytest.approx(want, rel=self.REL, abs=0.0)

    def test_return_at_the_horizon(self, tc, lam):
        t, c = tc
        got = _poisson_mixture(lambda n: laws.return_pdf_corrected(n, t, t), lam * t)
        want = laws.return_pdf_unconditional(t, MotionParams(c, lam))
        assert got == pytest.approx(want, rel=self.REL, abs=0.0)


class TestIntervalMass:
    """``Resolved.mass`` against adaptive Simpson plus the atoms."""

    @staticmethod
    def simpson(law, *points):
        """Adaptive Simpson over consecutive points; each piece reads the law
        inside its open interval, so a jump at a piece end is never sampled."""
        total = 0.0
        for a, b in zip(points[:-1], points[1:]):
            lo, hi = np.nextafter(a, b), np.nextafter(b, a)
            total += quadrature(lambda v: float(law.values(min(max(v, lo), hi))), a, b,
                                abs_tol=1e-14)
        return total

    @pytest.mark.parametrize("v0, n", [("+", 3), ("-", 8)])
    def test_bins_across_the_support_ends(self, v0, n):
        law = laws.resolve("position", v0, n, 0.5, 1.6, 1.0)  # ct = 0.8
        got = law.mass([-1.1, -0.5, 0.3, 1.0])
        want = [self.simpson(law, -1.1, -0.8, -0.5), self.simpson(law, -0.5, 0.3),
                self.simpson(law, 0.3, 0.8, 1.0)]
        assert got == pytest.approx(want, rel=0.0, abs=1e-12)
        assert got.sum() == pytest.approx(1.0, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("v0, n", [("+", 4), ("-", 5), ("+", 1)])
    def test_bin_across_the_direct_flight_time(self, v0, n):
        law = laws.resolve("fpt", v0, n, 1.0, 1.0, 1.0, beta=0.5)
        atom = laws.fpt_atom(VelocitySign(v0), n, 0.5, 1.0, 1.0)
        (got,) = law.mass([0.4, 0.7])
        assert got == pytest.approx(self.simpson(law, 0.4, 0.5, 0.7) + atom, rel=0.0,
                                    abs=1e-12)

    def test_bin_holding_the_max_atom(self):
        law = laws.resolve("max", "-", 3, 1.0, 1.0, 1.0)
        got = law.mass([0.0, 0.3, 1.0])
        assert got[0] == pytest.approx(self.simpson(law, 0.0, 0.3) + 0.375, rel=0.0, abs=1e-12)
        assert got[1] == pytest.approx(self.simpson(law, 0.3, 1.0), rel=0.0, abs=1e-12)

    def test_unconditional_line_across_its_end(self):
        law = laws.resolve("joint", "-", None, 1.0, 1.0, 3.0, component="max_equals_position")
        (got,) = law.mass([0.5, 1.5])
        assert got == pytest.approx(self.simpson(law, 0.5, 1.0, 1.5), rel=0.0, abs=1e-12)

    def test_atoms_are_binned_as_np_histogram_bins_samples(self):
        law = laws.resolve("max", "-", 2, 1.0, 1.0, 1.0)  # P{M = 0} = 0.5
        for edges in ([-1.0, 0.0, 1.0], [-1.0, 0.0], [0.0, 0.5, 1.0], [0.1, 1.0]):
            counts, _ = np.histogram([0.0], bins=edges)
            density = law.mass(edges) - 0.5 * counts
            want = [self.simpson(law, max(a, 0.0), b) if b > 0 else 0.0
                    for a, b in zip(edges[:-1], edges[1:])]
            assert density == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_atom_at_the_upper_end_is_in_the_last_bin(self):
        # the direct flight of mass 0.25 lands at s = 0.5, the end of the range
        law = laws.resolve("fpt", "+", 2, 1.0, 1.0, 1.0, beta=0.5)
        edges = np.linspace(0.0, 0.5, 5)
        assert law.mass(edges).tolist() == [0.0, 0.0, 0.0, 0.25]
        assert np.histogram([0.5], bins=4, range=(0.0, 0.5))[0].tolist() == [0, 0, 0, 1]

    @pytest.mark.parametrize("query", [
        ("max_cdf", "+", 3, {}), ("joint", "+", 3, {}), ("fpt", "+", None, {"beta": 0.5}),
        ("position", "+", 0, {}),
    ])
    def test_laws_without_an_interval_mass_refuse(self, query):
        law, v0, n, fixed = query
        with pytest.raises(ValueError, match="no interval mass"):
            laws.resolve(law, v0, n, 1.0, 1.0, 1.0, **fixed).mass([0.0, 1.0])


class TestQueryInterface:
    FIXED = {"t": 1.0, "c": 1.0, "lam": 1.0}

    def test_position_query(self):
        law = laws.resolve("position", "+", 2, **self.FIXED)
        assert (law.kind, law.at.format(0.2)) == ("density", "T(t) = 0.2")
        assert law.values(0.2) == pytest.approx(0.6)

    def test_unconditional_fpt_query(self):
        law = laws.resolve("fpt", "+", None, beta=0.5, **self.FIXED)
        assert law.values() == pytest.approx(0.10086572740845744)

    def test_return_query(self):
        law = laws.resolve("return", "-", 3, **self.FIXED)
        assert law.values(0.5) == pytest.approx(0.46875)

    def test_unknown_law_raises(self):
        with pytest.raises(ValueError):
            laws.resolve("nope", "+", 1, **self.FIXED)

    def test_negative_switch_count_raises(self):
        with pytest.raises(ValueError):
            laws.resolve("position", "+", -1, **self.FIXED)

    @pytest.mark.parametrize("c, t", [(1e-300, 1e-300), (1e-160, 1e-150), (1e200, 1e200)])
    def test_scale_c_t_must_be_a_positive_normal_float(self, c, t):
        with pytest.raises(ValueError) as err:
            laws.resolve("joint", "+", 3, t, c, 1.0)
        assert str(err.value) == f"c*t must be a positive normal float, got c = {c} and t = {t}"

    def test_smallest_normal_scale_resolves(self):
        law = laws.resolve("position", "+", 1, 1.0, np.finfo(float).tiny, 1.0)
        assert law.values(0.0) == 0.5 / np.finfo(float).tiny


class TestFoldedChecks:
    """``values`` checks its points and ``_values`` its results in one
    reduction; a failure names the first point that fails, through ``values``
    and through ``mass`` alike."""

    # the first point past 0.3 on linspace(0, 1, 5) and among the 3 Gauss
    # nodes on [0, 1] of the n = 3 rule is 0.5
    POINTS, EDGES, FIRST = np.linspace(0.0, 1.0, 5), [0.0, 1.0], "T(t) = 0.5"

    @staticmethod
    def position(monkeypatch, kind, bad, later=None):
        """The n = 3 position law at ct = 1 as a law of ``kind``, with value
        ``bad`` past x = 0.3 and ``later``, if given, at x = 1."""
        real = laws.position_pdf

        def patched(sign, n, x, t, c):
            value = np.where(x > 0.3, bad, real(sign, n, x, t, c))
            return value if later is None else np.where(x == 1.0, later, value)

        monkeypatch.setattr(laws, "position_pdf", patched)
        entry = laws.LAWS[("position", None)]
        monkeypatch.setitem(laws.LAWS, ("position", None), dataclasses.replace(entry, kind=kind))
        return laws.resolve("position", "+", 3, 1.0, 1.0, 1.0)

    def refusals(self, law, points=None, edges=None):
        """The messages of ``values`` and ``mass``, each of which must raise."""
        messages = []
        for call, arg in ((law.values, self.POINTS if points is None else points),
                          (law.mass, self.EDGES if edges is None else edges)):
            with pytest.raises((ValueError, OverflowError)) as err:
                call(arg)
            messages.append(str(err.value))
        return messages

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_or_edge(self, bad):
        law = laws.resolve("position", "+", 3, 1.0, 1.0, 1.0)
        got = self.refusals(law, points=[0.2, bad, np.nan], edges=[0.0, np.nan, 1.0])
        assert got == [f"law position needs a finite x, got {bad}",
                       "law position needs a finite x, got nan"]

    def test_infinite_edges_clip_to_the_support(self):
        law = laws.resolve("position", "+", 3, 1.0, 1.0, 1.0)
        assert law.mass([-np.inf, 0.0, np.inf]).sum() == pytest.approx(1.0, abs=1e-15)

    def test_non_finite_result(self):
        law = laws.resolve("fpt", "+", 1100, 1.0, 1.0, 1.0, beta=0.3)
        got = self.refusals(law, points=[0.5], edges=[0.3, 1.0])
        assert got == ["law fpt at n = 1100 overflows a float"] * 2

    def test_non_finite_result_is_reported_before_one_out_of_range(self, monkeypatch):
        law = self.position(monkeypatch, "density", -1.0, later=np.nan)
        assert self.refusals(law, edges=[0.0, 1.0, 1.0]) == [
            "law position at n = 3 overflows a float"] * 2

    @pytest.mark.parametrize("kind, bad, message", [
        ("density", -1.0, "negative law value -1.0"),
        ("density", -5e-324, "negative law value -5e-324"),
        ("cdf", 1 + 1e-11, "cdf value 1.00000000001 exceeds 1"),
        ("atom", 1.5, "atom value 1.5 exceeds 1"),
    ])
    def test_value_out_of_range(self, monkeypatch, kind, bad, message):
        law = self.position(monkeypatch, kind, bad)
        assert self.refusals(law) == [f"{message} ({self.FIRST})"] * 2

    @pytest.mark.parametrize("kind, value", [("cdf", 1 + 1e-13), ("atom", 1.0),
                                             ("density", 1e300), ("density", -0.0)])
    def test_value_in_range_passes(self, monkeypatch, kind, value):
        law = self.position(monkeypatch, kind, value)
        assert law.values(self.POINTS)[-1] == value
        assert np.isfinite(law.mass(self.EDGES)).all()
