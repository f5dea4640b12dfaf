import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from telegraph.bessel import bessel_i_scaled


def bessel_i(r, x):
    """I_r(x) from the scaled primitive."""
    return bessel_i_scaled(r, x) * np.exp(x)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("x", [0.0, 1e-8, 0.1, 1.0, 7.3, 25.0, 50.0])
def test_matches_high_precision_oracle(r, x):
    expected = float(mpmath.besseli(r, x))
    assert bessel_i(r, x) == pytest.approx(expected, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("r", [0, 1, 3])
@pytest.mark.parametrize("x", [0.5, 5.0, 80.0, 200.0, 700.0, 2500.0])
def test_scaled_matches_oracle(r, x):
    expected = float(mpmath.besseli(r, x) * mpmath.exp(-x))
    assert bessel_i_scaled(r, x) == pytest.approx(expected, rel=1e-10)


def test_scaled_does_not_overflow_for_large_argument():
    value = bessel_i_scaled(1, 1e6)
    assert 0.0 < value < 1.0
    assert math.isfinite(value)


@pytest.mark.parametrize("x", np.linspace(0.1, 50.0, 25))
def test_three_term_recurrence(x):
    # I_{r-1}(x) - I_{r+1}(x) == (2r/x) I_r(x)
    for r in (1, 2):
        lhs = bessel_i(r - 1, x) - bessel_i(r + 1, x)
        rhs = 2.0 * r / x * bessel_i(r, x)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_small_argument_leading_order():
    # I_r(x) ~ (x/2)^r / r! as x -> 0
    for r in (0, 1, 2):
        x = 1e-6
        lead = (x / 2.0) ** r / math.factorial(r)
        assert bessel_i(r, x) == pytest.approx(lead, rel=1e-6)


def test_rejects_unsupported_arguments():
    with pytest.raises(ValueError):
        bessel_i(5, 2.0)
    with pytest.raises(ValueError):
        bessel_i(1, -0.5)


def test_asymptotic_regime_consistency():
    # scaled value approaches 1/sqrt(2 pi x) for large x
    x = 1e4
    assert bessel_i_scaled(0, x) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * x), rel=1e-3)
