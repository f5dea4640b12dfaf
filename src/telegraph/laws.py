"""Closed-form distributions of the motion, its running maximum, their joint
law (absolutely continuous and singular components), first-passage times and
return times, conditioned on the initial velocity sign and, where stated, on
the number of switches in [0, t].

Conventions
-----------
* Reciprocal factorials at negative integers evaluate to 0 (reciprocal Gamma
  convention).  This collapses small-k edge cases of the joint densities to
  their correct null values.
* Evaluators return 0 outside their stated supports.  The single exception is
  a first-passage/return query at s > t, which raises: that region is
  unspecified rather than zero.
* Unconditional laws are evaluated through the scaled primitive
  exp(-z) * I_r(z), so no intermediate exp overflow can occur.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Optional

from .bessel import bessel_i_scaled
from .params import MotionParams, VelocitySign

_EXACT_FACT_LIMIT = 30


class OutOfScopeError(ValueError):
    """Raised for queries the theory intentionally does not cover (s > t)."""


@dataclass(frozen=True)
class Conditioning:
    """Initial velocity sign plus optional switch count (None = only V(0))."""

    v0: VelocitySign
    n: Optional[int] = None

    def __post_init__(self):
        if self.n is not None and self.n < 0:
            raise ValueError(f"switch count must be >= 0, got {self.n}")


@dataclass(frozen=True)
class LawValue:
    """A density value, an atom mass, or a CDF value."""

    kind: str  # "density" | "atom" | "cdf"
    value: float
    at: str = ""

    def __post_init__(self):
        if self.kind not in ("density", "atom", "cdf"):
            raise ValueError(f"bad kind {self.kind}")
        if self.value < 0:
            raise ValueError(f"negative law value {self.value} ({self.at})")
        if self.kind in ("atom", "cdf") and self.value > 1 + 1e-12:
            raise ValueError(f"{self.kind} value {self.value} exceeds 1 ({self.at})")


@dataclass(frozen=True)
class EvalPoint:
    """Free variables of a law query; only the fields the law needs."""

    t: float
    x: Optional[float] = None
    beta: Optional[float] = None
    s: Optional[float] = None


@functools.lru_cache(maxsize=4096)
def _coef(num: tuple, den: tuple) -> float:
    """Product of factorials in `num` over factorials in `den`, memoized.

    Arguments are tuples so the result can be cached: the laws request a few
    dozen distinct coefficients over millions of scalar calls.  A negative
    argument in `den` makes the whole coefficient 0 (reciprocal Gamma at
    non-positive integers); a negative argument in `num` raises ValueError.
    Up to 30! the value is one true division of exact integer products, which
    Python rounds correctly; beyond that it is accumulated in log space.
    """
    if any(m < 0 for m in den):
        return 0.0
    if any(m < 0 for m in num):
        raise ValueError("negative factorial argument in numerator")
    if all(m <= _EXACT_FACT_LIMIT for m in num + den):
        return math.prod(map(math.factorial, num)) / math.prod(map(math.factorial, den))
    lg = sum(math.lgamma(m + 1) for m in num) - sum(math.lgamma(m + 1) for m in den)
    return math.exp(lg)


def _central_binom_mass(k: int) -> float:
    # C(2k, k) / 4^k
    return math.comb(2 * k, k) / 4.0**k


# ---------------------------------------------------------------------------
# position laws
# ---------------------------------------------------------------------------

def position_pdf(sign: int, n: int, x: float, t: float, c: float) -> float:
    """Density of the position given V(0) = sign*c and n >= 1 switches."""
    ct = c * t
    if not (-ct <= x <= ct):
        return 0.0
    if n % 2 == 0:
        k = n // 2
        return (
            _coef((2 * k,), (k, k - 1))
            * (ct * ct - x * x) ** (k - 1)
            * (ct + sign * x)
            / (2 * ct) ** (2 * k)
        )
    k = (n - 1) // 2
    return _coef((2 * k + 1,), (k, k)) * (ct * ct - x * x) ** k / (2 * ct) ** (2 * k + 1)


def position_pdf_unsigned(n: int, x: float, t: float, c: float) -> float:
    """Density of the position given only N(t) = n (velocity averaged)."""
    ct = c * t
    if not (-ct <= x <= ct):
        return 0.0
    if n % 2 == 0:
        k = n // 2
        return (
            _coef((2 * k,), (k, k - 1))
            * (ct * ct - x * x) ** (k - 1)
            * ct
            / (2 * ct) ** (2 * k)
        )
    return position_pdf(+1, n, x, t, c)


def position_density(
    cond: Conditioning, x: float, t: float, params: MotionParams
) -> LawValue:
    """Conditional position law; for n = 0 the whole mass is an atom at
    sign(v0)*ct."""
    n = _require_n(cond)
    if n == 0:
        pt = cond.v0.value_sign * params.c * t
        return LawValue("atom", 1.0, at=f"T(t) = {pt}")
    val = position_pdf(cond.v0.value_sign, n, x, t, params.c)
    return LawValue("density", val, at=f"T(t) = {x}")


# ---------------------------------------------------------------------------
# maximum laws
# ---------------------------------------------------------------------------

def max_pdf(v0: VelocitySign, n: int, beta: float, t: float, c: float) -> float:
    """Density of the running maximum on (0, ct), conditioned on (v0, n >= 1)."""
    ct = c * t
    if not (0.0 <= beta <= ct):
        return 0.0
    if v0 is VelocitySign.PLUS:
        return 2.0 * position_pdf_unsigned(n, beta, t, c)
    if n % 2 == 0:
        return 2.0 * position_pdf(-1, n, beta, t, c)
    k = (n - 1) // 2
    return (
        math.comb(2 * k + 1, k)
        * (ct - beta) ** k
        * (ct + beta) ** (k - 1)
        * ((2 * k + 1) * ct + beta)
        / (2 * ct) ** (2 * k + 1)
    )


def max_density(
    cond: Conditioning, beta: float, t: float, params: MotionParams
) -> LawValue:
    n = _require_n(cond)
    ct = params.c * t
    if n == 0:
        if cond.v0 is VelocitySign.PLUS:
            return LawValue("atom", 1.0, at=f"M(t) = {ct}")
        return LawValue("atom", 1.0, at="M(t) = 0")
    return LawValue(
        "density", max_pdf(cond.v0, n, beta, t, params.c), at=f"M(t) = {beta}"
    )


def max_atom_zero(cond: Conditioning) -> LawValue:
    """Mass of {M(t) = 0}; positive only for a negative start.  The value is
    C(2k, k)/4^k for n in {2k-1, 2k} and does not depend on t or c."""
    n = _require_n(cond)
    if cond.v0 is VelocitySign.PLUS:
        return LawValue("atom", 0.0, at="M(t) = 0")
    if n == 0:
        return LawValue("atom", 1.0, at="M(t) = 0")
    k = (n + 1) // 2
    return LawValue("atom", _central_binom_mass(k), at="M(t) = 0")


def max_cdf_value(v0: VelocitySign, n: int, beta: float, t: float, c: float) -> float:
    ct = c * t
    if beta < 0:
        return 0.0
    if beta >= ct:
        return 1.0
    if v0 is VelocitySign.PLUS:
        if n == 0:
            return 0.0
        k = (n - 1) // 2
        acc = 0.0
        for j in range(k + 1):
            acc += math.comb(2 * j, j) * (ct * ct - beta * beta) ** j / (2 * ct) ** (2 * j)
        return beta / ct * acc
    if n % 2 == 0:
        k = n // 2
        plus = max_cdf_value(VelocitySign.PLUS, n, beta, t, c)
        return plus + math.comb(2 * k, k) * (ct * ct - beta * beta) ** k / (2 * ct) ** (2 * k)
    k = (n - 1) // 2
    even = max_cdf_value(VelocitySign.MINUS, 2 * k, beta, t, c)
    odd_plus = max_cdf_value(VelocitySign.PLUS, 2 * k + 1, beta, t, c)
    return (2 * k + 1) / (2 * k + 2) * even + odd_plus / (2 * k + 2)


def max_cdf(cond: Conditioning, beta: float, t: float, params: MotionParams) -> LawValue:
    n = _require_n(cond)
    return LawValue(
        "cdf", max_cdf_value(cond.v0, n, beta, t, params.c), at=f"M(t) <= {beta}"
    )


# ---------------------------------------------------------------------------
# joint laws (M(t), T(t)) given (v0, n)
# ---------------------------------------------------------------------------

def _in_wedge(beta: float, x: float, ct: float) -> bool:
    return 0.0 <= beta <= ct and 2 * beta - ct <= x <= beta


def joint_pdf(
    v0: VelocitySign, n: int, beta: float, x: float, t: float, c: float
) -> float:
    """Absolutely continuous part of the joint law, a density in (beta, x) on
    the wedge 0 < beta < ct, 2*beta - ct < x < beta."""
    ct = c * t
    if n == 0 or not _in_wedge(beta, x, ct):
        return 0.0
    w = 2 * beta - x  # in (beta, ct)
    if n % 2 == 1 and v0 is VelocitySign.PLUS:
        k = (n - 1) // 2
        cb = _coef((2 * k + 1,), (k, k - 1))
        if cb == 0.0:  # n = 1 carries no absolutely continuous mass
            return 0.0
        return cb * w * (ct * ct - w * w) ** (k - 1) / (
            2.0 ** (2 * k - 1) * ct ** (2 * k + 1)
        )
    if n % 2 == 0:  # same expression for both starting signs
        k = n // 2
        first = k * (ct * ct - w * w) ** (k - 1)
        second = 0.0 if k == 1 else (k - 1) * (ct - w) ** k * (ct + w) ** (k - 2)
        return _coef((2 * k,), (k, k - 1)) * (first - second) / (
            2.0 ** (2 * k - 1) * ct ** (2 * k)
        )
    k = (n - 1) // 2  # negative start, odd switch count
    denom = 2.0 ** (2 * k) * ct ** (2 * k + 1)
    first = _coef((2 * k + 1,), (k, k - 1)) * (ct - w) ** k * (ct + w) ** (k - 1)
    cb = _coef((2 * k + 1,), (k + 1, k - 2))
    second = 0.0 if cb == 0.0 else cb * (ct - w) ** (k + 1) * (ct + w) ** (k - 2)
    return (first - second) / denom


def joint_density(
    cond: Conditioning, beta: float, x: float, t: float, params: MotionParams
) -> LawValue:
    n = _require_n(cond)
    return LawValue(
        "density",
        joint_pdf(cond.v0, n, beta, x, t, params.c),
        at=f"M = {beta}, T = {x}",
    )


def joint_atom_max_equals_position_pdf(
    v0: VelocitySign, n: int, beta: float, t: float, c: float
) -> float:
    """Density in beta of the singular line M(t) = T(t) = beta.  Nonzero only
    when the final velocity is +c: (PLUS, even n) and (MINUS, odd n)."""
    ct = c * t
    if not (0.0 <= beta <= ct) or n == 0:
        return 0.0
    if v0 is VelocitySign.PLUS and n % 2 == 0:
        k = n // 2
        return (
            _coef((2 * k,), (k, k - 1))
            * 2
            * beta
            * (ct * ct - beta * beta) ** (k - 1)
            / (2 * ct) ** (2 * k)
        )
    if v0 is VelocitySign.MINUS and n % 2 == 1:
        k = (n - 1) // 2
        if k == 0:
            return 1.0 / (2 * ct)
        return (
            math.comb(2 * k + 1, k)
            * (ct - beta) ** k
            * (ct + beta) ** (k - 1)
            * (ct + (2 * k + 1) * beta)
            / (2 * ct) ** (2 * k + 1)
        )
    return 0.0


def joint_atom_max_equals_position(
    cond: Conditioning, beta: float, t: float, params: MotionParams
) -> LawValue:
    n = _require_n(cond)
    return LawValue(
        "density",
        joint_atom_max_equals_position_pdf(cond.v0, n, beta, t, params.c),
        at=f"M = T(t) = {beta}",
    )


def joint_atom_diagonal_pdf(
    v0: VelocitySign, n: int, beta: float, t: float, c: float
) -> float:
    """Density in beta of the line T(t) = 2M(t) - ct, carried entirely by the
    single-switch positive-start paths."""
    ct = c * t
    if v0 is VelocitySign.PLUS and n == 1 and 0.0 <= beta <= ct:
        return 1.0 / ct
    return 0.0


def joint_atom_max_zero_pdf(
    v0: VelocitySign, n: int, x: float, t: float, c: float
) -> float:
    """Density in x on the slice M(t) = 0, x in (-ct, 0], negative start."""
    ct = c * t
    if v0 is VelocitySign.PLUS or n == 0 or not (-ct <= x <= 0.0):
        return 0.0
    if n % 2 == 0:
        return position_pdf(-1, n, x, t, c) - position_pdf(+1, n, x, t, c)
    k = (n - 1) // 2
    if k == 0:
        return 1.0 / (2 * ct)
    return (
        math.comb(2 * k + 1, k)
        * (ct - x) ** (k - 1)
        * (ct + x) ** k
        * (ct - (2 * k + 1) * x)
        / (2 * ct) ** (2 * k + 1)
    )


def joint_atom_max_zero(
    cond: Conditioning, x: float, t: float, params: MotionParams
) -> LawValue:
    n = _require_n(cond)
    return LawValue(
        "density",
        joint_atom_max_zero_pdf(cond.v0, n, x, t, params.c),
        at=f"M = 0, T(t) = {x}",
    )


def joint_cdf_in_max_pdf(
    v0: VelocitySign, n: int, beta: float, x: float, t: float, c: float
) -> float:
    """Density in x of P{M(t) <= beta, T(t) in dx}: the three-branch form of
    the negative reflection principle, with its mirrored negative-start
    versions."""
    ct = c * t
    if n == 0 or not (-ct < x < ct):
        return 0.0
    if beta < max(0.0, x):
        return 0.0
    sign = v0.value_sign
    if beta >= (ct + x) / 2:
        return position_pdf(sign, n, x, t, c)
    w = 2 * beta - x
    if v0 is VelocitySign.PLUS:
        return position_pdf(+1, n, x, t, c) - position_pdf(-1, n, w, t, c)
    if n % 2 == 0:
        return position_pdf(-1, n, x, t, c) - position_pdf(-1, n, w, t, c)
    k = (n - 1) // 2
    sub = _coef((2 * k + 1,), (k + 1, k - 1))
    correction = (
        0.0 if sub == 0.0 else sub * (ct - w) ** (k + 1) * (ct + w) ** (k - 1)
        / (2 * ct) ** (2 * k + 1)
    )
    return position_pdf(-1, n, x, t, c) - correction


def joint_cdf_in_max(
    cond: Conditioning, beta: float, x: float, t: float, params: MotionParams
) -> LawValue:
    n = _require_n(cond)
    return LawValue(
        "density",
        joint_cdf_in_max_pdf(cond.v0, n, beta, x, t, params.c),
        at=f"M <= {beta}, T(t) = {x}",
    )


def joint_tail_in_position_pdf(
    v0: VelocitySign, n: int, beta: float, x: float, t: float, c: float
) -> float:
    """Density in beta of P{M(t) in dbeta, T(t) < x}, for beta in (0, ct)
    and x in (2*beta - ct, beta]."""
    ct = c * t
    if n == 0 or not (0.0 < beta < ct) or not (2 * beta - ct < x <= beta):
        return 0.0
    w = 2 * beta - x
    if n % 2 == 0:  # same for both starting signs
        k = n // 2
        return (
            2
            * _coef((2 * k,), (k, k - 1))
            * (ct - w) ** k
            * (ct + w) ** (k - 1)
            / (2 * ct) ** (2 * k)
        )
    k = (n - 1) // 2
    if v0 is VelocitySign.PLUS:
        return (
            _coef((2 * k + 1,), (k, k))
            * (ct * ct - w * w) ** k
            / (2.0 ** (2 * k) * ct ** (2 * k + 1))
        )
    cb = _coef((2 * k + 1,), (k + 1, k - 1))
    if cb == 0.0:
        return 0.0
    return cb * (ct - w) ** (k + 1) * (ct + w) ** (k - 1) / (
        2.0 ** (2 * k) * ct ** (2 * k + 1)
    )


def joint_tail_in_position(
    cond: Conditioning, beta: float, x: float, t: float, params: MotionParams
) -> LawValue:
    n = _require_n(cond)
    return LawValue(
        "density",
        joint_tail_in_position_pdf(cond.v0, n, beta, x, t, params.c),
        at=f"M = {beta}, T(t) < {x}",
    )


# ---------------------------------------------------------------------------
# unconditional joint laws (Bessel forms)
# ---------------------------------------------------------------------------

JOINT_COMPONENTS = ("density", "max_equals_position", "diagonal", "max_zero", "corner")


def _e_bessel(r: int, z: float, lam_t: float) -> float:
    # exp(-lam*t) * I_r(z) with z <= lam*t, evaluated without overflow
    return math.exp(z - lam_t) * bessel_i_scaled(r, z)


def joint_unconditional(
    v0: VelocitySign,
    component: str,
    t: float,
    params: MotionParams,
    beta: Optional[float] = None,
    x: Optional[float] = None,
) -> LawValue:
    """Joint law of (M(t), T(t)) given only the starting sign, by component:

    - "density": continuous density in (beta, x) on the wedge;
    - "max_equals_position": density in beta on the line M = T(t);
    - "diagonal" (positive start): density in beta on the line T = 2M - ct;
    - "max_zero" (negative start): density in x on the slice M = 0;
    - "corner": the point atom at (ct, ct) resp. (0, -ct), mass exp(-lam*t).
    """
    c, lam = params.c, params.lam
    ct, lam_t = c * t, params.lam * t
    if component == "corner":
        at = f"M = T = {ct}" if v0 is VelocitySign.PLUS else f"M = 0, T = {-ct}"
        return LawValue("atom", math.exp(-lam_t), at=at)
    if component == "diagonal":
        if v0 is not VelocitySign.PLUS:
            raise ValueError("diagonal component exists only for a positive start")
        val = lam * math.exp(-lam_t) / c if 0.0 < beta < ct else 0.0
        return LawValue("density", val, at=f"M = {beta}, T = 2M - ct")
    if component == "max_equals_position":
        if not (0.0 < beta < ct):
            return LawValue("density", 0.0, at=f"M = T = {beta}")
        z = lam / c * math.sqrt(ct * ct - beta * beta)
        if v0 is VelocitySign.PLUS:
            val = lam * beta / (c * math.sqrt(ct * ct - beta * beta)) * _e_bessel(1, z, lam_t)
        else:
            val = (
                lam * beta / c * _e_bessel(0, z, lam_t)
                + math.sqrt((ct - beta) / (ct + beta)) * _e_bessel(1, z, lam_t)
            ) / (ct + beta)
        return LawValue("density", val, at=f"M = T = {beta}")
    if component == "max_zero":
        if v0 is not VelocitySign.MINUS:
            raise ValueError("max_zero component exists only for a negative start")
        if not (-ct < x <= 0.0):
            return LawValue("density", 0.0, at=f"M = 0, T = {x}")
        z = lam / c * math.sqrt(ct * ct - x * x)
        val = -lam * x / (c * (ct - x)) * _e_bessel(0, z, lam_t) + (
            (ct + x) / (ct - x) - lam * x / c
        ) / math.sqrt(ct * ct - x * x) * _e_bessel(1, z, lam_t)
        return LawValue("density", val, at=f"M = 0, T = {x}")
    if component == "density":
        if not _in_wedge(beta, x, ct):
            return LawValue("density", 0.0, at=f"M = {beta}, T = {x}")
        w = 2 * beta - x
        z = lam / c * math.sqrt(ct * ct - w * w)
        i0 = _e_bessel(0, z, lam_t)
        i1 = _e_bessel(1, z, lam_t)
        if v0 is VelocitySign.PLUS:
            val = (
                lam
                / (c * math.sqrt(ct + w))
                * (
                    lam * w / (c * math.sqrt(ct + w)) * i0
                    + (lam * w / (c * math.sqrt(ct - w)) + math.sqrt(ct - w) / (ct + w)) * i1
                )
            )
        else:
            q = math.sqrt((ct - w) / (ct + w))
            i2 = _e_bessel(2, z, lam_t)
            i3 = _e_bessel(3, z, lam_t)
            val = lam * lam / (2 * c * c) * (i0 + q * i1 - q * q * i2 - q**3 * i3)
        return LawValue("density", val, at=f"M = {beta}, T = {x}")
    raise ValueError(f"unknown joint component {component!r}; one of {JOINT_COMPONENTS}")


# ---------------------------------------------------------------------------
# first-passage time laws
# ---------------------------------------------------------------------------

def fpt_pdf(
    v0: VelocitySign, n: int, beta: float, s: float, t: float, c: float
) -> float:
    """Density in s of the first passage across beta > 0 given (v0, N(t) = n).

    Support is (beta/c, t]; the region s > t is out of the theory's scope and
    raises.  The j = 0 terms of the negative-start sums are evaluated in
    cancelled form, so the support edge s = beta/c is regular.
    """
    if s > t:
        raise OutOfScopeError("first-passage density for s > t is not available")
    if beta <= 0:
        raise ValueError(f"level must be > 0, got {beta}")
    if s < beta / c or n == 0:
        return 0.0
    disc = max(c * c * s * s - beta * beta, 0.0)  # >= 0 on the closed support
    if v0 is VelocitySign.PLUS:
        k = n // 2 if n % 2 == 0 else (n - 1) // 2
        acc = 0.0
        for j in range(1, k + 1):
            e = n - 2 * j
            acc += (
                _coef((), (j, j - 1, e))
                * (t - s) ** e
                * disc ** (j - 1)
                / (2 * c) ** (2 * j - 1)
            )
        return _coef((n,), ()) * beta / t**n * acc
    # negative start
    acc = 0.0
    k = (n - 1) // 2 if n % 2 == 1 else n // 2
    for j in range(0, k + 1):
        e = n - 1 - 2 * j
        rec = _coef((), (j, j + 1, e))
        if rec == 0.0:
            continue
        if j == 0:
            poly = 1.0  # (disc)^(-1) (cs - beta)(cs + beta) cancels exactly
        else:
            poly = disc ** (j - 1) * (c * s - beta) * (c * s + (2 * j + 1) * beta)
        acc += rec * (t - s) ** e * poly / (2.0 ** (2 * j + 1) * c ** (2 * j))
    return _coef((n,), ()) / t**n * acc


def fpt_density(
    cond: Conditioning, beta: float, s: float, t: float, params: MotionParams
) -> LawValue:
    n = _require_n(cond)
    return LawValue(
        "density", fpt_pdf(cond.v0, n, beta, s, t, params.c), at=f"F_beta = {s}"
    )


def fpt_atom(cond: Conditioning, beta: float, t: float, params: MotionParams) -> LawValue:
    """Mass of {F_beta = beta/c}; zero for a negative start."""
    n = _require_n(cond)
    at = f"F_beta = {beta / params.c}"
    if cond.v0 is VelocitySign.MINUS:
        return LawValue("atom", 0.0, at=at)
    ct = params.c * t
    if not (0.0 < beta < ct):
        return LawValue("atom", 0.0 if beta >= ct else 1.0, at=at)
    return LawValue("atom", (1.0 - beta / ct) ** n, at=at)


def fpt_pdf_unconditional(
    v0: VelocitySign, beta: float, t: float, params: MotionParams
) -> float:
    """Density in t of the first passage across beta > 0 given only V(0)."""
    c, lam = params.c, params.lam
    if beta <= 0:
        raise ValueError(f"level must be > 0, got {beta}")
    if t <= beta / c:
        return 0.0
    ct, lam_t = c * t, lam * t
    root = math.sqrt(ct * ct - beta * beta)
    z = lam / c * root
    if v0 is VelocitySign.PLUS:
        return lam * beta / root * _e_bessel(1, z, lam_t)
    return (
        lam * beta * _e_bessel(0, z, lam_t)
        + c * math.sqrt((ct - beta) / (ct + beta)) * _e_bessel(1, z, lam_t)
    ) / (ct + beta)


def fpt_density_unconditional(
    v0: VelocitySign, beta: float, t: float, params: MotionParams
) -> LawValue:
    return LawValue(
        "density", fpt_pdf_unconditional(v0, beta, t, params), at=f"F_beta = {t}"
    )


def fpt_atom_unconditional(
    v0: VelocitySign, beta: float, params: MotionParams
) -> LawValue:
    at = f"F_beta = {beta / params.c}"
    if v0 is VelocitySign.MINUS:
        return LawValue("atom", 0.0, at=at)
    return LawValue("atom", math.exp(-params.lam * beta / params.c), at=at)


def fpt_endpoint_pdf(
    v0: VelocitySign, n: int, beta: float, t: float, c: float
) -> float:
    """Closed form of the first-passage density at its endpoint s = t.

    Positive start needs n = 2k even (k >= 1), negative start n = 2k+1 odd;
    other parities have no mass at s = t.
    """
    ct = c * t
    if not (0.0 < beta < ct):
        return 0.0
    disc = ct * ct - beta * beta
    if v0 is VelocitySign.PLUS:
        if n % 2 == 1 or n == 0:
            return 0.0
        k = n // 2
        return (
            2
            * _coef((2 * k - 1,), (k - 1, k - 1))
            * disc ** (k - 1)
            / (2 * ct) ** (2 * k - 1)
            * beta
            / t
        )
    if n % 2 == 0:
        return 0.0
    k = (n - 1) // 2
    if k == 0:
        return 1.0 / (2 * t)
    return (
        math.comb(2 * k + 1, k)
        * disc ** (k - 1)
        * (ct - beta)
        * (ct + (2 * k + 1) * beta)
        / (c ** (2 * k) * (2 * t) ** (2 * k + 1))
    )


def fpt_endpoint_identity(
    cond: Conditioning, beta: float, t: float, params: MotionParams
) -> LawValue:
    n = _require_n(cond)
    return LawValue(
        "density", fpt_endpoint_pdf(cond.v0, n, beta, t, params.c), at="F_beta = t"
    )


# ---------------------------------------------------------------------------
# return time to the origin
# ---------------------------------------------------------------------------

def _return_ac_sum(n: int, s: float, t: float) -> float:
    # absolutely continuous sums of the printed conditional return laws
    if n % 2 == 1:
        k = (n - 1) // 2
        js = range(1, k + 1)
        exp_of = lambda j: 2 * k - 2 * j
        pref = _coef((2 * k + 1,), ()) / t ** (2 * k + 1)
    else:
        k = n // 2
        js = range(1, k)
        exp_of = lambda j: 2 * k - 1 - 2 * j
        pref = _coef((2 * k,), ()) / t ** (2 * k)
    acc = 0.0
    for j in js:
        e = exp_of(j)
        acc += (
            _coef((), (j, j + 1, e))
            * (t - s) ** e
            * s ** (2 * j)
            / 2.0 ** (2 * j + 1)
        )
    return pref * acc


def return_pdf_printed(n: int, s: float, t: float) -> float:
    """Literal evaluation of the printed conditional return-time densities.

    The velocity sign is irrelevant.  Note the even-n sums are empty for
    n = 2 and this evaluator faithfully returns 0 there; see
    return_pdf_corrected for the form that matches simulation.
    """
    if s > t:
        raise OutOfScopeError("return-time density for s > t is not available")
    if n < 1 or s < 0:
        return 0.0
    if n == 1:
        return 1.0 / (2 * t)
    return _return_ac_sum(n, s, t)


def return_pdf_corrected(n: int, s: float, t: float) -> float:
    """Conditional return-time density including the contribution of the
    singular first-passage component in the underlying convolution.

    The inner first-passage law has an atom at the straight-line hit, which
    fires when the first switch happens at s/2 and contributes
    n (t - s)^(n-1) / (2 t^n); the printed sums carry only the absolutely
    continuous part.  This form matches the order-statistics oracle.
    """
    if s > t:
        raise OutOfScopeError("return-time density for s > t is not available")
    if n < 1 or s < 0:
        return 0.0
    atom_term = n * (t - s) ** (n - 1) / (2 * t**n)
    ac = 0.0 if n == 1 else _return_ac_sum(n, s, t)
    return ac + atom_term


def return_density_printed(
    cond: Conditioning, s: float, t: float, params: MotionParams
) -> LawValue:
    n = _require_n(cond)
    return LawValue("density", return_pdf_printed(n, s, t), at=f"F_0 = {s}")


def return_density_corrected(
    cond: Conditioning, s: float, t: float, params: MotionParams
) -> LawValue:
    n = _require_n(cond)
    return LawValue("density", return_pdf_corrected(n, s, t), at=f"F_0 = {s}")


def return_pdf_unconditional(t: float, params: MotionParams) -> float:
    """Density exp(-lam*t) I_1(lam*t) / t of the first return to the origin;
    independent of c."""
    if t <= 0:
        return 0.0
    return bessel_i_scaled(1, params.lam * t) / t


def return_density_unconditional(t: float, params: MotionParams) -> LawValue:
    return LawValue("density", return_pdf_unconditional(t, params), at=f"F_0 = {t}")


# ---------------------------------------------------------------------------
# JSON query interface
# ---------------------------------------------------------------------------

def _require_n(cond: Conditioning) -> int:
    if cond.n is None:
        raise ValueError("this law requires a switch-count conditioning")
    return cond.n


def evaluate_query(query: dict) -> dict:
    """Evaluate one JSON law query.

    Input keys: v0 ("+"/"-"), n (int or null), law, t, c, lambda, and the
    law's free variables among x, beta, s.  Output: {"kind", "value", "at"}.
    """
    v0 = VelocitySign.from_str(query["v0"])
    n = query.get("n")
    cond = Conditioning(v0, n)
    params = MotionParams(c=float(query["c"]), lam=float(query["lambda"]))
    t = float(query["t"])
    law = query["law"]
    x = query.get("x")
    beta = query.get("beta")
    s = query.get("s")
    if law == "position":
        lv = position_density(cond, float(x), t, params)
    elif law == "max":
        lv = max_density(cond, float(beta), t, params)
    elif law == "max_cdf":
        lv = max_cdf(cond, float(beta), t, params)
    elif law == "joint":
        if n is None:
            lv = joint_unconditional(
                v0, query.get("component", "density"), t, params, beta=beta, x=x
            )
        else:
            lv = joint_density(cond, float(beta), float(x), t, params)
    elif law == "joint_cdf":
        lv = joint_cdf_in_max(cond, float(beta), float(x), t, params)
    elif law == "fpt":
        if n is None:
            lv = fpt_density_unconditional(v0, float(beta), t, params)
        else:
            lv = fpt_density(cond, float(beta), float(s), t, params)
    elif law == "return":
        if n is None:
            lv = return_density_unconditional(t, params)
        else:
            lv = return_density_corrected(cond, float(s), t, params)
    elif law == "return_printed":
        lv = return_density_printed(cond, float(s), t, params)
    else:
        raise ValueError(f"unknown law {law!r}")
    return {"kind": lv.kind, "value": lv.value, "at": lv.at}


def evaluate_query_json(line: str) -> str:
    return json.dumps(evaluate_query(json.loads(line)))
