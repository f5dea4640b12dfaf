"""Closed-form distributions of the motion, its running maximum, their joint
law (absolutely continuous and singular components), first-passage times and
return times, conditioned on the initial velocity sign and, where stated, on
the number of switches in [0, t].

Conventions
-----------
* Every law is a numpy array function of its variables: they broadcast
  against each other, and a scalar is the size-1 case (it gives a scalar
  back, rounded as it is in a grid).  Arguments are finite (a non-finite
  one may give NaN); ``Resolved.values`` rejects the others first.
* Given (v0, n), a conditional law is a polynomial in the scaled variables
  u = x/ct, b = beta/ct or sigma = s/t, divided by ct (ct^2 for the joint
  density, t for the passage laws).  Its coefficients are ratios of binomials,
  each computed once per call as one correctly rounded integer division, and
  its large powers are taken on bounded factors such as (1 - u)(1 + u) <= 1.
  So the position, maximum and joint laws stay finite up to n = 10^4.  The
  first-passage and return laws stay finite up to n of about 1020; beyond,
  their largest coefficient leaves the float range and they raise
  OverflowError.
* Evaluators return 0 outside their stated supports.  The single exception is
  a first-passage/return query at s > t, which raises: that region is
  unspecified rather than zero.
* Unconditional laws are evaluated through the scaled primitive
  exp(-z) * I_r(z), so no intermediate exp overflow can occur.
* The first passage is read off the maximum, as in the paper's last section:
  the passage density at s = t given (v0, n), and the unconditional passage
  density in t, equal c times the density of the line M(t) = T(t) at beta.
  The unconditional law is computed that way; the conditional one has its own
  sum, and the relation is one of its checks.

The table ``LAWS`` holds every law a query can name.  ``resolve`` binds a
query's fixed part once and returns the law as an array function of its free
variables; ``telegraph eval`` goes through it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .bessel import bessel_i_scaled
from .params import MotionParams, VelocitySign


class OutOfScopeError(ValueError):
    """Raised for queries the theory intentionally does not cover (s > t)."""


def _check_range(kind: str, value: float, at: str) -> None:
    """Refuse a law value out of range: a negative one, or an atom or cdf
    above 1; ``at`` labels the value in the message."""
    if value < 0:
        raise ValueError(f"negative law value {value} ({at})")
    if kind != "density" and value > 1 + 1e-12:
        raise ValueError(f"{kind} value {value} exceeds 1 ({at})")


def _arr(v):
    # floats pass as they are; anything else becomes a float array (a numpy
    # scalar if 0-d), so a scalar call does cheap scalar arithmetic
    return v if isinstance(v, float) else np.asarray(v, dtype=float)[()]


def _zero(*arrays):
    """Zeros in the broadcast shape of ``arrays``: a law that vanishes."""
    return np.zeros(np.broadcast_shapes(*map(np.shape, arrays)))[()]


def _on(inside, value):
    """``value`` where ``inside`` holds and 0 elsewhere, for a finite ``value``:
    the product is the value or a signed zero, and adding 0.0 clears the sign."""
    return value * inside + 0.0


def _pow(x, e: int):
    """x**e for an integer e >= -1: a quotient, a product of up to 3 factors,
    or ``np.power``.  None of these depends on the shape of x, so a size-1
    call rounds as a grid call does."""
    if e > 3:
        return np.power(x, e)
    return 1 / x if e < 0 else math.prod([x] * e, start=1.0)


def _bump(u, a: int, b: int):
    """(1 - u)^a (1 + u)^b for |u| <= 1 and integers a, b >= -1.

    The common power is taken on (1 - u)(1 + u) <= 1, so no factor
    overflows at large exponents."""
    lo, hi = 1 - u, 1 + u
    m = max(min(a, b), 0)
    return _pow(lo * hi, m) * _pow(lo, a - m) * _pow(hi, b - m)


# ---------------------------------------------------------------------------
# position laws
# ---------------------------------------------------------------------------

def _position(n: int, u, sign: int):
    """ct times the position density at u = x/ct given n switches and
    V(0) = sign*c; sign 0 averages over the velocity."""
    k, odd = divmod(n, 2)
    if odd:
        return math.comb(n, k) * (k + 1) / 2**n * _bump(u, k, k)
    return math.comb(n, k) * k / 4**k * _bump(u, k - 1, k - 1) * (1 + sign * u)


def position_pdf(sign: int, n: int, x, t: float, c: float):
    """Density of the position given V(0) = sign*c and n >= 1 switches
    (sign 0: velocity averaged)."""
    ct = c * t
    x = _arr(x)
    if n == 0:
        return _zero(x)
    inside = (-ct <= x) & (x <= ct)
    return _on(inside, _position(n, x / ct * inside, sign) / ct)


# ---------------------------------------------------------------------------
# maximum laws
# ---------------------------------------------------------------------------

def max_pdf(v0: VelocitySign, n: int, beta, t: float, c: float):
    """Density of the running maximum on (0, ct), conditioned on (v0, n >= 1)."""
    ct = c * t
    beta = _arr(beta)
    if n == 0:
        return _zero(beta)
    inside = (0.0 <= beta) & (beta <= ct)
    b = beta / ct * inside
    k, odd = divmod(n, 2)
    if v0 is VelocitySign.PLUS:
        value = 2 * _position(n, b, 0)
    elif not odd:  # classical reflection
        value = 2 * _position(n, b, -1)
    else:
        value = math.comb(n, k) / 2**n * _bump(b, k, k - 1) * (n + b)
    return _on(inside, value / ct)


def max_atom_zero(v0: VelocitySign, n: int) -> float:
    """Mass of {M(t) = 0}; positive only for a negative start.  The value is
    C(2k, k)/4^k for n in {2k-1, 2k} and does not depend on t or c."""
    if v0 is VelocitySign.PLUS:
        return 0.0
    k = (n + 1) // 2
    return math.comb(2 * k, k) / 4**k


def _max_cdf(v0: VelocitySign, n: int, b):
    # P{M(t) <= b ct} for 0 <= b < 1
    if v0 is VelocitySign.PLUS:
        # b * sum_{j <= (n-1)/2} C(2j, j)/4^j (1 - b^2)^j, by Horner's rule;
        # C(2j, j) steps down exactly, as C(2j - 2, j - 1) = C(2j, j) j / (4j - 2)
        y, acc = (1 - b) * (1 + b), 0.0 * b
        k = (n - 1) // 2
        central = math.comb(2 * k, k) if n else 0
        for j in range(k, -1, -1):
            acc = acc * y + central / 4**j
            central = central * j // (4 * j - 2) if j else 0
        return b * acc
    k, odd = divmod(n, 2)
    if not odd:
        return _max_cdf(VelocitySign.PLUS, n, b) + math.comb(n, k) / 4**k * _bump(b, k, k)
    return (n * _max_cdf(VelocitySign.MINUS, n - 1, b) + _max_cdf(VelocitySign.PLUS, n, b)) / (
        n + 1
    )


def max_cdf_value(v0: VelocitySign, n: int, beta, t: float, c: float):
    """P{M(t) <= beta} given (v0, n)."""
    ct = c * t
    beta = _arr(beta)
    inside = (0.0 <= beta) & (beta < ct)
    return _on(inside, _max_cdf(v0, n, beta / ct * inside)) + (beta >= ct)


# ---------------------------------------------------------------------------
# joint laws (M(t), T(t)) given (v0, n)
# ---------------------------------------------------------------------------

def _in_wedge(beta, x, ct):
    return (0.0 <= beta) & (beta <= ct) & (2 * beta - ct <= x) & (x <= beta)


def joint_pdf(v0: VelocitySign, n: int, beta, x, t: float, c: float):
    """Absolutely continuous part of the joint law, a density in (beta, x) on
    the wedge 0 < beta < ct, 2*beta - ct < x < beta.  Here v = (2*beta - x)/ct
    lies in (beta/ct, 1); one switch carries no absolutely continuous mass."""
    ct = c * t
    beta, x = _arr(beta), _arr(x)
    if n < 2:
        return _zero(beta, x)
    inside = _in_wedge(beta, x, ct)
    v = (2 * beta - x) / ct * inside
    k, odd = divmod(n, 2)
    if not odd:  # same expression for both starting signs
        value = math.comb(n, k) * k / 2 ** (n - 1) * _bump(v, k - 1, k - 2) * (1 + (n - 1) * v)
    elif v0 is VelocitySign.PLUS:
        value = math.comb(n, k) * k * (k + 1) / 2 ** (n - 2) * _bump(v, k - 1, k - 1) * v
    else:
        value = math.comb(n, k) * k / 2 ** (n - 2) * _bump(v, k, k - 2) * (1 + k * v)
    return _on(inside, value / (ct * ct))


def joint_atom_max_equals_position_pdf(
    v0: VelocitySign, n: int, beta, t: float, c: float
):
    """Density in beta of the singular line M(t) = T(t) = beta.  Nonzero only
    when the final velocity is +c: (PLUS, even n) and (MINUS, odd n)."""
    ct = c * t
    beta = _arr(beta)
    k, odd = divmod(n, 2)
    if n == 0 or (v0 is VelocitySign.PLUS) == bool(odd):
        return _zero(beta)
    inside = (0.0 <= beta) & (beta <= ct)
    b = beta / ct * inside
    if odd:
        value = math.comb(n, k) / 2**n * _bump(b, k, k - 1) * (1 + n * b)
    else:
        value = math.comb(n, k) * k / 2 ** (n - 1) * _bump(b, k - 1, k - 1) * b
    return _on(inside, value / ct)


def joint_atom_diagonal_pdf(v0: VelocitySign, n: int, beta, t: float, c: float):
    """Density in beta of the line T(t) = 2M(t) - ct, carried entirely by the
    single-switch positive-start paths."""
    ct = c * t
    beta = _arr(beta)
    if v0 is VelocitySign.MINUS or n != 1:
        return _zero(beta)
    return _on((0.0 <= beta) & (beta <= ct), 1.0 / ct)


def joint_atom_max_zero_pdf(v0: VelocitySign, n: int, x, t: float, c: float):
    """Density in x on the slice M(t) = 0, x in (-ct, 0], negative start."""
    ct = c * t
    x = _arr(x)
    if v0 is VelocitySign.PLUS or n == 0:
        return _zero(x)
    inside = (-ct <= x) & (x <= 0.0)
    u = x / ct * inside
    k, odd = divmod(n, 2)
    if odd:
        value = math.comb(n, k) / 2**n * _bump(u, k - 1, k) * (1 - n * u)
    else:  # position density for V(0) = -c minus the one for V(0) = +c
        value = math.comb(n, k) * k / 2 ** (n - 1) * _bump(u, k - 1, k - 1) * -u
    return _on(inside, value / ct)


def joint_cdf_in_max_pdf(v0: VelocitySign, n: int, beta, x, t: float, c: float):
    """Density in x of P{M(t) <= beta, T(t) in dx}: the three-branch form of
    the negative reflection principle, with its mirrored negative-start
    versions."""
    ct = c * t
    beta, x = _arr(beta), _arr(x)
    if n == 0:
        return _zero(beta, x)
    inside = (-ct < x) & (x < ct) & (beta >= 0.0) & (beta >= x)
    # below (ct + x)/2 the level cuts paths, whose reflections at v are removed
    cut = inside & (beta < (ct + x) / 2)
    u, v = x / ct * inside, (2 * beta - x) / ct * cut
    k, odd = divmod(n, 2)
    if v0 is VelocitySign.PLUS or not odd:
        above = _position(n, v, -1)
    else:
        above = math.comb(n, k) * k / 2**n * _bump(v, k + 1, k - 1)
    value = _position(n, u, v0.value_sign) - _on(cut, above)
    return _on(inside, value / ct)


# ---------------------------------------------------------------------------
# unconditional joint laws (Bessel forms)
# ---------------------------------------------------------------------------

#: parts of the joint law: the density on the wedge, the lines M = T and
#: T = 2M - ct (positive start only), the slice M = 0 (negative start only)
#: and, without a switch count, the corner atom at (ct, ct) resp. (0, -ct)
#: of mass exp(-lam*t)
JOINT_COMPONENTS = ("density", "max_equals_position", "diagonal", "max_zero", "corner")


def _bessel_args(lam_t: float, u):
    """s = sqrt(1 - u^2) at u = w/ct, the Bessel argument z = lam*t*s and the gap
    lam*t - z = lam*t*u^2/(1 + s), which as a difference would be one ulp of lam*t
    past lam*t of about 1e17, where the true gap is near 0; ct is never squared."""
    s = np.sqrt((1 - u) * (1 + u))
    return s, lam_t * s, lam_t * u * u / (1 + s)


def _e_bessel(r: int, z, gap):
    # exp(-lam*t) * I_r(z), given the gap lam*t - z >= 0, without overflow
    return np.exp(-gap) * bessel_i_scaled(r, z)


def joint_pdf_unconditional(
    v0: VelocitySign, beta, x, t: float, params: MotionParams
):
    """Continuous density of (M(t), T(t)) in (beta, x) on the wedge, given
    only the starting sign."""
    c, lam = params.c, params.lam
    ct, lam_t = c * t, params.lam * t
    beta, x = _arr(beta), _arr(x)
    inside = _in_wedge(beta, x, ct)
    w = np.minimum(2 * beta - x, ct) * inside
    _, z, gap = _bessel_args(lam_t, w / ct)
    i0 = _e_bessel(0, z, gap)
    i1 = _e_bessel(1, z, gap)
    if v0 is VelocitySign.PLUS:
        # on the edge x = 2*beta - ct, where z = 0, I_1(z)/z -> 1/2 gives
        # I_1(z)/sqrt(ct - w) -> lam*sqrt(2*ct)/(2*c)
        edge = w == ct
        below = np.where(edge, ct, ct - w)  # any positive stand-in on the edge
        value = (
            lam
            / (c * np.sqrt(ct + w))
            * (
                lam * w / (c * np.sqrt(ct + w)) * i0
                + (lam * w / (c * np.sqrt(below)) + np.sqrt(below) / (ct + w)) * i1
            )
        )
        value = np.where(edge, lam / c * (lam / c) / 2 * (1 + lam_t) * math.exp(-lam_t), value)
        return _on(inside, value)
    q = np.sqrt((ct - w) / (ct + w))
    i2 = _e_bessel(2, z, gap)
    i3 = _e_bessel(3, z, gap)
    return _on(inside, lam / c * (lam / c) / 2 * (i0 + q * i1 - q * q * i2 - q * q * q * i3))


def joint_atom_max_equals_position_pdf_unconditional(
    v0: VelocitySign, beta, t: float, params: MotionParams
):
    """Density in beta of the line M(t) = T(t) = beta, given only V(0)."""
    c, lam = params.c, params.lam
    ct = c * t
    beta = _arr(beta)
    inside = (0.0 < beta) & (beta < ct)
    if not np.all(inside):  # a stand-in level; where none is needed, a scalar stays one
        beta = np.where(inside, beta, 0.5 * ct)
    u = beta / ct
    s, z, gap = _bessel_args(lam * t, u)
    if v0 is VelocitySign.PLUS:
        return _on(inside, lam / c * u / s * _e_bessel(1, z, gap))
    return _on(inside, (
        lam / c * u * _e_bessel(0, z, gap)
        + np.sqrt((1 - u) / (1 + u)) / ct * _e_bessel(1, z, gap)
    ) / (1 + u))


def joint_atom_diagonal_pdf_unconditional(
    v0: VelocitySign, beta, t: float, params: MotionParams
):
    """Density in beta of the line T(t) = 2M(t) - ct, positive start only."""
    if v0 is not VelocitySign.PLUS:
        raise ValueError("diagonal component exists only for a positive start")
    c, lam = params.c, params.lam
    ct, lam_t = c * t, params.lam * t
    beta = _arr(beta)
    return _on((0.0 < beta) & (beta < ct), lam * math.exp(-lam_t) / c)


def joint_atom_max_zero_pdf_unconditional(
    v0: VelocitySign, x, t: float, params: MotionParams
):
    """Density in x on the slice M(t) = 0, negative start only."""
    if v0 is not VelocitySign.MINUS:
        raise ValueError("max_zero component exists only for a negative start")
    c, lam = params.c, params.lam
    ct = c * t
    x = _arr(x)
    inside = (-ct < x) & (x <= 0.0)
    u = np.where(inside, x, -0.5 * ct) / ct
    s, z, gap = _bessel_args(lam * t, u)
    return _on(inside, -lam / c * u / (1 - u) * _e_bessel(0, z, gap) + (
        (1 + u) / ((1 - u) * ct) - lam / c * u
    ) / s * _e_bessel(1, z, gap))


# ---------------------------------------------------------------------------
# first-passage time laws
# ---------------------------------------------------------------------------

def _check_horizon(s, t: float, law: str) -> None:
    if np.any(s > t):
        raise OutOfScopeError(f"{law} density for s > t is not available")


def _check_level(beta) -> None:
    if not np.all(beta > 0):
        raise ValueError(f"level must be > 0, got {np.min(beta)}")


def fpt_pdf(v0: VelocitySign, n: int, beta, s, t: float, c: float):
    """Density in s of the first passage across beta > 0 given (v0, N(t) = n).

    Support is (beta/c, t]; the region s > t is out of the theory's scope and
    raises.  In sigma = s/t and b = beta/ct the law is (1/t) times a sum of
    terms (1 - sigma)^e (sigma - b)^j (sigma + b)^i times a linear factor; the
    j = 0 term of the negative-start sum has i = -1 and that linear factor is
    sigma + b, so the support edge sigma = b is regular.
    """
    s, beta = _arr(s), _arr(beta)
    _check_horizon(s, t, "first-passage")
    _check_level(beta)
    if n == 0:
        return _zero(s, beta)
    inside = s >= beta / c
    sigma = np.where(inside, s / t, 1.0)
    b = beta / (c * t) * inside
    rise = np.maximum(sigma - b, 0.0)  # >= 0 on the closed support
    if v0 is VelocitySign.PLUS:
        terms = (
            math.comb(n, 2 * j) * math.comb(2 * j, j) * j / 2 ** (2 * j - 1)
            * np.power(1 - sigma, n - 2 * j) * np.power(rise * (sigma + b), j - 1)
            for j in range(1, n // 2 + 1)
        )
        return _on(inside, b * sum(terms, 0.0 * b) / t)
    terms = (
        math.comb(n, 2 * j + 1) * math.comb(2 * j + 1, j) / 2 ** (2 * j + 1)
        * np.power(1 - sigma, n - 1 - 2 * j) * np.power(rise, j)
        * np.power(sigma + b, j - 1) * (sigma + (2 * j + 1) * b)
        for j in range((n + 1) // 2)
    )
    return _on(inside, sum(terms, 0.0 * b) / t)


def fpt_atom(v0: VelocitySign, n: int, beta: float, t: float, c: float) -> float:
    """Mass of {F_beta = beta/c}; zero for a negative start."""
    if v0 is VelocitySign.MINUS:
        return 0.0
    ct = c * t
    if not (0.0 < beta < ct):
        return 0.0 if beta >= ct else 1.0
    return (1.0 - beta / ct) ** n


def fpt_pdf_unconditional(v0: VelocitySign, beta: float, t, params: MotionParams):
    """Density in t of the first passage across beta > 0 given only V(0): c
    times the density of the line M(t) = T(t) at beta."""
    _check_level(beta)
    t = _arr(t)
    inside = t > beta / params.c
    if not np.any(inside):
        return _zero(t)  # and no arithmetic below, which would underflow at a high level
    t = np.where(inside, t, 2 * beta / params.c)  # any horizon past beta/c
    return _on(inside, params.c * joint_atom_max_equals_position_pdf_unconditional(
        v0, beta, t, params))


def fpt_atom_unconditional(v0: VelocitySign, beta: float, params: MotionParams) -> float:
    """Mass of {F_beta = beta/c} given only V(0): no switch before beta/c."""
    if v0 is VelocitySign.MINUS:
        return 0.0
    return math.exp(-params.lam * beta / params.c)


# ---------------------------------------------------------------------------
# return time to the origin
# ---------------------------------------------------------------------------

def _return_sum(n: int, s, t: float, first: int):
    """(1/t) sum over j >= first of n!/(j! (j+1)! (n-1-2j)!) / 2^(2j+1)
    (1 - s/t)^(n-1-2j) (s/t)^(2j): the printed conditional return laws, whose
    j = 0 term is the inner first-passage atom."""
    s = _arr(s)
    _check_horizon(s, t, "return-time")
    if n == 0:
        return _zero(s)
    inside = s >= 0.0
    sigma = s / t * inside
    terms = (
        math.comb(n, 2 * j + 1) * math.comb(2 * j + 1, j) / 2 ** (2 * j + 1)
        * np.power(1 - sigma, n - 1 - 2 * j) * np.power(sigma, 2 * j)
        for j in range(first, (n + 1) // 2)
    )
    return _on(inside, sum(terms, 0.0 * sigma) / t)


def return_pdf_printed(n: int, s, t: float):
    """Literal evaluation of the printed conditional return-time densities.

    The velocity sign is irrelevant.  Note the even-n sums are empty for
    n = 2 and this evaluator faithfully returns 0 there; see
    return_pdf_corrected for the form that matches simulation.
    """
    return _return_sum(n, s, t, first=1 if n > 1 else 0)


def return_pdf_corrected(n: int, s, t: float):
    """Conditional return-time density including the contribution of the
    singular first-passage component in the underlying convolution.

    The inner first-passage law has an atom at the straight-line hit, which
    fires when the first switch happens at s/2 and contributes
    n (t - s)^(n-1) / (2 t^n); the printed sums carry only the absolutely
    continuous part.  This form matches the order-statistics oracle.
    """
    return _return_sum(n, s, t, first=0)


def return_pdf_unconditional(t, params: MotionParams):
    """Density exp(-lam*t) I_1(lam*t) / t of the first return to the origin;
    independent of c."""
    t = _arr(t)
    inside = t > 0
    t = np.where(inside, t, 1.0)
    return _on(inside, bessel_i_scaled(1, params.lam * t) / t)


# ---------------------------------------------------------------------------
# the law table and the query interface
# ---------------------------------------------------------------------------

def _clenshaw(x, c):
    """The Legendre series with coefficients c at x, by Clenshaw's recurrence
    in the operation order of numpy's ``legval``."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1, nd = c[-2], c[-1], len(c)
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@functools.lru_cache(maxsize=256)
def _legendre(nodes: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1] (Golub and Welsch): the
    eigenvalues of the symmetric companion matrix of P_nodes, one Newton step,
    and weights from P_nodes' and P_(nodes-1) at the nodes, symmetrised and
    scaled to total 2.  These are the steps and the operation order of numpy's
    ``leggauss``, so the rule is the same to the bit, without importing
    ``numpy.polynomial``.  ``nodes`` is not checked here: every caller in the
    package passes n // 2 + 2 or ``_MAX_NODES``, so at least 2."""
    k = np.arange(nodes)
    scale = 1.0 / np.sqrt(2 * k + 1)
    off = k[1:] * scale[:-1] * scale[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p = np.zeros(nodes + 1)
    p[-1] = 1.0  # P_nodes
    dp = np.where((nodes - k) % 2, 2.0 * k + 1, 0.0)  # P_nodes' = sum (2k + 1) P_k
    df = _clenshaw(x, dp)
    x = x - _clenshaw(x, p) / df
    fm = _clenshaw(x, p[1:])
    w = 1 / (fm / np.abs(fm).max() * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    return (x - x[::-1]) / 2, w * (2.0 / w.sum())


def _gauss(f: Callable[[np.ndarray], np.ndarray], pieces, nodes: int):
    """Gauss-Legendre integral over consecutive pieces, exact to degree 2*nodes - 1.
    The piece ends may be arrays of one shape, for a family of intervals: f is
    called once, on the nodes of every piece along a new last axis."""
    x, w = _legendre(nodes)
    ends = np.asarray(pieces, dtype=float)[..., None]
    half, mid = 0.5 * (ends[1:] - ends[:-1]), 0.5 * (ends[1:] + ends[:-1])
    return ((half * f(mid + half * x)) @ w).sum(axis=0)


#: Most Gauss-Legendre nodes per bin of an interval mass (exact to
#: degree 127, so to n = 124), and most law points it evaluates at once
_MAX_NODES, _MAX_POINTS = 64, 1 << 16


def _overflow(law: str, n: Optional[int]) -> OverflowError:
    where = "given only V(0)" if n is None else f"at n = {n}"
    return OverflowError(f"law {law} {where} overflows a float")


@dataclass
class _Fixed:
    """A query's fixed part: everything but the law's free variables."""

    v0: VelocitySign
    n: Optional[int]
    t: float
    params: MotionParams
    beta: Optional[float]  # level of the first-passage law

    def __post_init__(self):
        self.sign = self.v0.value_sign
        self.c = self.params.c


@dataclass(frozen=True)
class _Law:
    """One entry of the law table.

    ``free`` names the free variables in the order the law functions take
    them.  ``at`` labels a value with one ``{var}`` field per free variable,
    or is a function of the fixed part when the label depends on it.
    ``cond`` and ``uncond`` bind a fixed part, with a switch count or with
    only V(0), into an array function of the free variables; None marks a
    case the law does not have.  ``atoms`` gives the singular rows reported
    beside a grid, as ((beta, x, s), mass, label).  ``n0_at``, where set, labels
    the single atom of mass 1 that the law reduces to at n = 0.  ``support``
    gives the interval (lo, hi) that holds a law of one free variable.
    """

    free: tuple
    at: Union[str, Callable[[_Fixed], str]]
    cond: Optional[Callable[[_Fixed], Callable[..., np.ndarray]]] = None
    uncond: Optional[Callable[[_Fixed], Callable[..., np.ndarray]]] = None
    kind: str = "density"
    atoms: Callable[[_Fixed], tuple] = lambda q: ()
    n0_at: Optional[Callable[[_Fixed], str]] = None
    support: Optional[Callable[[_Fixed], tuple]] = None


#: (law, joint component or None) -> entry
LAWS = {
    ("position", None): _Law(
        ("x",), "T(t) = {x}",
        cond=lambda q: lambda x: position_pdf(q.sign, q.n, x, q.t, q.c),
        n0_at=lambda q: f"T(t) = {q.sign * q.c * q.t}",
        support=lambda q: (-(q.c * q.t), q.c * q.t),
    ),
    ("max", None): _Law(
        ("beta",), "M(t) = {beta}",
        cond=lambda q: lambda beta: max_pdf(q.v0, q.n, beta, q.t, q.c),
        atoms=lambda q: (((0.0, None, None), max_atom_zero(q.v0, q.n), "M(t) = 0"),),
        n0_at=lambda q: f"M(t) = {q.c * q.t if q.sign > 0 else 0}",
        support=lambda q: (0.0, q.c * q.t),
    ),
    ("max_cdf", None): _Law(
        ("beta",), "M(t) <= {beta}", kind="cdf",
        cond=lambda q: lambda beta: max_cdf_value(q.v0, q.n, beta, q.t, q.c),
    ),
    ("joint", "density"): _Law(
        ("beta", "x"), "M = {beta}, T = {x}",
        cond=lambda q: lambda beta, x: joint_pdf(q.v0, q.n, beta, x, q.t, q.c),
        uncond=lambda q: lambda beta, x: joint_pdf_unconditional(q.v0, beta, x, q.t, q.params),
    ),
    ("joint", "max_equals_position"): _Law(
        ("beta",), "M = T = {beta}",
        cond=lambda q: lambda beta: joint_atom_max_equals_position_pdf(
            q.v0, q.n, beta, q.t, q.c),
        uncond=lambda q: lambda beta: joint_atom_max_equals_position_pdf_unconditional(
            q.v0, beta, q.t, q.params),
        support=lambda q: (0.0, q.c * q.t),
    ),
    ("joint", "diagonal"): _Law(
        ("beta",), "M = {beta}, T = 2M - ct",
        cond=lambda q: lambda beta: joint_atom_diagonal_pdf(q.v0, q.n, beta, q.t, q.c),
        uncond=lambda q: lambda beta: joint_atom_diagonal_pdf_unconditional(
            q.v0, beta, q.t, q.params),
        support=lambda q: (0.0, q.c * q.t),
    ),
    ("joint", "max_zero"): _Law(
        ("x",), "M = 0, T = {x}",
        cond=lambda q: lambda x: joint_atom_max_zero_pdf(q.v0, q.n, x, q.t, q.c),
        uncond=lambda q: lambda x: joint_atom_max_zero_pdf_unconditional(
            q.v0, x, q.t, q.params),
        support=lambda q: (-(q.c * q.t), 0.0),
    ),
    ("joint", "corner"): _Law(
        (),
        lambda q: f"M = T = {q.c * q.t}" if q.sign > 0 else f"M = 0, T = {-(q.c * q.t)}",
        kind="atom",
        uncond=lambda q: lambda: math.exp(-(q.params.lam * q.t)),
    ),
    ("joint_cdf", None): _Law(
        ("beta", "x"), "M <= {beta}, T(t) = {x}",
        cond=lambda q: lambda beta, x: joint_cdf_in_max_pdf(q.v0, q.n, beta, x, q.t, q.c),
    ),
    ("fpt", None): _Law(
        ("s",), "F_beta = {s}",
        cond=lambda q: lambda s: fpt_pdf(q.v0, q.n, q.beta, s, q.t, q.c),
        uncond=lambda q: lambda: fpt_pdf_unconditional(q.v0, q.beta, q.t, q.params),
        atoms=lambda q: (((q.beta, None, q.beta / q.c), (
            fpt_atom_unconditional(q.v0, q.beta, q.params) if q.n is None
            else fpt_atom(q.v0, q.n, q.beta, q.t, q.c)), f"F_beta = {q.beta / q.c}"),),
        support=lambda q: (min(q.beta / q.c, q.t), q.t),
    ),
    ("return", None): _Law(
        ("s",), "F_0 = {s}",
        cond=lambda q: lambda s: return_pdf_corrected(q.n, s, q.t),
        uncond=lambda q: lambda: return_pdf_unconditional(q.t, q.params),
        support=lambda q: (0.0, q.t),
    ),
    ("return_printed", None): _Law(
        ("s",), "F_0 = {s}",
        cond=lambda q: lambda s: return_pdf_printed(q.n, s, q.t),
        support=lambda q: (0.0, q.t),
    ),
}


@dataclass(frozen=True)
class Resolved:
    """A law with its fixed part bound, evaluated on arrays of points.

    ``pdf`` is an array function of the free variables ``free``.  ``at``
    labels a value, field i taking free variable i.  ``atoms`` are the
    singular rows reported beside a grid, as ((beta, x, s), mass, label).
    ``support`` is the interval (lo, hi) that holds it, None where it has no
    interval mass.
    """

    law: str
    n: Optional[int]
    free: tuple
    kind: str
    at: str
    pdf: Callable[..., np.ndarray]
    atoms: tuple
    support: Optional[tuple]

    def values(self, *arrays) -> np.ndarray:
        """The law on the broadcast free-variable arrays.  The points are
        checked here, each to be finite, and the values by ``_values``; an
        error names the first point that fails."""
        arrays = [np.asarray(a, dtype=float) for a in arrays]
        for var, a in zip(self.free, arrays):
            if not np.isfinite(a).all():
                raise ValueError(f"law {self.law} needs a finite {var}, got {a[~np.isfinite(a)][0]}")
        return self._values(*arrays)

    def _values(self, *arrays) -> np.ndarray:
        """The law on finite float arrays, which the caller has checked.  A
        finite value in range passes one reduction; only when some value fails
        is the first failing point looked for, and an infinite or NaN value
        reported before one out of range."""
        if len({a.shape for a in arrays}) > 1:
            arrays = np.broadcast_arrays(*arrays)
        shape = arrays[0].shape if arrays else ()
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                values = self.pdf(*arrays)
        except OverflowError:
            raise _overflow(self.law, self.n) from None
        if not (isinstance(values, np.ndarray) and values.shape == shape):
            values = np.broadcast_to(values, shape)
        top = sys.float_info.max if self.kind == "density" else 1 + 1e-12
        if ((values >= 0) & (values <= top)).all():  # false at NaN too
            return values
        if not np.isfinite(values).all():
            raise _overflow(self.law, self.n)
        i = np.flatnonzero((values < 0) | (values > top))[0]
        _check_range(self.kind, values.flat[i], self.at.format(*(a.flat[i] for a in arrays)))

    def mass(self, edges) -> np.ndarray:
        """Mass of each bin [edges[i], edges[i+1]) of a histogram, the last bin
        closed, as ``np.histogram`` bins samples: the atoms it would put there,
        plus a Gauss-Legendre rule on the bin's part of the support with
        n // 2 + 2 nodes, at most ``_MAX_NODES`` (exact for a conditional law,
        a polynomial of degree n - 1 or less there), or ``_MAX_NODES`` without
        n.  The edges are checked here, once, after clipping to the support: a
        NaN edge is refused by ``values``, and the nodes between finite edges
        go to ``_values`` unchecked."""
        if self.support is None:
            raise ValueError(f"law {self.law} has no interval mass")
        edges = np.asarray(edges, dtype=float)
        nodes = _MAX_NODES if self.n is None else min(self.n // 2 + 2, _MAX_NODES)
        ends = edges.clip(*self.support)
        if not np.isfinite(ends).all():
            self.values(ends)  # raises, naming the first NaN edge
        out = np.empty(len(edges) - 1)
        step = max(1, _MAX_POINTS // nodes)
        for i in range(0, len(out), step):
            part = ends[i:i + step + 1]
            out[i:i + step] = _gauss(self._values, (part[:-1], part[1:]), nodes)
        for point, atom, _ in self.atoms:
            at = dict(zip(("beta", "x", "s"), point))[self.free[0]]
            if edges[0] <= at <= edges[-1]:
                out[min(np.searchsorted(edges, at, side="right"), len(out)) - 1] += atom
        return out


def resolve(
    law: str,
    v0: str,
    n: Optional[int],
    t: float,
    c: float,
    lam: float,
    component: str = "density",
    beta: Optional[float] = None,
) -> Resolved:
    """Bind a query's fixed part once, for any number of points.

    ``component`` selects the part of the joint law and is ignored by the
    other laws; ``beta`` is the level of the first-passage law.
    """
    entry = LAWS.get((law, component if law == "joint" else None))
    if entry is None:
        if law == "joint":
            raise ValueError(f"unknown joint component {component!r}; one of {JOINT_COMPONENTS}")
        raise ValueError(f"unknown law {law!r}")
    if law == "fpt" and beta is None:
        raise ValueError("law fpt needs a level beta")
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"time t must be finite and > 0, got {t}")
    if beta is not None and not math.isfinite(beta):
        raise ValueError(f"level beta must be finite, got {beta}")
    v0 = VelocitySign(v0)
    if n is not None and n < 0:
        raise ValueError(f"switch count must be >= 0, got {n}")
    q = _Fixed(v0, n, float(t), MotionParams(float(c), float(lam)),
               None if beta is None else float(beta))
    if not sys.float_info.min <= q.c * q.t <= sys.float_info.max:
        # every law scales its variable or its value by c*t, which 0 or inf cannot do
        raise ValueError(f"c*t must be a positive normal float, got c = {q.c} and t = {q.t}")
    if law == "fpt":
        _check_level(q.beta)
    bind = entry.cond if n is not None else entry.uncond
    if bind is None:
        if n is None:
            raise ValueError(f"law {law} requires a switch-count conditioning")
        raise ValueError(f"joint component {component} has no law given a switch count")
    free, fields = entry.free, {}
    if n is None and free == ("s",):
        # the unconditional passage laws are densities in t itself
        free, fields = (), {"s": q.t}
    fields.update({var: f"{{{i}}}" for i, var in enumerate(free)})
    if n == 0 and entry.n0_at is not None:
        kind, at, pdf, support = "atom", entry.n0_at(q), lambda *point: 1.0, None
    else:
        kind, pdf = entry.kind, bind(q)
        at = entry.at(q) if callable(entry.at) else entry.at.format(**fields)
        support = entry.support(q) if entry.support and free else None
    try:
        atoms = entry.atoms(q)
    except OverflowError:
        raise _overflow(law, n) from None
    for _, mass, label in atoms:
        _check_range("atom", mass, label)
    return Resolved(law, n, free, kind, at, pdf, atoms, support)

