"""Modified Bessel functions of the first kind, integer orders 0..3.

Evaluated by the ascending power series

    I_r(x) = sum_j (x/2)^(2j+r) / (j! (j+r)!)

with a term-ratio stopping rule.  Every distribution that needs I_r
multiplies it by exp(-lam*t), so the scaled product exp(-x)*I_r(x) is the
primitive; above the series switch point it is computed from the large-x
asymptotic expansion, which avoids overflow of exp(x).  ``bessel_i_scaled``
takes arrays of arguments; a scalar is the size-1 case.
"""

from __future__ import annotations

import math

import numpy as np

SUPPORTED_ORDERS = (0, 1, 2, 3)
_SERIES_CUTOFF = 30.0


def _series(r: int, x: np.ndarray) -> np.ndarray:
    half = x / 2.0
    term = half**r / math.factorial(r)
    total = term
    j = 0
    # every point runs until its own term ratio is met; extra terms of the
    # points that met it earlier are below 1e-16 of their total
    while not np.all(term <= 1e-16 * total):
        j += 1
        term = term * (half * half / (j * (j + r)))
        total = total + term
    return total


def _asymptotic_scaled(r: int, x: np.ndarray) -> np.ndarray:
    # exp(-x) I_r(x) ~ (2 pi x)^(-1/2) * sum_k (-1)^k a_k(r) / x^k
    mu = 4 * r * r
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 30):
        term = term * (-(mu - (2 * k - 1) ** 2) / (8.0 * k * x))
        if np.all(np.abs(term) < 1e-17):
            break
        total = total + term
    return total / np.sqrt(2.0 * math.pi * x)


def bessel_i_scaled(r: int, x):
    """exp(-x) * I_r(x) for r in {0, 1, 2, 3} and x >= 0; safe for large x."""
    if r not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported Bessel order {r}; supported: {SUPPORTED_ORDERS}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError(f"argument must be >= 0, got {np.min(x)}")
    out = np.empty(x.shape)
    small = x <= _SERIES_CUTOFF
    xs = x[small]
    out[small] = _series(r, xs) * np.exp(-xs)
    out[~small] = _asymptotic_scaled(r, x[~small])
    return out[()]
