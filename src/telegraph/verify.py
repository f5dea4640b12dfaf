"""Numerical cross-checks for the telegraph law implementations.

Independent instruments: total-mass audits by Gauss-Legendre rules, exact
up to rounding on each law's polynomial pieces, which also give the Monte
Carlo expected masses; a hand-written adaptive Simpson integrator for the
tests; pointwise identities
between the implemented laws; a diffusion-limit comparison of the first-passage
law against the Brownian one; and exact random-walk counts, by a dynamic
program over the steps, that replay the reflection argument.
"""

import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, List, Sequence

import numpy as np

from . import laws
from .params import MotionParams, VelocitySign
# ``running_max`` and ``running_min`` have no caller here any more; the
# benchmark tracer (perfbench/tracing.py) patches them in this namespace
from .path import running_max, running_min
from .sampler import RngStream, SwitchRows, reduce_vertices, sample_switches_batch

__all__ = [
    "CheckResult",
    "QuadratureError",
    "quadrature",
    "run_identity_suite",
    "normalization_suite",
    "return_printed_suite",
    "mc_cross_suite",
    "kac_limit_check",
    "random_walk_enumeration",
    "results_to_json",
    "results_to_table",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one numeric check."""

    name: str
    passed: bool
    observed: float
    expected: float
    tolerance: float
    detail: str = ""

    def __post_init__(self):
        # plain Python values, and a NaN observation fails, whatever the
        # comparison that made ``passed``
        for name in ("observed", "expected", "tolerance"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "passed", bool(self.passed) and not math.isnan(self.observed))


def _check(name, observed, expected, tol, detail="") -> CheckResult:
    """The pass rule of every check but two: observed within tol of expected."""
    return CheckResult(name, abs(observed - expected) <= tol, observed, expected, tol, detail)


class QuadratureError(RuntimeError):
    """Adaptive subdivision hit the depth limit before converging."""

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


_MAX_DEPTH = 40


def _simpson(f, a, fa, b, fb, m, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(f, a, fa, m, fm, lm, flm)
    right = _simpson(f, m, fm, b, fb, rm, frm)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth >= _MAX_DEPTH:
        raise QuadratureError(
            f"no convergence on [{a}, {b}] after depth {_MAX_DEPTH}",
            left + right,
        )
    return _adaptive(f, a, fa, m, fm, lm, flm, left, 0.5 * tol, depth + 1) + _adaptive(
        f, m, fm, b, fb, rm, frm, right, 0.5 * tol, depth + 1
    )


def quadrature(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    edges: Sequence[float] = (),
) -> float:
    """Adaptive Simpson integral of f over (a, b).

    ``edges`` lists interior points where the integrand changes analytic
    form (support boundaries, kinks); the interval is split there first so
    each Simpson recursion sees a smooth piece.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    pts = [a] + sorted(p for p in edges if a < p < b) + [b]
    total = 0.0
    tol_per = abs_tol / (len(pts) - 1)
    for lo, hi in zip(pts[:-1], pts[1:]):
        m = 0.5 * (lo + hi)
        flo, fhi, fm = f(lo), f(hi), f(m)
        whole = _simpson(f, lo, flo, hi, fhi, m, fm)
        total += _adaptive(f, lo, flo, hi, fhi, m, fm, whole, tol_per, 0)
    return total


# ---------------------------------------------------------------------------
# Identity suite


def _grid(lo, hi, k: int) -> np.ndarray:
    """k interior points of (lo, hi), endpoints excluded, along a last axis."""
    return np.linspace(lo, hi, k + 2, axis=-1)[..., 1:-1]


def _gap(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def run_identity_suite(n_max: int = 8, grid_points: int = 20, seed: int = 0) -> List[CheckResult]:
    """Pointwise identities between the implemented laws on dense grids.

    Each identity contributes one result summarizing the worst grid point;
    every law is called once per switch count and sign, on the whole grid.
    The path-level min/max flip is checked on 50 pseudorandomly drawn paths
    per switch count, with a fixed seed so the suite is reproducible: one
    ``reduce_vertices`` pass per sign gives every path's maximum and minimum.
    The motion has t = c = 1.
    """
    t = c = ct = 1.0
    ns = range(1, n_max + 1)
    signs = (VelocitySign.PLUS, VelocitySign.MINUS)
    levels = _grid(0.0, ct, grid_points)
    # the wedge: a level per row, endpoints in (2*beta - ct, beta) along it
    wedge_beta, wedge_x = levels[:, None], _grid(2.0 * levels - ct, levels, grid_points)
    results: List[CheckResult] = []

    def add(name, worst, tol, detail=""):
        results.append(_check(name, worst, 0.0, tol, detail))

    # running-max law versus reflected position densities
    add("negative-reflection-pointwise", max([_gap(
        laws.position_pdf(1, n, wedge_x, t, c)
        - laws.joint_cdf_in_max_pdf(VelocitySign.PLUS, n, wedge_beta, wedge_x, t, c),
        laws.position_pdf(-1, n, 2.0 * wedge_beta - wedge_x, t, c),
    ) for n in ns], default=0.0), 1e-12, f"n <= {n_max}")

    # maximum density doubles the position density at the level
    add("max-density-doubles-position", max([_gap(
        laws.max_pdf(VelocitySign.PLUS, n, levels, t, c),
        2.0 * laws.position_pdf(0, n, levels, t, c),
    ) for n in ns], default=0.0), 1e-12)

    # classical reflection for the even downward-start case
    add("classical-reflection-even-minus", max([_gap(
        laws.max_pdf(VelocitySign.MINUS, 2 * k, levels, t, c),
        2.0 * laws.position_pdf(-1, 2 * k, levels, t, c),
    ) for k in range(1, n_max // 2 + 1)], default=0.0), 1e-12)

    # time derivative of the max CDF equals -(beta/t) times the density
    worst = 0.0
    h = 1e-5 * t
    betas = _grid(0.0, ct * (1.0 - 2.0 * h / t), 9)
    for v0, n in itertools.product(signs, range(1, 7)):
        fd = -(
            laws.max_cdf_value(v0, n, betas, t + h, c) - laws.max_cdf_value(v0, n, betas, t - h, c)
        ) / (2.0 * h)
        ref = betas / t * laws.max_pdf(v0, n, betas, t, c)
        worst = max(worst, float(np.max(np.abs(fd - ref) / np.maximum(1.0, np.abs(ref)))))
    add("max-cdf-time-derivative", worst, 1e-5, "central difference, step 1e-5*t")

    # the first-passage density is the slope in s of the crossing probability
    # P{M(s) >= beta}, where N(s) ~ Bin(n, s/t) given n
    beta, ss, worst = 0.4 * ct, _grid(0.45 * t, 0.95 * t, grid_points), 0.0
    ends = ss + np.array([[h], [-h]])
    ks = np.arange(n_max + 1)[:, None, None]
    up, down = (ends / t) ** ks, (1 - ends / t) ** ks
    for v0 in signs:
        above = np.array([1 - laws.max_cdf_value(v0, k, beta, ends, c) for k in range(n_max + 1)])
        for n in ns:
            comb = np.array([math.comb(n, k) for k in range(n + 1)])[:, None, None]
            crossing = (comb * up[:n + 1] * down[n::-1] * above[:n + 1]).sum(axis=0)
            fd = (crossing[0] - crossing[1]) / (2.0 * h)
            got = laws.fpt_pdf(v0, n, beta, ss, t, c)
            worst = max(worst, float(np.max(np.abs(got - fd) / np.maximum(1.0, np.abs(fd)))))
    add("fpt-vs-crossing-slope", worst, 1e-7, "central difference, step 1e-5*t")

    # at the horizon, for an even count and upward start, the first-passage
    # density is (beta/t) times the max density
    add("fpt-at-horizon-vs-max-density", max([_gap(
        laws.fpt_pdf(VelocitySign.PLUS, 2 * k, levels, t, t, c),
        levels / t * laws.max_pdf(VelocitySign.PLUS, 2 * k, levels, t, c),
    ) for k in range(1, n_max // 2 + 1)], default=0.0), 1e-12,
        "upward start, even count")

    # the M = T(t) atom mirrors the M = 0 atom across the origin
    add("max-equals-position-mirrors-max-zero", max([_gap(
        laws.joint_atom_max_equals_position_pdf(VelocitySign.MINUS, n, levels, t, c),
        laws.joint_atom_max_zero_pdf(VelocitySign.MINUS, n, -levels, t, c),
    ) for n in range(1, n_max + 1, 2)], default=0.0), 1e-12)

    # pathwise min/max sign flip: negating the initial velocity negates paths
    rng = RngStream(seed, 900).generator()
    worst = 0.0
    extrema = lambda times, pos: (pos.max(axis=0), pos.min(axis=0))
    for n in range(0, n_max + 1):
        sw = sample_switches_batch(n, t, 50, rng)
        plus_max, plus_min = reduce_vertices(extrema, VelocitySign.PLUS, sw, t, c)
        minus_max, minus_min = reduce_vertices(extrema, VelocitySign.MINUS, sw, t, c)
        worst = max(worst, _gap(plus_min, -minus_max), _gap(minus_min, -plus_max))
    add("min-max-sign-flip", worst, 1e-12, "pathwise, 50 paths per n")

    # negating the initial velocity mirrors the position law across zero
    xs = _grid(-ct, ct, grid_points)
    add("position-law-velocity-mirror", max([_gap(
        laws.position_pdf(1, n, xs, t, c), laws.position_pdf(-1, n, -xs, t, c)
    ) for n in ns], default=0.0), 1e-12)

    return results


# ---------------------------------------------------------------------------
# Normalization audits


def normalization_suite(n_max: int = 64) -> List[CheckResult]:
    """Total-mass audits of every conditional law, by exact Gauss-Legendre rules.

    For each (v0, n <= n_max): the position density integrates to 1; the
    maximum's density plus its atom at zero sums to 1; the continuous
    joint density (a tensor rule over its wedge) plus every singular piece
    (maximum attained at the endpoint, the diagonal line for one switch,
    maximum stuck at zero) sums to 1; and the first-passage density plus its
    atom accounts for the crossing probability 1 - P{M <= beta}, all but the
    joint total by ``laws.Resolved.mass``.  The motion has t = c = 1, and each
    total passes within 1e-9.
    """
    t = c = ct = 1.0
    beta = 0.4 * ct
    results: List[CheckResult] = []

    def add(name, total, expected, detail=""):
        results.append(_check(name, total, expected, 1e-9, detail))

    for v0 in (VelocitySign.PLUS, VelocitySign.MINUS):
        for n in range(1, n_max + 1):
            def total(law, lo, hi, **level):
                return laws.resolve(law, v0, n, t, c, 1.0, **level).mass((lo, hi))[0]

            add(f"position-total-{v0.value}-n={n}", total("position", -ct, ct), 1.0)
            atom = laws.max_atom_zero(v0, n)
            add(f"max-total-{v0.value}-n={n}", total("max", 0.0, ct), 1.0, f"atom at 0: {atom:g}")

            # at the levels M = b: wedge sections (a tensor rule), lines M = T
            # and T = 2M - ct, slice M = 0 at T = -b
            m = n // 2 + 2  # every piece has degree <= n - 1: one node of margin or more

            def section(b):
                wedge = laws._gauss(lambda x: laws.joint_pdf(v0, n, b[..., None], x, t, c),
                                    (2.0 * b - ct, b), m)
                return (
                    wedge
                    + laws.joint_atom_max_equals_position_pdf(v0, n, b, t, c)
                    + laws.joint_atom_diagonal_pdf(v0, n, b, t, c)
                    + laws.joint_atom_max_zero_pdf(v0, n, -b, t, c)
                )

            add(f"joint-total-{v0.value}-n={n}", laws._gauss(section, (0.0, ct), m), 1.0)

            add(f"fpt-vs-max-cdf-{v0.value}-n={n}", total("fpt", 0.0, t, beta=beta),
                1.0 - laws.max_cdf_value(v0, n, beta, t, c), f"beta = {beta:g}")
    return results


# ---------------------------------------------------------------------------
# Printed-return dossier


def return_printed_suite() -> List[CheckResult]:
    """Compare the two variants of the conditional return-time density.

    The order-statistics oracle gives the exact density for n = 2,
    ``1/t - s/t**2``; the corrected variant reproduces it, while the
    as-printed variant is identically zero there.  The zero-vs-oracle gap
    is asserted as a pinned, documented discrepancy: those entries carry
    ``known-discrepancy`` in their detail and count as expected failures
    rather than build failures.  The horizon is t = 1 and the counts n <= 5.
    """
    t, n_max = 1.0, 5
    ss = np.linspace(0.1 * t, 0.9 * t, 9)
    oracle = 1.0 / t - ss / t**2
    results = [_check("return-corrected-n=2-oracle",
                      _gap(laws.return_pdf_corrected(2, ss, t), oracle), 0.0, 1e-12)]

    gap = float(oracle.min())
    printed_max = float(np.max(np.abs(laws.return_pdf_printed(2, ss, t))))
    results.append(
        CheckResult(
            "return-printed-n=2-is-zero",
            printed_max == 0.0 and gap > 0.0,
            printed_max,
            gap,
            0.0,
            "known-discrepancy: printed density vanishes where the oracle is positive",
        )
    )

    results.append(_check("return-corrected-n=1-constant",
                          _gap(laws.return_pdf_corrected(1, ss, t), 0.5 / t), 0.0, 1e-12))

    # the corrected and printed variants differ by exactly the inner-atom
    # term for n >= 2; for n = 1 the printed value already is that term
    worst = max([_gap(
        laws.return_pdf_corrected(n, ss, t) - laws.return_pdf_printed(n, ss, t),
        n * (t - ss) ** (n - 1) / (2.0 * t**n),
    ) for n in range(2, n_max + 1)], default=0.0)
    results.append(_check("return-corrected-minus-printed-term", worst, 0.0, 1e-12,
                          f"n <= {n_max}"))
    return results


# ---------------------------------------------------------------------------
# Monte Carlo cross-checks


def mc_cross_suite(reps: int = 200_000, seed: int = 0) -> List[CheckResult]:
    """Simulation estimates of the singular-event masses versus theory.

    Estimates P{M = 0} for downward starts and P{M = T(t)} for the start
    whose final velocity is +c, n <= 6, against the cyclic masses
    C(2k, k)/4**k; passes within 3 binomial standard errors.  Each count's
    rows are drawn a block at a time and reduced in one ``reduce_vertices``
    pass of the downward start, which gives both events: for even n the
    upward start's vertices are the exact negation of the downward ones, so
    its M = T(t) is ``pos.min(axis=0) >= pos[-1]`` on the downward vertices.
    Deterministic for a fixed seed.
    """
    t = c = 1.0
    results: List[CheckResult] = []

    def add(name, event, expected):
        est = float(event.mean())
        se = math.sqrt(expected * (1.0 - expected) / reps)
        results.append(_check(name, est, expected, 3 * se, f"{reps} reps"))

    rng = RngStream(seed, 901).generator()
    draw = lambda k, rows: sample_switches_batch(k, t, rows, rng)
    for n in range(1, 7):
        # M = T(t) carries mass only when the final velocity is +c: the downward
        # start for odd n, the upward one (the downward path negated) for even n
        v0 = VelocitySign.PLUS if n % 2 == 0 else VelocitySign.MINUS

        def events(times, pos):
            top = pos.max(axis=0)
            at_top = top <= pos[-1] if n % 2 else pos.min(axis=0) >= pos[-1]
            return top <= 0.0, at_top

        max_zero, at_top = reduce_vertices(
            events, VelocitySign.MINUS, SwitchRows(((n, reps),), draw), t, c)
        add(f"mc-max-zero-mass-n={n}", max_zero, laws.max_atom_zero(VelocitySign.MINUS, n))
        mass = laws.resolve("joint", v0, n, t, c, 1.0, component="max_equals_position").mass(
            (0.0, c * t))[0]
        add(f"mc-max-equals-position-mass-{v0.value}-n={n}", at_top, float(mass))
    return results


# ---------------------------------------------------------------------------
# Diffusion limit


#: A relative error at rounding, which a larger c cannot shrink further
_KAC_FLOOR = 4 * np.finfo(float).eps


def kac_limit_check(
    beta: float = 1.0,
    t_values: Sequence[float] = (0.5, 1.0, 2.0),
    c_values: Sequence[float] = (20.0, 50.0),
) -> List[CheckResult]:
    """Compare the unconditional first-passage law with its Brownian limit.

    Under the scaling ``lambda = c**2`` the telegraph process converges to
    standard Brownian motion, whose first-passage density through beta is
    ``beta * exp(-beta**2 / (2 t)) / sqrt(2 pi t**3)``.  Checks the
    relative error at the largest c, within 0.05, and that the error shrinks
    as c grows or is at rounding (``_KAC_FLOOR``), so it needs at least two
    distinct values of c (a repeated value is compared once) and times t > 0.
    Each lambda and each Brownian density must be a positive finite float; a
    ``ValueError`` names the argument that is not.
    """
    cs = sorted(set(c_values))
    if len(cs) < 2:
        raise ValueError(f"need at least two c values to compare, got {len(cs)} distinct")
    bad = [c for c in cs if not 0.0 < c * c < math.inf]
    if bad:
        raise ValueError(f"speed c = {bad[0]:g} gives a switching rate lambda = c**2 = "
                         f"{bad[0] * bad[0]:g}, not a positive finite float")
    results: List[CheckResult] = []
    for t in t_values:
        if not t > 0:
            raise ValueError(f"time t must be > 0, got {t}")
        try:
            brown = beta * math.exp(-(beta**2) / (2.0 * t)) / math.sqrt(2.0 * math.pi * t**3)
        except (OverflowError, ZeroDivisionError):
            brown = math.nan
        if not 0.0 < brown < math.inf:
            raise ValueError(f"level beta = {beta:g} and time t = {t:g} give a Brownian density "
                             "that is not a positive finite float")
        errs = []
        for c in cs:
            params = MotionParams(c, c * c)
            val = laws.fpt_pdf_unconditional(VelocitySign.PLUS, beta, t, params)
            errs.append(abs(val - brown) / brown)
        results.append(_check(f"kac-relative-error-t={t:g}-c={cs[-1]:g}", errs[-1], 0.0, 0.05,
                              f"density vs Brownian {brown:.6g}"))
        shrinks = all(a > b or b <= _KAC_FLOOR for a, b in zip(errs[:-1], errs[1:]))
        results.append(CheckResult(f"kac-error-decreases-t={t:g}", shrinks, errs[-1], errs[0],
                                   math.inf, f"errors along c={cs}: {['%.3g' % e for e in errs]}"))
    return results


# ---------------------------------------------------------------------------
# Discrete enumeration


def _walk_counts(n_max: int):
    """Exact counts of the simple-walk paths of each length n = 1..n_max.

    A dynamic program over the steps.  For each n it yields (n, up, down):
    up[x + n, m] counts the n-step walks with first step +1 that end at x
    with maximum m, and down[x + n] the walks with first step -1 that end at
    x.  The counts are Python integers, because they pass int64 at n = 64.
    """
    zero = n_max + 1  # the row of endpoint 0, with one spare row past each end
    up = np.zeros((2 * zero + 1, zero + 1), dtype=object)
    down = np.zeros(2 * zero + 1, dtype=object)
    up[zero + 1, 1] = down[zero - 1] = 1
    top = np.eye(2 * zero + 1, zero + 1, -zero, dtype=bool)  # the cells x = m
    for n in range(1, n_max + 1):
        yield n, up[zero - n:zero + n + 1, :n + 1], down[zero - n:zero + n + 1]
        # every step keeps the maximum, except a step up from the maximum itself
        high = np.where(top, up, 0)
        up = np.roll(up - high, 1, 0) + np.roll(high, (1, 1), (0, 1)) + np.roll(up, -1, 0)
        down = np.roll(down, 1) + np.roll(down, -1)


def random_walk_enumeration(n_max: int = 14) -> List[CheckResult]:
    """Replay the reflection bijection on simple symmetric random walks.

    For each walk length n, level beta and admissible endpoint x, the
    number of walks with first step +1 that exceed beta and end at x must
    exactly equal the number of walks with first step -1 that end at
    2*beta - x.  Counts are exact integers over all 2**(n-1) walks per
    starting step, tabulated by (endpoint, maximum) by ``_walk_counts``, so
    each (beta, x) case only reads the table.
    """
    results: List[CheckResult] = []
    # a walk of one step has no level below its maximum to check
    for n, up, down in itertools.islice(_walk_counts(n_max), 1, None):
        # exceed[x + n, beta] counts the walks from +1 that end at x with maximum > beta
        exceed = up[:, :0:-1].cumsum(axis=1)[:, ::-1]
        beta, x = np.mgrid[:n - 1, -n:n + 1]
        case = (2 * (beta + 1) - n <= x) & (x <= beta)
        beta, x = beta[case], x[case]
        a, b = exceed[x + n, beta], down[2 * beta - x + n]
        gap = np.abs(a - b)
        i = gap.argmax()  # the first case with the largest gap
        detail = (f"beta={beta[i]}, x={x[i]}: {a[i]} vs {b[i]}" if gap[i]
                  else f"{len(gap)} (beta, x) cases, all counts equal")
        results.append(_check(f"random-walk-counts-n={n}", float(gap[i]), 0.0, 0.0, detail))
    return results


# ---------------------------------------------------------------------------
# Reports


def results_to_json(results: Iterable[CheckResult]) -> str:
    return json.dumps([asdict(r) for r in results], indent=2)


def results_to_table(results: Iterable[CheckResult]) -> str:
    """Aligned text table, one row per check, under a header and a rule."""
    rows = [("check", "status", "observed", "tolerance", "detail")] + [
        (r.name, "pass" if r.passed else "FAIL", f"{r.observed:.3e}",
         f"{r.tolerance:.3e}" if math.isfinite(r.tolerance) else "-", r.detail)
        for r in results]
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
