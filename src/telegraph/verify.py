"""Numerical cross-checks for the telegraph law implementations.

Independent instruments: total-mass audits by Gauss-Legendre rules, exact
up to rounding on each law's polynomial pieces, which also give the Monte
Carlo expected masses; a hand-written adaptive Simpson integrator for the
tests; pointwise identities
between the implemented laws; a diffusion-limit comparison of the first-passage
law against the Brownian one; and an exhaustive random-walk enumeration that
replays the reflection argument with exact integer counts.
"""

import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, List, Sequence

import numpy as np

from . import laws
from .params import MotionParams, VelocitySign
from .path import TelegraphPath, running_max, running_min
from .sampler import RngStream, _gauss, sample_switches_batch

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
        # a NaN observation fails, whatever the comparison that made ``passed``
        if math.isnan(self.observed):
            object.__setattr__(self, "passed", False)


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


def run_identity_suite(
    n_max: int = 8,
    grid_points: int = 20,
    t: float = 1.0,
    c: float = 1.0,
    seed: int = 0,
) -> List[CheckResult]:
    """Pointwise identities between the implemented laws on dense grids.

    Each identity contributes one result summarizing the worst grid point;
    every law is called once per switch count and sign, on the whole grid.
    The path-level min/max flip is checked path by path on pseudorandomly
    drawn paths with a fixed seed, so the suite is reproducible.
    """
    ct = c * t
    ns = range(1, n_max + 1)
    signs = (VelocitySign.PLUS, VelocitySign.MINUS)
    levels = _grid(0.0, ct, grid_points)
    # the wedge: a level per row, endpoints in (2*beta - ct, beta) along it
    wedge_beta, wedge_x = levels[:, None], _grid(2.0 * levels - ct, levels, grid_points)
    results: List[CheckResult] = []

    def add(name, worst, tol, detail=""):
        results.append(CheckResult(name, worst <= tol, worst, 0.0, tol, detail))

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

    # first-passage density at the horizon: closed form, then max-density link
    add("fpt-at-horizon-closed-form", max([_gap(
        laws.fpt_pdf(v0, n, levels, t, t, c), laws.fpt_endpoint_pdf(v0, n, levels, t, c)
    ) for n, v0 in itertools.product(ns, signs)], default=0.0), 1e-12)

    # for an even count and upward start, that value is (beta/t) * max density
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
    pm = MotionParams(c, 1.0)
    for n in range(0, n_max + 1):
        sw = sample_switches_batch(n, t, 50, rng)
        for row in sw:
            plus = TelegraphPath(VelocitySign.PLUS, t, tuple(row.tolist()))
            minus = TelegraphPath(VelocitySign.MINUS, t, tuple(row.tolist()))
            worst = max(worst, abs(running_min(plus, pm) + running_max(minus, pm)))
            worst = max(worst, abs(running_min(minus, pm) + running_max(plus, pm)))
    add("min-max-sign-flip", worst, 1e-12, "pathwise, 50 paths per n")

    # negating the initial velocity mirrors the position law across zero
    xs = _grid(-ct, ct, grid_points)
    add("position-law-velocity-mirror", max([_gap(
        laws.position_pdf(1, n, xs, t, c), laws.position_pdf(-1, n, -xs, t, c)
    ) for n in ns], default=0.0), 1e-12)

    return results


# ---------------------------------------------------------------------------
# Normalization audits


def normalization_suite(
    n_max: int = 64, t: float = 1.0, c: float = 1.0, abs_tol: float = 1e-9
) -> List[CheckResult]:
    """Total-mass audits of every conditional law, by exact Gauss-Legendre rules.

    For each (v0, n <= n_max): the position density integrates to 1; the
    maximum's density plus its atom at zero sums to 1; the continuous
    joint density (a tensor rule over its wedge) plus every singular piece
    (maximum attained at the endpoint, the diagonal line for one switch,
    maximum stuck at zero) sums to 1; and the first-passage density plus its
    atom accounts for the crossing probability 1 - P{M <= beta}.
    """
    ct = c * t
    results: List[CheckResult] = []

    def add(name, total, expected, detail=""):
        err = abs(total - expected)
        results.append(CheckResult(name, err <= abs_tol, total, expected, abs_tol, detail))

    for v0 in (VelocitySign.PLUS, VelocitySign.MINUS):
        sgn = v0.value_sign
        for n in range(1, n_max + 1):
            m = n // 2 + 2  # every piece has degree <= n - 1: one node of margin or more
            mass = _gauss(lambda x: laws.position_pdf(sgn, n, x, t, c), (-ct, ct), m)
            add(f"position-total-{v0.value}-n={n}", mass, 1.0)

            mass = _gauss(lambda b: laws.max_pdf(v0, n, b, t, c), (0.0, ct), m)
            atom = laws.max_atom_zero(laws.Conditioning(v0, n)).value
            add(f"max-total-{v0.value}-n={n}", mass + atom, 1.0, f"atom at 0: {atom:g}")

            # at the levels M = b: wedge sections (a tensor rule), lines M = T
            # and T = 2M - ct, slice M = 0 at T = -b
            def section(b):
                wedge = _gauss(lambda x: laws.joint_pdf(v0, n, b[..., None], x, t, c),
                               (2.0 * b - ct, b), m)
                return (
                    wedge
                    + laws.joint_atom_max_equals_position_pdf(v0, n, b, t, c)
                    + laws.joint_atom_diagonal_pdf(v0, n, b, t, c)
                    + laws.joint_atom_max_zero_pdf(v0, n, -b, t, c)
                )

            add(f"joint-total-{v0.value}-n={n}", _gauss(section, (0.0, ct), m), 1.0)

            beta = 0.4 * ct
            mass = _gauss(lambda s: laws.fpt_pdf(v0, n, beta, s, t, c), (beta / c, t), m)
            if v0 is VelocitySign.PLUS:
                mass += (1.0 - beta / ct) ** n
            add(
                f"fpt-vs-max-cdf-{v0.value}-n={n}",
                mass,
                1.0 - laws.max_cdf_value(v0, n, beta, t, c),
                f"beta = {beta:g}",
            )
    return results


# ---------------------------------------------------------------------------
# Printed-return dossier


def return_printed_suite(t: float = 1.0, n_max: int = 5) -> List[CheckResult]:
    """Compare the two variants of the conditional return-time density.

    The order-statistics oracle gives the exact density for n = 2,
    ``1/t - s/t**2``; the corrected variant reproduces it, while the
    as-printed variant is identically zero there.  The zero-vs-oracle gap
    is asserted as a pinned, documented discrepancy: those entries carry
    ``known-discrepancy`` in their detail and count as expected failures
    rather than build failures.
    """
    results: List[CheckResult] = []
    ss = np.linspace(0.1 * t, 0.9 * t, 9)
    oracle = 1.0 / t - ss / t**2

    worst = _gap(laws.return_pdf_corrected(2, ss, t), oracle)
    results.append(
        CheckResult("return-corrected-n=2-oracle", worst <= 1e-12, worst, 0.0, 1e-12)
    )

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

    worst = _gap(laws.return_pdf_corrected(1, ss, t), 0.5 / t)
    results.append(
        CheckResult("return-corrected-n=1-constant", worst <= 1e-12, worst, 0.0, 1e-12)
    )

    # the corrected and printed variants differ by exactly the inner-atom
    # term for n >= 2; for n = 1 the printed value already is that term
    worst = max([_gap(
        laws.return_pdf_corrected(n, ss, t) - laws.return_pdf_printed(n, ss, t),
        n * (t - ss) ** (n - 1) / (2.0 * t**n),
    ) for n in range(2, n_max + 1)], default=0.0)
    results.append(
        CheckResult(
            "return-corrected-minus-printed-term",
            worst <= 1e-12,
            worst,
            0.0,
            1e-12,
            f"n <= {n_max}",
        )
    )
    return results


# ---------------------------------------------------------------------------
# Monte Carlo cross-checks


def mc_cross_suite(reps: int = 200_000, seed: int = 0) -> List[CheckResult]:
    """Simulation estimates of the singular-event masses versus theory.

    Estimates P{M = 0} for downward starts and P{M = T(t)} for upward
    starts, n <= 6, against the cyclic masses C(2k, k)/4**k; passes within
    3 binomial standard errors.  Deterministic for a fixed seed.
    """
    from .sampler import max_is_zero_batch, max_equals_position_batch

    t = c = 1.0
    results: List[CheckResult] = []

    def add(name, event, expected):
        est = float(event.mean())
        se = math.sqrt(expected * (1.0 - expected) / reps)
        results.append(CheckResult(
            name, abs(est - expected) <= 3 * se, est, expected, 3 * se, f"{reps} reps"))

    rng = RngStream(seed, 901).generator()
    for n in range(1, 7):
        sw = sample_switches_batch(n, t, reps, rng)
        add(f"mc-max-zero-mass-n={n}", max_is_zero_batch(VelocitySign.MINUS, sw, t, c),
            laws.max_atom_zero(laws.Conditioning(VelocitySign.MINUS, n)).value)
        # M = T(t) carries mass only when the final velocity is +c; its density is a
        # polynomial of degree n - 1 in the level, so n + 2 nodes integrate it exactly
        v0 = VelocitySign.PLUS if n % 2 == 0 else VelocitySign.MINUS
        mass = _gauss(lambda b: laws.joint_atom_max_equals_position_pdf(v0, n, b, t, c),
                      (0.0, c * t), n + 2)
        add(f"mc-max-equals-position-mass-{v0.value}-n={n}",
            max_equals_position_batch(v0, sw, t, c), float(mass))
    return results


# ---------------------------------------------------------------------------
# Diffusion limit


def kac_limit_check(
    beta: float = 1.0,
    t_values: Sequence[float] = (0.5, 1.0, 2.0),
    c_values: Sequence[float] = (20.0, 50.0),
    rel_tol: float = 0.05,
) -> List[CheckResult]:
    """Compare the unconditional first-passage law with its Brownian limit.

    Under the scaling ``lambda = c**2`` the telegraph process converges to
    standard Brownian motion, whose first-passage density through beta is
    ``beta * exp(-beta**2 / (2 t)) / sqrt(2 pi t**3)``.  Checks the
    relative error at the largest c and that the error shrinks as c grows,
    so it needs at least two distinct values of c (a repeated value is
    compared once) and times t > 0.
    """
    cs = sorted(set(c_values))
    if len(cs) < 2:
        raise ValueError(f"need at least two c values to compare, got {len(cs)} distinct")
    bad = [t for t in t_values if not t > 0]
    if bad:
        raise ValueError(f"time t must be > 0, got {bad[0]}")
    results: List[CheckResult] = []
    for t in t_values:
        brown = beta * math.exp(-(beta**2) / (2.0 * t)) / math.sqrt(2.0 * math.pi * t**3)
        errs = []
        for c in cs:
            params = MotionParams(c, c * c)
            val = laws.fpt_pdf_unconditional(VelocitySign.PLUS, beta, t, params)
            errs.append(abs(val - brown) / brown)
        results.append(
            CheckResult(
                f"kac-relative-error-t={t:g}-c={cs[-1]:g}",
                errs[-1] <= rel_tol,
                errs[-1],
                0.0,
                rel_tol,
                f"density vs Brownian {brown:.6g}",
            )
        )
        results.append(
            CheckResult(
                f"kac-error-decreases-t={t:g}",
                all(a > b for a, b in zip(errs[:-1], errs[1:])),
                errs[-1],
                errs[0],
                math.inf,
                f"errors along c={cs}: {['%.3g' % e for e in errs]}",
            )
        )
    return results


# ---------------------------------------------------------------------------
# Discrete enumeration


def _walks(n: int, first_step: int) -> np.ndarray:
    """All 2**(n-1) simple-walk paths of n steps with the first step fixed.

    Returns the (2**(n-1), n+1) array of partial sums, starting at 0.
    """
    m = 1 << (n - 1)
    tail = ((np.arange(m)[:, None] >> np.arange(n - 1)) & 1) * 2 - 1
    steps = np.concatenate([np.full((m, 1), first_step), tail], axis=1)
    walks = np.zeros((m, n + 1), dtype=np.int64)
    np.cumsum(steps, axis=1, out=walks[:, 1:])
    return walks


def random_walk_enumeration(n_max: int = 14) -> List[CheckResult]:
    """Replay the reflection bijection on simple symmetric random walks.

    For each walk length n, level beta and admissible endpoint x, the
    number of walks with first step +1 that exceed beta and end at x must
    exactly equal the number of walks with first step -1 that end at
    2*beta - x.  Counts are exact integers over all 2**(n-1) walks per
    starting step, tabulated once per n by (endpoint, maximum), so each
    (beta, x) case only reads the table.
    """
    if n_max > 20:
        raise ValueError("n_max > 20 would enumerate more than 2**19 walks")
    results: List[CheckResult] = []
    for n in range(2, n_max + 1):
        up = _walks(n, 1)
        # exceed[x + n, beta] counts the walks from +1 that end at x with maximum > beta
        table = np.bincount((up[:, -1] + n) * (n + 1) + up.max(axis=1),
                            minlength=(2 * n + 1) * (n + 1)).reshape(2 * n + 1, n + 1)
        exceed = table[:, :0:-1].cumsum(axis=1)[:, ::-1]
        ends = np.bincount(_walks(n, -1)[:, -1] + n, minlength=2 * n + 1)
        worst = 0
        cases = 0
        detail = ""
        for beta in range(0, n - 1):
            for x in range(2 * (beta + 1) - n, beta + 1):
                a = int(exceed[x + n, beta])
                b = int(ends[2 * beta - x + n])
                cases += 1
                if abs(a - b) > worst:
                    worst = abs(a - b)
                    detail = f"beta={beta}, x={x}: {a} vs {b}"
        results.append(
            CheckResult(
                f"random-walk-counts-n={n}",
                worst == 0,
                float(worst),
                0.0,
                0.0,
                detail or f"{cases} (beta, x) cases, all counts equal",
            )
        )
    return results


# ---------------------------------------------------------------------------
# Reports


def results_to_json(results: Iterable[CheckResult]) -> str:
    rows = []
    for r in results:
        row = asdict(r)
        row["passed"] = bool(row["passed"])
        row["observed"] = float(row["observed"])
        row["expected"] = float(row["expected"])
        row["tolerance"] = float(row["tolerance"])
        rows.append(row)
    return json.dumps(rows, indent=2)


def results_to_table(results: Iterable[CheckResult]) -> str:
    """Aligned text table, one row per check."""
    rows = [
        (
            r.name,
            "pass" if r.passed else "FAIL",
            f"{r.observed:.3e}",
            f"{r.tolerance:.3e}" if math.isfinite(r.tolerance) else "-",
            r.detail,
        )
        for r in results
    ]
    headers = ("check", "status", "observed", "tolerance", "detail")
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(5)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
