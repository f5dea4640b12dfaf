"""Command-line interface.

Subcommands: ``eval`` (law values on grids), ``simulate`` (Monte Carlo
histograms with analytic reference columns), ``verify`` (numeric check
suites), ``reflect`` (demonstrate the path bijection), and ``kac``
(diffusion-limit comparison).  Output is CSV or JSON with stable
schemas; exit status is 0 on success, 1 when a verification check
fails, 2 on usage or domain errors, a law value that overflows a float
included.  The seed defaults to the TELEGRAPH_SEED environment variable
when the flag is absent.
"""

import argparse
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import laws
from .params import MotionParams, VelocitySign
from .path import TelegraphPath, position_at
from .reflection import (
    DegeneratePathError,
    ReflectionContext,
    ReflectionDomainError,
    classify_crossings,
    in_P_plus,
    negative_reflect,
    negative_reflect_inverse,
)
from .sampler import RngStream, mc_density_histogram, sample_conditional
from . import verify as verify_mod

__all__ = ["main", "build_parser"]


def _grid_spec(text: str) -> np.ndarray:
    """Parse 'lo:hi:count' into an inclusive linspace."""
    try:
        lo, hi, count = text.split(":")
        points = np.linspace(float(lo), float(hi), int(count))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}, want lo:hi:count") from exc
    return points


def _range_spec(text: str):
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, want lo:hi") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _emit(lines: List[str], output: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _default_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("TELEGRAPH_SEED")
    return int(env) if env else 0


# ---------------------------------------------------------------------------
# eval

_EVAL_VARS = {
    "position": ("x",),
    "max": ("beta",),
    "max_cdf": ("beta",),
    "joint": ("beta", "x"),
    "joint_cdf": ("beta", "x"),
    "fpt": ("s",),
    "return": ("s",),
    "return_printed": ("s",),
}


def cmd_eval(args) -> int:
    law = args.law
    if law == "joint" and args.n is None:
        free = {
            "density": ("beta", "x"),
            "max_equals_position": ("beta",),
            "diagonal": ("beta",),
            "max_zero": ("x",),
            "corner": (),
        }[args.component]
    elif law in ("fpt", "return") and args.n is None:
        free = ()  # the unconditional laws are densities in t itself
    else:
        free = _EVAL_VARS[law]
    values = {}
    for var in ("x", "beta", "s"):
        grid = getattr(args, f"{var}_grid")
        point = getattr(args, var)
        if grid is not None:
            values[var] = [float(v) for v in grid]
        elif point is not None:
            values[var] = [point]
    for var in free:
        if var not in values:
            print(f"eval --law {law} needs --{var} or --{var}-grid", file=sys.stderr)
            return 2

    points = [{}]
    for var in free:
        points = [{**p, var: v} for p in points for v in values[var]]

    base = {
        "v0": args.v0,
        "n": args.n,
        "law": law,
        "t": args.t,
        "c": args.c,
        "lambda": getattr(args, "lam"),
    }
    if law == "joint":
        base["component"] = args.component
    if law == "fpt":
        if args.beta is None:
            print("eval --law fpt needs --beta", file=sys.stderr)
            return 2
        base["beta"] = args.beta

    rows = []
    for point in points:
        query = {**base, **point}
        if law == "fpt" and "s" in point:
            query["s"] = point["s"]
        try:
            result = laws.evaluate_query(query)
        except (laws.OutOfScopeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        rows.append({**{v: point.get(v) for v in ("beta", "x", "s")}, **result})

    # singular components reported as separate atom rows
    cond = laws.Conditioning(VelocitySign.from_str(args.v0), args.n)
    params = MotionParams(args.c, getattr(args, "lam"))
    if law == "max" and args.n is not None:
        atom = laws.max_atom_zero(cond)
        rows.append({"beta": 0.0, "x": None, "s": None, "kind": atom.kind,
                     "value": atom.value, "at": atom.at})
    if law == "fpt":
        if args.n is None:
            atom = laws.fpt_atom_unconditional(cond.v0, args.beta, params)
        else:
            atom = laws.fpt_atom(cond, args.beta, args.t, params)
        rows.append({"beta": args.beta, "x": None, "s": args.beta / args.c,
                     "kind": atom.kind, "value": atom.value, "at": atom.at})

    if args.format == "json":
        payload = [{**base, **row} for row in rows]
        _emit([json.dumps(payload, indent=2)], args.output)
        return 0
    header = "law,v0,n,t,c,lambda,beta,x,s,kind,value,at"
    lines = [header]
    for row in rows:
        lines.append(
            ",".join(
                _csv_cell(v)
                for v in (
                    law, args.v0, args.n, args.t, args.c, getattr(args, "lam"),
                    row.get("beta"), row.get("x"), row.get("s"),
                    row["kind"], row["value"], row["at"],
                )
            )
        )
    _emit(lines, args.output)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _analytic_density(args, v0: VelocitySign):
    """Conditional reference density for the simulated functional, if known."""
    if args.n is None:
        return None
    n, t, c = args.n, args.t, args.c
    if args.functional == "position":
        return lambda x: laws.position_pdf(v0.value_sign, n, x, t, c)
    if args.functional == "max":
        return lambda b: laws.max_pdf(v0, n, b, t, c)
    if args.functional == "fpt":
        return lambda s: laws.fpt_pdf(v0, n, args.beta, s, t, c)
    if args.functional == "return":
        return lambda s: laws.return_pdf_corrected(n, s, t)
    return None


def cmd_simulate(args) -> int:
    v0 = VelocitySign.from_str(args.v0)
    params = MotionParams(args.c, getattr(args, "lam"))
    if args.functional == "fpt" and args.beta is None:
        print("simulate --functional fpt needs --beta", file=sys.stderr)
        return 2
    seed = _default_seed(args.seed)
    bins = mc_density_histogram(
        args.functional, v0, args.n, params, args.t, args.bins, args.range,
        args.reps, seed=seed, threads=args.threads, beta=args.beta,
        analytic=_analytic_density(args, v0),
    )
    lines = ["bin_lo,bin_hi,estimate,std_error,analytic,z"]
    for b in bins:
        r = b.report
        lines.append(
            ",".join(
                _csv_cell(v)
                for v in (b.lo, b.hi, r.estimate, r.std_error, r.analytic, r.z_score)
            )
        )
    _emit(lines, args.output)
    if args.output:
        zs = [abs(b.report.z_score) for b in bins if b.report.z_score is not None]
        summary = {
            "functional": args.functional,
            "replications": args.reps,
            "bins": args.bins,
            "seed": seed,
            "max_abs_z": max(zs) if zs else None,
        }
        print(json.dumps(summary))
    return 0


# ---------------------------------------------------------------------------
# verify


_SUITES = ("identities", "normalization", "mc-cross", "kac", "random-walk", "return-printed")


def cmd_verify(args) -> int:
    seed = _default_seed(args.seed)
    wanted = _SUITES if args.suite == "all" else (args.suite,)
    results = []
    for suite in wanted:
        if suite == "identities":
            results += verify_mod.run_identity_suite(seed=seed)
        elif suite == "normalization":
            results += verify_mod.normalization_suite()
        elif suite == "mc-cross":
            results += verify_mod.mc_cross_suite(seed=seed)
        elif suite == "kac":
            results += verify_mod.kac_limit_check()
        elif suite == "random-walk":
            results += verify_mod.random_walk_enumeration()
        elif suite == "return-printed":
            results += verify_mod.return_printed_suite()
    if args.format == "json":
        _emit([verify_mod.results_to_json(results)], args.output)
    else:
        _emit([verify_mod.results_to_table(results)], args.output)
    # entries flagged as known discrepancies are documentation, not failures
    failed = [
        r for r in results if not r.passed and "known-discrepancy" not in r.detail
    ]
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# reflect


def _reflect_record(path: TelegraphPath, ctx: ReflectionContext) -> dict:
    pair = classify_crossings(path, ctx)
    image = negative_reflect(path, ctx)
    back = negative_reflect_inverse(image, ctx)
    residual = max(
        (abs(a - b) for a, b in zip(path.switch_times, back.switch_times)),
        default=0.0,
    )
    return {
        "input": json.loads(path.to_json()),
        "output": json.loads(image.to_json()),
        "beta": ctx.beta,
        "x": ctx.x,
        "pair": [pair.h, pair.l],
        "image_pair": [pair.image().h, pair.image().l],
        "residual": residual,
    }


def cmd_reflect(args) -> int:
    params = MotionParams(args.c, getattr(args, "lam"))
    lines = []
    if args.switch_times is not None:
        times = tuple(float(v) for v in args.switch_times.split(",") if v)
        path = TelegraphPath(VelocitySign.PLUS, args.t, times)
        x = position_at(path, args.t, params)
        try:
            ctx = ReflectionContext(args.beta, x, params, args.t)
            lines.append(json.dumps(_reflect_record(path, ctx)))
        except (ReflectionDomainError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _emit(lines, args.output)
        return 0

    rng = RngStream(_default_seed(args.seed), 77).generator()
    emitted = 0
    attempts = 0
    max_attempts = 10000 * args.count
    while emitted < args.count and attempts < max_attempts:
        attempts += 1
        path = sample_conditional(args.n, args.t, VelocitySign.PLUS, rng)
        x = position_at(path, args.t, params)
        ct = args.c * args.t
        if not (2.0 * args.beta - ct < x <= args.beta):
            continue
        ctx = ReflectionContext(args.beta, x, params, args.t)
        if not in_P_plus(path, ctx):
            continue
        try:
            lines.append(json.dumps(_reflect_record(path, ctx)))
        except DegeneratePathError:
            continue
        emitted += 1
    _emit(lines, args.output)
    if emitted < args.count:
        print(
            f"note: emitted {emitted} of {args.count} requested paths "
            f"after {attempts} attempts",
            file=sys.stderr,
        )
    return 0


# ---------------------------------------------------------------------------
# kac


def cmd_kac(args) -> int:
    results = verify_mod.kac_limit_check(
        beta=args.beta, t_values=args.t, c_values=args.c_values
    )
    if args.format == "json":
        _emit([verify_mod.results_to_json(results)], args.output)
    else:
        _emit([verify_mod.results_to_table(results)], args.output)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, *, lam_default=1.0):
    sub.add_argument("--c", type=float, default=1.0, help="speed c > 0 (default 1)")
    sub.add_argument(
        "--lambda", dest="lam", type=float, default=lam_default,
        help=f"switch rate lambda > 0 (default {lam_default})",
    )
    sub.add_argument("--t", type=float, default=1.0, help="time horizon (default 1)")
    sub.add_argument("--output", help="write to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telegraph",
        description="Distributions, simulation, and path reflection for the "
        "symmetric telegraph process.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("eval", help="evaluate a law on a grid of points")
    p.add_argument("--law", required=True, choices=sorted(_EVAL_VARS))
    p.add_argument("--v0", default="+", choices=["+", "-"], help="initial velocity sign")
    p.add_argument("--n", type=int, help="switch count; omit for the unconditional law")
    p.add_argument("--component", default="density",
                   choices=["density", "max_equals_position", "diagonal", "max_zero", "corner"],
                   help="joint-law component (law=joint only)")
    for var in ("x", "beta", "s"):
        p.add_argument(f"--{var}", type=float)
        p.add_argument(f"--{var}-grid", type=_grid_spec, metavar="LO:HI:COUNT")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("simulate", help="Monte Carlo histogram of a path functional")
    p.add_argument("--functional", required=True,
                   choices=["position", "max", "fpt", "return"])
    p.add_argument("--v0", default="+", choices=["+", "-"])
    p.add_argument("--n", type=int, help="switch count; omit to draw Poisson counts")
    p.add_argument("--beta", type=float, help="level for the fpt functional")
    p.add_argument("--bins", type=_positive_int, default=20)
    p.add_argument("--range", type=_range_spec, required=True, metavar="LO:HI")
    p.add_argument("--reps", type=_positive_int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=_positive_int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = commands.add_parser("verify", help="run numeric check suites")
    p.add_argument("--suite", default="all", choices=_SUITES + ("all",))
    p.add_argument("--seed", type=int)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--output", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = commands.add_parser("reflect", help="negatively reflect sampled or given paths")
    p.add_argument("--beta", type=float, required=True, help="reflection level")
    p.add_argument("--n", type=int, default=2, help="switch count for sampled paths")
    p.add_argument("--count", type=_positive_int, default=5,
                   help="number of sampled paths to emit")
    p.add_argument("--switch-times", metavar="T1,T2,...",
                   help="reflect this explicit upward-start path instead of sampling")
    p.add_argument("--seed", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_reflect)

    p = commands.add_parser("kac", help="compare the first-passage law with its Brownian limit")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--t", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    p.add_argument("--c-values", type=float, nargs="+", default=[20.0, 50.0])
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--output", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_kac)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, laws.OutOfScopeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
