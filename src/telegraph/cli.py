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
import contextlib
import functools
import json
import math
import os
import string
import sys
from itertools import chain, islice, repeat, tee
from typing import Iterable, List, Optional

import numpy as np

from . import laws, reflection
from .params import MotionParams, VelocitySign
# ``position_at``, ``in_P_plus``, the three scalar reflection functions and
# ``sample_conditional`` have no caller here any more; the benchmark tracer
# (perfbench/tracing.py) patches them in this namespace
from .path import TelegraphPath, position_at
from .reflection import (CrossingPair, classify_crossings, in_P_plus, negative_reflect,
                         negative_reflect_inverse)
from .sampler import (RngStream, _check_counts, _chunk_rows, _switch_blocks,
                      mc_density_histogram, position_batch, sample_conditional)
from . import verify as verify_mod

__all__ = ["main", "build_parser"]


def _grid_spec(text: str) -> np.ndarray:
    """Parse 'lo:hi:count' into an inclusive linspace."""
    try:
        lo, hi, count = text.split(":")
        points = np.linspace(float(lo), float(hi), int(count))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}, want lo:hi:count") from exc
    except MemoryError as exc:
        raise argparse.ArgumentTypeError(f"grid {text!r} does not fit in memory: {exc}") from exc
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
    text = str(value)
    if any(ch in text for ch in ',"\r\n'):
        # quoted as the csv module quotes it
        return '"' + text.replace('"', '""') + '"'
    return text


def _emit(lines: Iterable[str], output: Optional[str]) -> None:
    """Write each item of ``lines`` and a newline after it.  An item may hold
    several lines joined by newlines, so a long text can be handed over a
    block at a time."""
    with (open(output, "w", encoding="utf-8", newline="\n") if output
          else contextlib.nullcontext(sys.stdout)) as fh:
        for line in lines:
            fh.write(line + "\n")


def _default_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("TELEGRAPH_SEED")
    return int(env) if env else 0


# ---------------------------------------------------------------------------
# eval

_CELLS = ("beta", "x", "s")

#: rows of an ``eval`` table, CSV lines or JSON objects, joined and written at a time;
#: a 10^6-point JSON grid peaks at 143 MB RSS with 2^14 (CSV 137 MB), 216 MB with 2^16.
#: ``reflect`` turns its records' arrays into Python lists this many rows at a time.
_BLOCK_ROWS = 2 ** 14


def _product_column(grid: List[float], before: int, after: int) -> Iterable[str]:
    """The texts of one grid as a column in ``itertools.product`` order: each
    text once per point of the later grids (``after``), and the whole tiled
    once per point of the earlier grids (``before``).  Only a tiled column
    keeps its texts."""
    texts = map(repr, grid)
    if after > 1:
        texts = chain.from_iterable(map(repeat, texts, repeat(after)))
    if before > 1:
        texts = chain.from_iterable(repeat(list(texts), before))
    return texts


def cmd_eval(args) -> int:
    law = laws.resolve(args.law, args.v0, args.n, args.t, args.c, args.lam,
                       args.component, args.beta)
    # every variable given must be free; the one exception is --beta, the level of fpt
    extra = [option for var in _CELLS if var not in law.free
             for option, value in ((f"--{var}", getattr(args, var)),
                                   (f"--{var}-grid", getattr(args, f"{var}_grid")))
             if value is not None and (args.law, option) != ("fpt", "--beta")]
    if extra:
        raise ValueError(f"law {args.law} takes no {', '.join(extra)}; its free variables: "
                         f"{', '.join(law.free) or 'none'}")
    grids = []
    for var in law.free:
        grid, point = getattr(args, f"{var}_grid"), getattr(args, var)
        if grid is None and point is None:
            print(f"eval --law {args.law} needs --{var} or --{var}-grid", file=sys.stderr)
            return 2
        if grid is not None and point is not None:
            raise ValueError(f"law {args.law} takes --{var} or --{var}-grid, not both")
        grids.append([point] if grid is None else grid.tolist())
    # one call on the whole grid, flattened in itertools.product order
    values = law.values(*np.meshgrid(*grids, indexing="ij")).ravel().tolist()
    # every row is one template, a CSV line or a JSON object as json.dumps(..., indent=2)
    # writes it (braces doubled), split once into literal pieces and columns of text
    csv = args.format == "csv"
    cell, sep = (_csv_cell, "\n") if csv else (json.dumps, ",\n")
    query = {"v0": args.v0, "n": args.n, "law": args.law, "t": args.t, "c": args.c,
             "lambda": args.lam, "component": args.component}
    # CSV has the law first and no component, JSON a component for the joint law only
    fixed = (["law", "v0", "n", "t", "c", "lambda"] if csv else
             [key for key in query if key != "component" or args.law == "joint"])
    keys = (*fixed, *_CELLS, "kind", "value", "at")

    def row(cells) -> str:
        texts = [*(cell(query[key]) for key in fixed), *cells]
        return ",".join(texts) if csv else "  {{\n" + ",\n".join(
            f'    "{key}": {text}' for key, text in zip(keys, texts)) + "\n  }}"
    slots = {var: f"{{{i}}}" for i, var in enumerate(law.free)}
    template = row([*(slots.get(var, cell(None)) for var in _CELLS), cell(law.kind),
                    f"{{{len(law.free)}}}", cell(law.at)])
    sizes = [len(grid) for grid in grids]
    columns = [*(_product_column(grid, math.prod(sizes[:i]), math.prod(sizes[i + 1:]))
                 for i, grid in enumerate(grids)), map(repr, values)]
    parsed = list(string.Formatter().parse(template))
    fields = [int(field) for _, field, _, _ in parsed if field is not None]
    # a field that occurs twice (a variable and its `at` label) reads its column twice
    copies = {i: iter(tee(columns[i], fields.count(i))) for i in set(fields)}
    pieces = []
    for literal, field, _, _ in parsed:
        if literal:
            pieces.append(repeat(literal))
        if field is not None:
            pieces.append(next(copies[int(field)]))
    # a grid row joins one element of each piece; atom rows, templates without a field, follow
    rows = chain(map("".join, zip(*pieces)), [row(map(cell, (*cells, "atom", mass, at))).format()
                                              for cells, mass, at in law.atoms])
    total = len(values) + len(law.atoms)
    # a block of rows at a time, so only one block's text is alive; a JSON block
    # but the last ends in the comma before the next
    body = (sep.join(islice(rows, _BLOCK_ROWS)) + sep[:-1] * (start + _BLOCK_ROWS < total)
            for start in range(0, total, _BLOCK_ROWS))
    _emit(chain([",".join(keys)], body) if csv else chain(["["], body, ["]"]) if total else ["[]"],
          args.output)
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    v0 = VelocitySign(args.v0)
    params = MotionParams(args.c, getattr(args, "lam"))
    entry = laws.LAWS[args.functional, None]
    mass = None  # the law's bin masses, where the table has the law for this query
    if (entry.uncond if args.n is None else entry.cond) is not None:
        mass = laws.resolve(args.functional, args.v0, args.n, args.t, args.c, args.lam,
                            beta=args.beta).mass
    seed = _default_seed(args.seed)
    bins = mc_density_histogram(
        args.functional, v0, args.n, params, args.t, args.bins, args.range,
        args.reps, seed=seed, threads=args.threads, beta=args.beta, mass=mass,
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


#: --suite name -> its check suite, looked up in ``verify`` when it runs
_SUITES = {
    "identities": lambda seed: verify_mod.run_identity_suite(seed=seed),
    "normalization": lambda seed: verify_mod.normalization_suite(),
    "mc-cross": lambda seed: verify_mod.mc_cross_suite(seed=seed),
    "kac": lambda seed: verify_mod.kac_limit_check(),
    "random-walk": lambda seed: verify_mod.random_walk_enumeration(),
    "return-printed": lambda seed: verify_mod.return_printed_suite(),
}


def _report(results, args) -> int:
    """Write check results as JSON or a text table; 1 if a check failed."""
    to_text = verify_mod.results_to_json if args.format == "json" else verify_mod.results_to_table
    _emit([to_text(results)], args.output)
    # entries flagged as known discrepancies are documentation, not failures
    return int(any(not r.passed and "known-discrepancy" not in r.detail for r in results))


def cmd_verify(args) -> int:
    seed = _default_seed(args.seed)
    wanted = _SUITES if args.suite == "all" else (args.suite,)
    return _report([result for suite in wanted for result in _SUITES[suite](seed)], args)


# ---------------------------------------------------------------------------
# reflect


#: Largest round-trip switch-time error of a ``reflect`` record; a larger one
#: exits 1, because the inverse surgery did not undo the forward one.
RESIDUAL_TOL = 1e-12


def _reflect_records(args, switches, xs, images, residuals, h, l) -> Iterable[str]:
    """One JSON record per reflected upward-start path, made as it is written:
    the path and its image, the level and endpoint, both crossing pairs, and
    the largest switch-time error of the round trip.  The arrays become
    Python lists ``_BLOCK_ROWS`` rows at a time."""
    for start in range(0, len(xs), _BLOCK_ROWS):
        part = slice(start, start + _BLOCK_ROWS)
        fields = zip(switches[part].tolist(), images[part].tolist(), xs[part].tolist(),
                     map(CrossingPair, h[part].tolist(), l[part].tolist()),
                     residuals[part].tolist())
        for row, image, x, pair, residual in fields:
            yield json.dumps({
                "input": {"v0": VelocitySign.PLUS.value, "t": args.t, "switches": row},
                "output": {"v0": VelocitySign.MINUS.value, "t": args.t, "switches": image},
                "beta": args.beta,
                "x": x,
                "pair": [pair.h, pair.l],
                "image_pair": [pair.image().h, pair.image().l],
                "residual": residual,
            })


def cmd_reflect(args) -> int:
    params = MotionParams(args.c, args.lam)  # checks c and lambda
    ct = args.c * args.t
    # at a lower level the first up-crossing, at time beta/c, is a degenerate cut on every path
    low = reflection.DEGENERATE_REL_TOL * ct
    if not low < args.beta < ct:
        raise ValueError(f"reflect needs a level {low:g} = DEGENERATE_REL_TOL * c*t < beta < "
                         f"c*t = {ct}, got {args.beta}")
    explicit = args.switch_times is not None
    if explicit:
        times = [float(v) for v in args.switch_times.split(",") if v]
        TelegraphPath(VelocitySign.PLUS, args.t, times)  # checks the switch times
        count, budget, rounds = 1, 1, [np.array([times])]
    elif args.n < 1:
        raise ValueError("reflect needs --n >= 1: a path without a switch ends above beta")
    else:
        _check_counts(args.n, params, args.t)
        count, budget = args.count, 10000 * args.count
        rng = RngStream(_default_seed(args.seed), 77).generator()
        # a round is one vertex block of the driver's draws, drawn when reached
        rounds = _switch_blocks(_chunk_rows(args.n, params, args.t, [budget], [rng]), args.t)
    # the records are the first rows of the stream that pass; each round keeps
    # (switches, x, image, round trip, h, l) of its admitted rows
    kept, taken = [], 0
    for rows in rounds:
        xs = position_batch(VelocitySign.PLUS, rows, args.t, args.c)
        # the kernels are reached through their module, where wrappers may be installed;
        # ok implies an up-crossing, so a maximum above beta
        t1, t2, h, l, ok = reflection.crossings_batch(rows, args.t, args.c, args.beta)
        window = (2.0 * args.beta - ct < xs) & (xs <= args.beta)
        cut = np.flatnonzero(ok & window)
        images = reflection.reflect_batch(rows[cut], t1[cut], t2[cut])
        u1, u2, _, _, ok_back = reflection.zero_return_crossings_batch(
            images, args.t, args.c, args.beta)
        admit = np.flatnonzero(ok_back)[:count - taken]
        if explicit and not len(admit):
            # the kernel's l is 1 where no down-crossing follows an up-crossing
            raise reflection.ReflectionDomainError(
                f"path ends at x={xs[0]}, outside (2*beta - c*t, beta]" if not window[0] else
                "path has no up-crossing of beta followed by a down-crossing" if l[0] == 1 else
                "a cut point lies within DEGENERATE_REL_TOL * t of a switch time or of the level")
        keep, images = cut[admit], images[admit]
        kept.append((rows[keep], xs[keep], images,
                     reflection.reflect_inverse_batch(images, u1[admit], u2[admit]),
                     h[keep], l[keep]))
        taken += len(admit)
        if taken == count:
            break
    rows, xs, images, backs, h, l = map(np.concatenate, zip(*kept))
    residuals = np.abs(backs - rows).max(axis=1, initial=0.0)
    _emit(_reflect_records(args, rows, xs, images, residuals, h, l), args.output)
    # the codomain: every image ends at 2*beta - x
    ends = position_batch(VelocitySign.MINUS, images, args.t, args.c)
    misses = {f"have a round-trip residual above {RESIDUAL_TOL:g}": residuals > RESIDUAL_TOL,
              f"have an image ending farther than {reflection.ENDPOINT_TOL:g} from 2*beta - x":
              np.abs(ends - (2.0 * args.beta - xs)) > reflection.ENDPOINT_TOL}
    for what, bad in misses.items():
        if bad.any():
            print(f"error: {bad.sum()} of {taken} records {what}", file=sys.stderr)
    if taken < count:
        print(f"note: emitted {taken} of {count} requested paths "
              f"after {budget} attempts", file=sys.stderr)
        return 1
    return int(any(bad.any() for bad in misses.values()))


# ---------------------------------------------------------------------------
# kac


def cmd_kac(args) -> int:
    return _report(verify_mod.kac_limit_check(args.beta, args.t, args.c_values), args)


# ---------------------------------------------------------------------------
# parser


def _add_common(sub):
    sub.add_argument("--c", type=float, default=1.0, help="speed c > 0 (default 1)")
    sub.add_argument("--lambda", dest="lam", type=float, default=1.0,
                     help="switch rate lambda > 0 (default 1.0)")
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
    p.add_argument("--law", required=True, choices=sorted({law for law, _ in laws.LAWS}))
    p.add_argument("--v0", default="+", choices=["+", "-"], help="initial velocity sign")
    p.add_argument("--n", type=int, help="switch count; omit for the unconditional law")
    p.add_argument("--component", default="density",
                   choices=laws.JOINT_COMPONENTS,
                   help="joint-law component (law=joint only), with or without --n")
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
    p.add_argument("--suite", default="all", choices=[*_SUITES, "all"])
    p.add_argument("--seed", type=int)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--output", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = commands.add_parser("reflect", help="negatively reflect sampled or given paths")
    p.add_argument("--beta", type=float, required=True,
                   help="reflection level, 0 < beta < c*t")
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


#: the parser ``main`` reuses; parsing leaves no state in it, so one serves
#: every call in a process
_parser = functools.cache(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, MemoryError, OSError, laws.OutOfScopeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
