"""The benchmark's workloads: their inputs, their ops and the check on each op.

An op calls ``telegraph`` through its public functions or through
``telegraph.cli.main`` in-process, writing to a file in the work directory,
and then checks the output.  It returns facts read from the output (counts
the per-layer metrics need) and raises ``CheckFailed`` when the output is
wrong.  Any exception out of the program, a traceback out of ``cli.main``
included, fails the op too.

Every seed an op passes to the program is derived from the workload seed, so
the same workload seed gives the same inputs.  Arguments of the check suites
are pinned, so the work stays fixed when a default changes.

Sizes are chosen so that a batch takes a few seconds and a run can take the
median of several batches; ``README.md`` gives the sizes this benchmark was
first designed with and how they were scaled down.

``known_defect`` marks the ops that fail at the commit that defined this
benchmark, with the reason.  They count as failed ops like any other; the
run reports itself incorrect only when some other op fails.
"""

import contextlib
import csv
import io
import json
import math
import os
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

MC_THREADS = 2
REFLECT_BETA = 0.3
BATCH_PATHS = 250_000
BATCH_SWITCHES = 8
MC_PROBABILITY_REPS = 25_000
REFLECT_COUNT = 500


class CheckFailed(Exception):
    """The program's output failed the op's check; ``facts`` are kept."""

    def __init__(self, message, facts=None):
        super().__init__(message)
        self.facts = facts or {}


@dataclass
class Op:
    name: str
    run: Callable[[], dict]
    threads: int = 1
    known_defect: str = ""


def derive_seed(seed, name):
    """Seed of one op, fixed by the workload seed and the op's name."""
    return (seed * 1_000_003 + zlib.crc32(name.encode())) % 2**31


def _cli(argv, workdir, name):
    """Run ``telegraph <argv> --output FILE`` in-process and return FILE's text."""
    from telegraph import cli

    out = os.path.join(workdir, name + ".out")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([*argv, "--output", out])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    if code != 0:
        raise CheckFailed(f"exit {code}: {stderr.getvalue().strip()[-300:]}")
    with open(out, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# verify-all


def _verify_op(name, call):
    def run():
        from telegraph import verify

        results = call(verify)
        facts = {
            "checks": len(results),
            "checks_failed": sum(not r.passed for r in results),
            "known_discrepancies": sum("known-discrepancy" in r.detail for r in results),
        }
        failed = [r.name for r in results if not r.passed and "known-discrepancy" not in r.detail]
        if failed:
            raise CheckFailed(f"failed checks: {', '.join(failed)}", facts)
        return facts

    return Op(name, run)


def verify_all(seed, workdir):
    identities_seed = derive_seed(seed, "verify.identities")
    # The cross-checks keep the CLI's default seed: their 12 checks at 3 standard
    # errors fail by chance on a few seeds in a hundred, and verify-all must not
    # fail on seeds at random.
    mc_seed = 0
    return [
        _verify_op("verify.identities", lambda v: v.run_identity_suite(
            n_max=8, grid_points=20, seed=identities_seed)),
        _verify_op("verify.normalization", lambda v: v.normalization_suite(n_max=6)),
        _verify_op("verify.mc-cross", lambda v: v.mc_cross_suite(reps=50_000, seed=mc_seed)),
        _verify_op("verify.kac", lambda v: v.kac_limit_check()),
        _verify_op("verify.random-walk", lambda v: v.random_walk_enumeration(14)),
        _verify_op("verify.return-printed", lambda v: v.return_printed_suite()),
    ]


# ---------------------------------------------------------------------------
# eval-grid

_OVERFLOW = "conditional law computes n! as a float and overflows at large n"


_EVAL_OPS = [
    # name, argv, grid points, atom rows, known defect
    ("eval.position.n2", ["--law", "position", "--n", "2", "--x-grid=-1:1:5001"], 5001, 0, ""),
    ("eval.position.n8", ["--law", "position", "--n", "8", "--x-grid=-1:1:5001"], 5001, 0, ""),
    ("eval.position.n64", ["--law", "position", "--n", "64", "--x-grid=-1:1:5001"], 5001, 0, ""),
    ("eval.max.n7", ["--law", "max", "--v0", "-", "--n", "7", "--beta-grid", "0:1:5001"],
     5001, 1, ""),
    ("eval.max_cdf.n8", ["--law", "max_cdf", "--n", "8", "--beta-grid", "0:1:5001"], 5001, 0, ""),
    ("eval.joint.n7", ["--law", "joint", "--n", "7", "--beta-grid", "0:1:71", "--x-grid=-1:1:71"],
     71 * 71, 0, ""),
    ("eval.joint_cdf.n8", ["--law", "joint_cdf", "--n", "8", "--beta-grid", "0:1:71",
                           "--x-grid=-1:1:71"], 71 * 71, 0, ""),
    ("eval.fpt.n8", ["--law", "fpt", "--n", "8", "--beta", "0.5", "--s-grid", "0.5:1:2501"],
     2501, 1, ""),
    ("eval.fpt.n64", ["--law", "fpt", "--n", "64", "--beta", "0.5", "--s-grid", "0.5:1:1251"],
     1251, 1, ""),
    ("eval.return.n9", ["--law", "return", "--n", "9", "--s-grid", "0:1:2501"], 2501, 0, ""),
    # unconditional Bessel forms: the series branch (lambda = 5) and the asymptotic one
    ("eval.joint.density.lam5", ["--law", "joint", "--v0", "-", "--component", "density",
                                 "--lambda", "5", "--beta-grid", "0:1:71", "--x-grid=-1:1:71"],
     71 * 71, 0, ""),
    ("eval.joint.max_equals_position.lam1000", ["--law", "joint", "--v0", "-", "--component",
                                                "max_equals_position", "--lambda", "1000",
                                                "--beta-grid", "0:1:5001"], 5001, 0, ""),
    # domain probes at large switch counts
    ("eval.probe.position.n1024", ["--law", "position", "--n", "1024", "--x-grid=-1:1:101"],
     101, 0, _OVERFLOW),
    ("eval.probe.position.n10000", ["--law", "position", "--n", "10000", "--x-grid=-1:1:101"],
     101, 0, _OVERFLOW),
    ("eval.probe.fpt.n200", ["--law", "fpt", "--n", "200", "--beta", "0.3", "--s-grid", "0.3:1:101"],
     101, 1, _OVERFLOW),
]


def _eval_op(workdir, name, argv, points, atoms, known_defect):
    def run():
        text = _cli(["eval", *argv], workdir, name)
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != points + atoms:
            raise CheckFailed(f"{len(rows)} rows, want {points} points + {atoms} atoms")
        for row in rows:
            value = float(row["value"])
            if not (math.isfinite(value) and value >= 0.0):
                raise CheckFailed(f"value {value} in row {row}")
        return {}

    return Op(name, run, known_defect=known_defect)


def eval_grid(seed, workdir):
    # eval draws no random numbers, so the workload seed does not enter
    return [_eval_op(workdir, *spec) for spec in _EVAL_OPS]


# ---------------------------------------------------------------------------
# mc-paths

_ATOM_IN_BIN = ("an atom of the functional falls inside a histogram bin whose analytic value "
                "is density only")


def _simulate_op(name, argv, reps, bins, value_range, seed, workdir, threads=MC_THREADS,
                 known_defect=""):
    lo, hi = value_range

    def run():
        text = _cli(["simulate", *argv, "--bins", str(bins), f"--range={lo}:{hi}",
                     "--reps", str(reps), "--seed", str(derive_seed(seed, name)),
                     "--threads", str(threads)], workdir, name)
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != bins:
            raise CheckFailed(f"{len(rows)} bins, want {bins}")
        width = (hi - lo) / bins
        inside = sum(round(float(r["estimate"]) * width * reps) for r in rows)
        facts = {"outside_bins": reps - inside}
        zs = [abs(float(r["z"])) for r in rows if r["z"]]
        if zs and max(zs) >= 5.0:
            raise CheckFailed(f"{sum(z >= 5.0 for z in zs)} bins with |z| >= 5, max {max(zs):.1f}",
                              facts)
        return facts

    return Op(name, run, threads, known_defect)


def _mc_probability_op(seed):
    name = "mc_probability.max_zero"

    def run():
        from telegraph import MotionParams, VelocitySign, path, sampler

        report = sampler.mc_probability(
            lambda p, params: path.running_max(p, params) <= 0.0,
            MotionParams(1.0, 1.0), 1.0, MC_PROBABILITY_REPS, v0=VelocitySign.MINUS, n=3,
            seed=derive_seed(seed, name), threads=MC_THREADS, analytic=0.375)
        if report.z_score is None or abs(report.z_score) >= 4.0:
            raise CheckFailed(f"P{{M = 0}} = {report.estimate} vs 0.375, z = {report.z_score}")
        return {}

    return Op(name, run, MC_THREADS)


def _batch_reflection_op(seed):
    name = "reflection.batch"
    rng = np.random.default_rng(derive_seed(seed, name))
    switches = np.sort(rng.uniform(0.0, 1.0, size=(BATCH_PATHS, BATCH_SWITCHES)), axis=1)

    def run():
        from telegraph import reflection

        t1, t2, _, _, ok = reflection.crossings_batch(switches, 1.0, 1.0, REFLECT_BETA)
        paths = switches[ok]
        images = reflection.reflect_batch(paths, t1[ok], t2[ok])
        u1, u2, _, _, admissible = reflection.zero_return_crossings_batch(
            images, 1.0, 1.0, REFLECT_BETA)
        facts = {"rows": len(switches), "ok_rows": int(ok.sum())}
        if not admissible.all():
            raise CheckFailed(f"{int((~admissible).sum())} images fail the inverse's admissibility",
                              facts)
        error = float(np.abs(reflection.reflect_inverse_batch(images, u1, u2) - paths).max())
        if error > 1e-12:
            raise CheckFailed(f"round-trip error {error:g}", facts)
        return facts

    return Op(name, run)


def _reflect_cli_op(seed, workdir):
    name = "reflect.cli"
    count = REFLECT_COUNT

    def run():
        text = _cli(["reflect", "--beta", str(REFLECT_BETA), "--n", "3", "--count", str(count),
                     "--seed", str(derive_seed(seed, name))], workdir, name)
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
        facts = {"records": len(records)}
        if len(records) != count:
            raise CheckFailed(f"{len(records)} records, want {count}", facts)
        worst = max(r["residual"] for r in records)
        if worst > 1e-12:
            raise CheckFailed(f"round-trip residual {worst:g}", facts)
        return facts

    return Op(name, run)


def _position_histogram(seed, workdir, threads=MC_THREADS, probe=False):
    name = f"probe.simulate.position.{threads}t" if probe else "simulate.position"
    return _simulate_op(name, ["--functional", "position", "--v0", "+", "--n", "8"], 500_000,
                        40, (-1.0, 1.0), seed, workdir, threads)


def mc_paths(seed, workdir):
    return [
        _position_histogram(seed, workdir),
        _simulate_op("simulate.max", ["--functional", "max", "--v0", "-", "--n", "64"], 125_000,
                     40, (0.0, 1.0), seed, workdir, known_defect=_ATOM_IN_BIN + " (P{M = 0} at 0)"),
        _simulate_op("simulate.fpt.cond", ["--functional", "fpt", "--v0", "+", "--n", "4",
                                           "--beta", "0.5"], 250_000, 20, (0.0, 1.0), seed,
                     workdir, known_defect=_ATOM_IN_BIN + " (direct flight at beta/c)"),
        _simulate_op("simulate.fpt.uncond", ["--functional", "fpt", "--v0", "+", "--beta", "0.5",
                                             "--lambda", "3"], 500_000, 40, (0.0, 1.0), seed,
                     workdir),
        _simulate_op("simulate.return.uncond", ["--functional", "return", "--v0", "+",
                                                "--lambda", "5"], 500_000, 40, (0.0, 1.0), seed,
                     workdir),
        _mc_probability_op(seed),
        _batch_reflection_op(seed),
        _reflect_cli_op(seed, workdir),
    ]


WORKLOADS = {"verify-all": verify_all, "eval-grid": eval_grid, "mc-paths": mc_paths}


def probes(workload, seed, workdir):
    """Ops run only in a traced run, for per-layer ratios; not part of the workload."""
    if workload == "mc-paths":
        # thread scaling, both sides measured after the workload has warmed the process
        return [_position_histogram(seed, workdir, threads, probe=True) for threads in (1, MC_THREADS)]
    return []
