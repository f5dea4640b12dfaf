"""Golden hashes of the command-line output.

``golden_checks.json`` holds, for each command below, the sha256 of its
stdout and of its stderr and its exit code, with the numpy version they were
taken with.  The commands are every ``telegraph verify`` suite and ``kac``;
``eval`` for every law table entry at both signs and six switch counts; the
benchmark's 15 ``eval`` grids; explicit and sampled ``reflect``; the
benchmark's five ``simulate`` histograms at fewer replications; and every row
of the exit-code table in ``test_cli.py``.  The test runs each command
in-process through ``cli.main`` and compares.  Run this file as a script to
regenerate the hashes from the code on the path:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib

import numpy as np
import pytest

from telegraph import cli, laws
from test_cli import EXIT_CODES

GOLDEN = pathlib.Path(__file__).with_name("golden_checks.json")

SUITES = ("identities", "normalization", "mc-cross", "kac", "random-walk", "return-printed",
          "all")
CHECKS = [f"verify --suite {suite}{fmt}" for suite in SUITES
          for fmt in ("", " --format json")] + ["kac", "kac --format json"]

# small grids that cross each support edge at t = 1.5, c = 0.9
GRIDS = {"beta": "--beta-grid=-0.1:1.3:8", "x": "--x-grid=-1.3:1.3:7", "s": "--s-grid=0:1.5:9"}


def _eval(law, component, v0, n):
    free = laws.LAWS[(law, component)].free
    return " ".join(["eval --law", law, *(["--component", component] if component else []),
                     "--v0", v0, *(["--n", str(n)] if n is not None else []),
                     "--t 1.5 --c 0.9 --lambda 2.5", *(["--beta 0.4"] if law == "fpt" else []),
                     *(GRIDS[var] for var in free)])


EVALS = [_eval(law, component, v0, n) + fmt
         for law, component in sorted(laws.LAWS) for v0 in "+-"
         for n in (0, 1, 3, 8, 1024, None) for fmt in ("", " --format json")]

# the eval-grid workload of perfbench/workloads.py
EVAL_GRIDS = [
    "eval --law position --n 2 --x-grid=-1:1:5001",
    "eval --law position --n 8 --x-grid=-1:1:5001",
    "eval --law position --n 64 --x-grid=-1:1:5001",
    "eval --law max --v0 - --n 7 --beta-grid 0:1:5001",
    "eval --law max_cdf --n 8 --beta-grid 0:1:5001",
    "eval --law joint --n 7 --beta-grid 0:1:71 --x-grid=-1:1:71",
    "eval --law joint_cdf --n 8 --beta-grid 0:1:71 --x-grid=-1:1:71",
    "eval --law fpt --n 8 --beta 0.5 --s-grid 0.5:1:2501",
    "eval --law fpt --n 64 --beta 0.5 --s-grid 0.5:1:1251",
    "eval --law return --n 9 --s-grid 0:1:2501",
    "eval --law joint --v0 - --component density --lambda 5 --beta-grid 0:1:71 --x-grid=-1:1:71",
    "eval --law joint --v0 - --component max_equals_position --lambda 1000 --beta-grid 0:1:5001",
    "eval --law position --n 1024 --x-grid=-1:1:101",
    "eval --law position --n 10000 --x-grid=-1:1:101",
    "eval --law fpt --n 200 --beta 0.3 --s-grid 0.3:1:101",
]

REFLECTS = [
    "reflect --beta 1 --t 4 --switch-times 1.5,3",
    "reflect --beta 0.5 --t 2 --c 0.7 --switch-times 0.3,0.9,1.4",
    "reflect --beta 0.3 --n 3 --count 50 --seed 5",
    "reflect --beta 0.3 --n 8 --count 20 --seed 1",
    "reflect --beta 0.8 --n 5 --t 2 --c 0.6 --count 10 --seed 3",
    # too few admissible paths: a note and exit 1
    "reflect --beta 0.9999 --n 2 --count 10 --seed 1",
]

# the mc-paths histograms of perfbench/workloads.py, at a twenty-fifth of the replications
SIMULATES = [
    "simulate --functional position --v0 + --n 8 --bins 40 --range=-1:1 --reps 20000",
    "simulate --functional max --v0 - --n 64 --bins 40 --range=0:1 --reps 5000",
    "simulate --functional fpt --v0 + --n 4 --beta 0.5 --bins 20 --range=0:1 --reps 10000",
    "simulate --functional fpt --v0 + --beta 0.5 --lambda 3 --bins 40 --range=0:1 --reps 20000",
    "simulate --functional return --v0 + --lambda 5 --bins 40 --range=0:1 --reps 20000",
]

COMMANDS = (CHECKS + EVALS + EVAL_GRIDS + REFLECTS
            + [f"{argv} --seed 17 --threads 2" for argv in SIMULATES]
            + [argv for argv, _ in EXIT_CODES])


def digest(argv: str) -> dict:
    """sha256 of the stdout and stderr, and the exit code, of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv.split())
    return {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
            "exit": code}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_lists_every_command(golden):
    assert list(golden["commands"]) == COMMANDS


@pytest.mark.parametrize("argv", COMMANDS)
def test_check_command_output_is_unchanged(golden, monkeypatch, argv):
    monkeypatch.delenv("TELEGRAPH_SEED", raising=False)
    versions = ("" if golden["numpy"] == np.__version__ else
                f"; the hashes were taken with numpy {golden['numpy']}, this is {np.__version__}")
    assert digest(argv) == golden["commands"][argv], f"telegraph {argv} changed{versions}"


if __name__ == "__main__":
    os.environ.pop("TELEGRAPH_SEED", None)
    record = {"numpy": np.__version__, "commands": {argv: digest(argv) for argv in COMMANDS}}
    GOLDEN.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
