"""Golden hashes of the check commands.

``golden_checks.json`` holds, for each ``telegraph verify`` and
``telegraph kac`` command below, the sha256 of its stdout and of its stderr
and its exit code, with the numpy version they were taken with.  The test
runs each command in-process through ``cli.main`` and compares.  Run this
file as a script to regenerate the hashes from the code on the path:

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

from telegraph import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_checks.json")

SUITES = ("identities", "normalization", "mc-cross", "kac", "random-walk", "return-printed",
          "all")
COMMANDS = [f"verify --suite {suite}{fmt}" for suite in SUITES
            for fmt in ("", " --format json")] + ["kac", "kac --format json"]


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
