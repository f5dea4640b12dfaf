import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import telegraph

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    pyproject = ROOT / "pyproject.toml"
    declared = re.search(
        r'^version\s*=\s*"([^"]+)"', pyproject.read_text(encoding="utf-8"), re.MULTILINE
    )
    assert declared is not None
    assert telegraph.__version__ == declared.group(1)


@pytest.mark.parametrize("module", ["telegraph", "telegraph.sampler", "telegraph.reflection",
                                    "telegraph.verify", "telegraph.cli"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_benchmark_tracer_finds_every_name_it_patches():
    # perfbench/tracing.py wraps program names in the namespaces that call them
    code = "import tracing; tracing.install(tracing.Tracer())"
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", [
    "verify --suite all",
    "simulate --functional position --n 8 --range=-1:1 --bins 20 --reps 2000 --seed 1",
])
def test_no_command_imports_numpy_polynomial(argv):
    # the Gauss-Legendre rule is computed in the package, not by numpy.polynomial
    code = ("import sys; from telegraph import cli; code = cli.main(sys.argv[1].split()); "
            "assert 'numpy.polynomial' not in sys.modules; sys.exit(code)")
    done = subprocess.run([sys.executable, "-c", code, argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
