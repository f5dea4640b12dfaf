import csv
import io
import itertools
import json
import math

import numpy as np
import pytest

from telegraph import cli
from telegraph import laws, reflection
from telegraph.laws import Conditioning
from telegraph.params import MotionParams, VelocitySign

PLUS, MINUS = VelocitySign.PLUS, VelocitySign.MINUS
EVAL_HEADER = ["law", "v0", "n", "t", "c", "lambda", "beta", "x", "s", "kind", "value", "at"]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def eval_rows(text):
    rows = parse_csv(text)
    assert rows[0] == EVAL_HEADER
    assert all(len(row) == len(EVAL_HEADER) for row in rows)
    return rows[1:]


class TestEval:
    @pytest.mark.parametrize("lam", ["1", "5"])
    def test_unconditional_joint_density_on_wedge_edge(self, capsys, lam):
        # x = 2*beta - ct is the edge where I_1(z)/sqrt(ct - w) has a finite limit
        code, out, err = run_cli(
            capsys, "eval", "--law", "joint", "--v0", "+", "--beta", "0.5", "--x", "0",
            "--lambda", lam,
        )
        assert code == 0, err
        (row,) = eval_rows(out)
        params = MotionParams(1.0, float(lam))
        inside = [laws.joint_pdf_unconditional(PLUS, 0.5, x, 1.0, params) for x in (1e-7, 1e-9)]
        assert float(row[10]) == pytest.approx(inside[1], rel=1e-8)
        assert float(row[10]) == pytest.approx(inside[0], rel=1e-6)

    def test_position_point_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--law", "position", "--v0", "+", "--n", "2", "--x", "0.2"
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == EVAL_HEADER
        assert len(rows) == 2
        assert float(rows[1][10]) == pytest.approx(0.6)

    def test_grid_produces_one_row_per_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--law", "position", "--n", "3", "--x-grid=-0.5:0.5:5"
        )
        assert code == 0
        assert len(parse_csv(out)) == 1 + 5

    def test_max_emits_atom_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--law", "max", "--v0", "-", "--n", "3", "--beta", "0.5"
        )
        assert code == 0
        rows = parse_csv(out)[1:]
        kinds = {row[9] for row in rows}
        assert "density" in kinds
        assert "atom" in kinds
        atom_value = next(float(r[10]) for r in rows if r[9] == "atom")
        assert atom_value == pytest.approx(0.375)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--law", "return", "--v0", "-", "--n", "3", "--s", "0.5",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["value"] == pytest.approx(0.46875)

    def test_unconditional_fpt(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--law", "fpt", "--beta", "0.5")
        assert code == 0
        rows = parse_csv(out)[1:]
        density = next(float(r[10]) for r in rows if r[9] == "density")
        assert density == pytest.approx(0.10086572740845744)

    def test_missing_free_variable_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--law", "position", "--n", "2")
        assert code == 2
        assert err

    def test_overflowing_law_value_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--law", "fpt", "--n", "1100", "--beta", "0.3", "--s", "0.5"
        )
        assert code == 2
        assert err.startswith("error: ")
        assert "law fpt at n = 1100 overflows a float" in err
        assert "Traceback" not in err

    def test_conditional_max_equals_position_component(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--law", "joint", "--v0", "-", "--n", "3",
            "--component", "max_equals_position", "--beta", "0.5", "--x", "-0.2",
        )
        assert code == 0
        assert eval_rows(out) == [
            ["joint", "-", "3", "1.0", "1.0", "1.0", "0.5", "", "", "density",
             repr(laws.joint_atom_max_equals_position_pdf(MINUS, 3, 0.5, 1.0, 1.0)),
             "M = T = 0.5"],
        ]

    def test_conditional_diagonal_component(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--law", "joint", "--n", "1", "--component", "diagonal",
            "--beta-grid", "0.2:0.6:3",
        )
        assert code == 0
        rows = eval_rows(out)
        assert [row[6] for row in rows] == ["0.2", "0.4", "0.6"]
        for row in rows:
            assert float(row[10]) == laws.joint_atom_diagonal_pdf(PLUS, 1, float(row[6]), 1.0, 1.0)
            assert row[11] == f"M = {row[6]}, T = 2M - ct"
        assert float(rows[0][10]) == 1.0

    def test_conditional_max_zero_component(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--law", "joint", "--v0", "-", "--n", "3",
            "--component", "max_zero", "--beta", "0.5", "--x", "-0.2",
        )
        assert code == 0
        assert eval_rows(out) == [
            ["joint", "-", "3", "1.0", "1.0", "1.0", "", "-0.2", "", "density",
             repr(laws.joint_atom_max_zero_pdf(MINUS, 3, -0.2, 1.0, 1.0)), "M = 0, T = -0.2"],
        ]

    def test_conditional_corner_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--law", "joint", "--n", "2", "--component", "corner"
        )
        assert code == 2
        assert out == ""
        assert "corner" in err and "switch count" in err

    def test_values_are_plain_decimal(self, capsys):
        _, out, _ = run_cli(
            capsys, "eval", "--law", "position", "--n", "2", "--x-grid=-0.9:0.9:7"
        )
        assert "np.float64" not in out
        for row in parse_csv(out)[1:]:
            float(row[10])  # parseable, '.' decimal separator


class TestSimulate:
    @pytest.mark.parametrize("beta", ["0", "-0.5"])
    def test_unconditional_fpt_needs_positive_level(self, capsys, beta):
        code, out, err = run_cli(
            capsys,
            "simulate", "--functional", "fpt", "--v0", "+", f"--beta={beta}", "--lambda", "1",
            "--bins", "4", "--range=0:1", "--reps", "1000",
        )
        assert code == 2
        assert out == ""
        assert "beta > 0" in err

    def test_histogram_csv_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--functional", "position", "--v0", "+", "--n", "2",
            "--bins", "5", "--range=-1:1", "--reps", "20000", "--seed", "1",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["bin_lo", "bin_hi", "estimate", "std_error", "analytic", "z"]
        assert len(rows) == 6
        for row in rows[1:]:
            assert abs(float(row[5])) < 5.0

    def test_sparse_tail_bin_scored_by_reference_error(self, capsys):
        # bin (-0.95, -0.9) holds 1 sample against 7.1 expected: z = -2.29 under the
        # reference's error, -6.13 under the single sample's own
        code, out, _ = run_cli(
            capsys,
            "simulate", "--functional", "position", "--v0", "+", "--n", "8", "--bins", "40",
            "--range=-1:1", "--reps", "500000", "--seed", "663320248", "--threads", "2",
        )
        assert code == 0
        assert max(abs(float(row[5])) for row in parse_csv(out)[1:]) < 4.0

    def test_seeded_runs_are_identical(self, capsys):
        args = (
            "simulate", "--functional", "max", "--v0", "-", "--n", "3",
            "--bins", "4", "--range", "0:1", "--reps", "5000", "--seed", "7",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_env_seed_fallback(self, capsys, monkeypatch):
        args = (
            "simulate", "--functional", "position", "--n", "1",
            "--bins", "3", "--range=-1:1", "--reps", "2000",
        )
        monkeypatch.setenv("TELEGRAPH_SEED", "11")
        _, a, _ = run_cli(capsys, *args)
        _, b, _ = run_cli(capsys, *args)
        monkeypatch.setenv("TELEGRAPH_SEED", "12")
        _, c, _ = run_cli(capsys, *args)
        assert a == b
        assert a != c

    def test_output_file_and_summary(self, capsys, tmp_path):
        target = tmp_path / "hist.csv"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--functional", "position", "--n", "2",
            "--bins", "4", "--range=-1:1", "--reps", "4000", "--seed", "2",
            "--output", str(target),
        )
        assert code == 0
        assert target.exists()
        summary = json.loads(out)
        assert summary["replications"] == 4000


class TestVerify:
    def test_random_walk_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "random-walk")
        assert code == 0
        assert out

    def test_return_dossier_known_discrepancy_does_not_fail(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "return-printed", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert any("known-discrepancy" in r["detail"] for r in rows)

    def test_identities_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert {"name", "passed", "observed", "expected", "tolerance", "detail"} <= set(rows[0])
        assert all(r["passed"] for r in rows)


class TestReflect:
    def test_explicit_path(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reflect", "--beta", "1", "--t", "4", "--switch-times", "1.5,3",
        )
        assert code == 0
        rec = json.loads(out.splitlines()[0])
        assert rec["input"]["v0"] == "+"
        assert rec["input"]["switches"] == pytest.approx([1.5, 3.0])
        assert rec["output"]["v0"] == "-"
        assert rec["output"]["switches"] == pytest.approx([0.5, 3.0])
        assert rec["pair"] == [1, 2]
        assert rec["image_pair"] == [2, 2]
        assert rec["residual"] <= 1e-12

    def test_sampled_paths(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reflect", "--beta", "0.3", "--n", "3", "--count", "4", "--seed", "5",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        for line in lines:
            rec = json.loads(line)
            assert rec["residual"] <= 1e-12
            assert rec["beta"] == 0.3

    def test_single_switch_paths_are_supported(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reflect", "--beta", "0.3", "--n", "1", "--count", "2", "--seed", "5",
        )
        assert code == 0
        assert len(out.splitlines()) == 2

    @pytest.mark.parametrize("argv", [
        ("--beta", "0.3", "--n", "3", "--count", "4", "--seed", "5"),
        ("--beta", "1", "--t", "4", "--switch-times", "1.5,3"),
    ])
    def test_round_trip_residual_above_tolerance_fails(self, capsys, monkeypatch, argv):
        inverse = reflection.reflect_inverse_batch
        monkeypatch.setattr(reflection, "reflect_inverse_batch",
                            lambda images, u1, u2: inverse(images, u1, u2) + 1e-9)
        code, out, err = run_cli(capsys, "reflect", *argv)
        assert code == 1
        assert out and "residual above 1e-12" in err

    def test_short_run_fails(self, capsys):
        # at beta = 0.9999 almost no 2-switch path ends in (2*beta - ct, beta]
        code, out, err = run_cli(
            capsys, "reflect", "--beta", "0.9999", "--n", "2", "--count", "1", "--seed", "1"
        )
        assert code == 1
        assert out.strip() == ""
        assert "note: emitted 0 of 1 requested paths after 10000 attempts" in err

    def test_level_outside_cone_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "reflect", "--beta", "2.0", "--t", "1", "--switch-times", "0.5"
        )
        assert code == 2
        assert err


class TestKac:
    def test_passes_with_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "kac", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert all(r["passed"] for r in rows)


@pytest.mark.parametrize("argv,code", [
    # domain checks where a query enters: the horizon, the free variables, c and lambda
    ("eval --law position --n 5 --x 0 --t 0", 2),
    ("eval --law position --n 5 --x 0 --t -1", 2),
    ("eval --law position --n 5 --x 0 --t inf", 2),
    ("eval --law position --n 5 --x nan", 2),
    ("eval --law position --n 5 --x inf", 2),
    ("eval --law joint --n 4 --beta 0.5 --x-grid=-1:nan:3", 2),
    ("eval --law position --n 5 --x 0 --c inf", 2),
    ("eval --law position --n 5 --x 0 --lambda nan", 2),
    # kac: a horizon t > 0, two distinct values of c to compare, finite lambda = c^2
    ("kac --t 0", 2),
    ("kac --c-values 5 5", 2),
    ("kac --c-values 1e300", 2),
    ("kac --c-values 20 1e300", 2),
    # one bin holding every sample has standard error 0 and no z-score
    ("simulate --functional position --n 8 --range=-1:1 --bins 1 --reps 100", 0),
    # simulate without a switch count checks the horizon itself
    ("simulate --functional position --range=-1:1 --reps 100 --t 0", 2),
    ("simulate --functional position --range=-1:1 --reps 100 --t -1", 2),
    ("simulate --functional position --range=-1:1 --reps 100 --t nan", 2),
    # switch counts that no block of 2^16 vertices holds are refused before drawing
    ("simulate --functional max --lambda 1e9 --range=0:1 --reps 2", 2),
    ("simulate --functional max --lambda 32769 --range=0:1 --reps 2", 2),
    ("simulate --functional max --n 65535 --range=0:1 --reps 2", 2),
    # sampled reflect checks its level and switch count before drawing
    ("reflect --beta 2 --count 20", 2),
    ("reflect --beta nan", 2),
    ("reflect --beta 0.3 --n 0", 2),
    # at beta = 0 the up-crossing is the start vertex, a degenerate cut
    ("reflect --beta 0 --n 4 --count 20 --seed 2", 2),
    ("reflect --beta 0 --t 4 --switch-times 1.5,3", 2),
    # a level within DEGENERATE_REL_TOL * c*t of the start makes every cut degenerate
    ("reflect --beta 1e-13 --n 4 --count 5", 2),
    ("reflect --beta 2e-12 --c 2 --n 4 --count 5", 2),
])
def test_exit_code_without_traceback(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv.split())
    assert got == code, err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and out == ""


# ---------------------------------------------------------------------------
# every law table entry against direct calls of the law functions

T, C, LAM, LEVEL = 1.5, 0.9, 2.5, 0.4
GRIDS = {"beta": (-0.1, 1.3, 15), "x": (-1.3, 1.3, 14), "s": (0.0, 1.5, 16)}


def _direct(law, component, v0, n):
    """(free variables, point -> (kind, value, at), atom rows) computed by
    calling the law functions directly, or None where the query has no law."""
    params = MotionParams(C, LAM)
    plus = v0 is PLUS
    if n is None:
        cases = {
            ("joint", "density"): (("beta", "x"), lambda b, x: (
                "density", laws.joint_pdf_unconditional(v0, b, x, T, params),
                f"M = {b}, T = {x}")),
            ("joint", "max_equals_position"): (("beta",), lambda b: (
                "density", laws.joint_atom_max_equals_position_pdf_unconditional(v0, b, T, params),
                f"M = T = {b}")),
            ("joint", "diagonal"): (("beta",), lambda b: (
                "density", laws.joint_atom_diagonal_pdf_unconditional(v0, b, T, params),
                f"M = {b}, T = 2M - ct")) if plus else None,
            ("joint", "max_zero"): (("x",), lambda x: (
                "density", laws.joint_atom_max_zero_pdf_unconditional(v0, x, T, params),
                f"M = 0, T = {x}")) if not plus else None,
            ("joint", "corner"): ((), lambda: (
                "atom", math.exp(-LAM * T),
                f"M = T = {C * T}" if plus else f"M = 0, T = {-C * T}")),
            ("fpt", None): ((), lambda: (
                "density", laws.fpt_pdf_unconditional(v0, LEVEL, T, params), f"F_beta = {T}")),
            ("return", None): ((), lambda: (
                "density", laws.return_pdf_unconditional(T, params), f"F_0 = {T}")),
        }
        found = cases.get((law, component))
        if found is None:
            return None
        atoms = []
        if law == "fpt":
            atom = laws.fpt_atom_unconditional(v0, LEVEL, params)
            atoms = [(LEVEL, None, LEVEL / C, atom.kind, atom.value, atom.at)]
        return (*found, atoms)

    cond = Conditioning(v0, n)
    if law == "position" and n == 0:
        return ("x",), lambda x: ("atom", 1.0, f"T(t) = {v0.value_sign * C * T}"), []
    if law == "max" and n == 0:
        at = f"M(t) = {C * T}" if plus else "M(t) = 0"
        found = (("beta",), lambda b: ("atom", 1.0, at))
    else:
        found = {
            ("position", None): (("x",), lambda x: (
                "density", laws.position_pdf(v0.value_sign, n, x, T, C), f"T(t) = {x}")),
            ("max", None): (("beta",), lambda b: (
                "density", laws.max_pdf(v0, n, b, T, C), f"M(t) = {b}")),
            ("max_cdf", None): (("beta",), lambda b: (
                "cdf", laws.max_cdf_value(v0, n, b, T, C), f"M(t) <= {b}")),
            ("joint", "density"): (("beta", "x"), lambda b, x: (
                "density", laws.joint_pdf(v0, n, b, x, T, C), f"M = {b}, T = {x}")),
            ("joint", "max_equals_position"): (("beta",), lambda b: (
                "density", laws.joint_atom_max_equals_position_pdf(v0, n, b, T, C),
                f"M = T = {b}")),
            ("joint", "diagonal"): (("beta",), lambda b: (
                "density", laws.joint_atom_diagonal_pdf(v0, n, b, T, C), f"M = {b}, T = 2M - ct")),
            ("joint", "max_zero"): (("x",), lambda x: (
                "density", laws.joint_atom_max_zero_pdf(v0, n, x, T, C), f"M = 0, T = {x}")),
            ("joint_cdf", None): (("beta", "x"), lambda b, x: (
                "density", laws.joint_cdf_in_max_pdf(v0, n, b, x, T, C),
                f"M <= {b}, T(t) = {x}")),
            ("fpt", None): (("s",), lambda s: (
                "density", laws.fpt_pdf(v0, n, LEVEL, s, T, C), f"F_beta = {s}")),
            ("return", None): (("s",), lambda s: (
                "density", laws.return_pdf_corrected(n, s, T), f"F_0 = {s}")),
            ("return_printed", None): (("s",), lambda s: (
                "density", laws.return_pdf_printed(n, s, T), f"F_0 = {s}")),
        }.get((law, component))
        if found is None:
            return None
    atoms = []
    if law == "max":
        atom = laws.max_atom_zero(cond)
        atoms = [(0.0, None, None, atom.kind, atom.value, atom.at)]
    if law == "fpt":
        atom = laws.fpt_atom(cond, LEVEL, T, MotionParams(C, LAM))
        atoms = [(LEVEL, None, LEVEL / C, atom.kind, atom.value, atom.at)]
    return (*found, atoms)


def _cell(value):
    return "" if value is None else str(value)


# every entry at small n, and the laws that stay finite at large n there
_EVAL_CASES = [
    (law, component, v0, n)
    for (law, component), v0, counts in itertools.chain(
        itertools.product(sorted(laws.LAWS), "+-", [(0, 1, 2, 3, 8, None)]),
        itertools.product([key for key in sorted(laws.LAWS) if key[0] in ("position", "max", "joint")],
                          "+-", [(1024, 10**4)]),
        itertools.product([("fpt", None)], "+-", [(200,)]),
    )
    for n in counts
]


@pytest.mark.parametrize(
    "law,component,v0,n",
    [pytest.param(*case, id="-".join(map(str, case))) for case in _EVAL_CASES],
)
def test_eval_rows_equal_direct_law_calls(capsys, law, component, v0, n):
    argv = ["eval", "--law", law, "--v0", v0, "--t", str(T), "--c", str(C),
            "--lambda", str(LAM), "--beta", str(LEVEL)]
    argv += [f"--{var}-grid={lo}:{hi}:{count}" for var, (lo, hi, count) in GRIDS.items()]
    if component is not None:
        argv += ["--component", component]
    if n is not None:
        argv += ["--n", str(n)]
    direct = _direct(law, component, VelocitySign.from_str(v0), n)
    code, csv_out, err = run_cli(capsys, *argv)
    json_code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    if direct is None:
        assert (code, json_code) == (2, 2)
        assert err.startswith("error: ")
        return
    free, at_point, atoms = direct
    grids = [[float(v) for v in np.linspace(*GRIDS[var])] for var in free]
    expected = []
    for point in itertools.product(*grids):
        cells = dict(zip(free, point))
        kind, value, at = at_point(*point)
        expected.append((cells.get("beta"), cells.get("x"), cells.get("s"), kind, float(value), at))
    expected += atoms
    assert (code, json_code) == (0, 0)

    fixed = [law, v0, _cell(n), str(T), str(C), str(LAM)]
    assert eval_rows(csv_out) == [fixed + [_cell(v) for v in row] for row in expected]
    keys = ("beta", "x", "s", "kind", "value", "at")
    got = [tuple(row[key] for key in keys) for row in json.loads(json_out)]
    assert [tuple(map(repr, row)) for row in got] == [tuple(map(repr, row)) for row in expected]
