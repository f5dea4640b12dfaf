import csv
import io
import json

import pytest

from telegraph import cli
from telegraph import laws

EVAL_HEADER = ["law", "v0", "n", "t", "c", "lambda", "beta", "x", "s", "kind", "value", "at"]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestEval:
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
            capsys, "eval", "--law", "fpt", "--n", "200", "--beta", "0.3", "--s", "0.5"
        )
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_values_are_plain_decimal(self, capsys):
        _, out, _ = run_cli(
            capsys, "eval", "--law", "position", "--n", "2", "--x-grid=-0.9:0.9:7"
        )
        assert "np.float64" not in out
        for row in parse_csv(out)[1:]:
            float(row[10])  # parseable, '.' decimal separator


class TestSimulate:
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
