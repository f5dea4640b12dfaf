import csv
import io
import itertools
import json
import math

import numpy as np
import pytest

from telegraph import cli
from telegraph import laws, reflection
from telegraph.params import MotionParams, VelocitySign
from telegraph.path import position_at
from telegraph.sampler import RngStream, sample_conditional

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

    def test_unconditional_overflow_names_no_switch_count(self, capsys):
        # at ct = 1e-200 the joint density is of order 1/(ct)^2 = 1e400
        code, _, err = run_cli(capsys, "eval", "--law", "joint", "--v0", "-", "--c", "1e-200",
                               "--beta", "5e-201", "--x", "0")
        assert code == 2
        assert err == "error: law joint given only V(0) overflows a float\n"

    def test_conditional_max_equals_position_component(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--law", "joint", "--v0", "-", "--n", "3",
            "--component", "max_equals_position", "--beta", "0.5",
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
            "--component", "max_zero", "--x", "-0.2",
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

    def test_unallocatable_grid_is_usage_error(self, capsys, monkeypatch):
        def linspace(lo, hi, count):
            raise MemoryError(f"Unable to allocate {count * 8 / 2**30:.0f} GiB")

        monkeypatch.setattr(np, "linspace", linspace)
        with pytest.raises(SystemExit) as exited:
            cli.main(["eval", "--law", "position", "--n", "3", "--x-grid=0:1:100000000000"])
        out, err = capsys.readouterr()
        assert (exited.value.code, out) == (2, "")
        assert [line for line in err.splitlines() if "error:" in line] == [
            "telegraph eval: error: argument --x-grid: grid '0:1:100000000000' does not fit "
            "in memory: Unable to allocate 745 GiB"]

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

    @pytest.mark.parametrize("argv", [
        # the direct-flight atom of mass 0.25 at s = beta/c falls in bin [0.5, 0.75)
        "--functional fpt --v0 + --n 2 --beta 0.5 --range=0:1 --bins 4 --reps 1000 --seed 1",
        # the P{M = 0} atom of mass 0.5 falls in bin [0, 0.25)
        "--functional max --v0 - --n 2 --range=0:1 --bins 4 --reps 100000 --seed 1",
    ])
    def test_bins_holding_an_atom_score_against_its_mass(self, capsys, tmp_path, argv):
        code, out, _ = run_cli(capsys, "simulate", *argv.split(),
                               "--output", str(tmp_path / "hist.csv"))
        assert code == 0
        assert json.loads(out)["max_abs_z"] < 4.0

    def test_unallocatable_bins_are_usage_error(self, capsys, monkeypatch):
        def histogram(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(cli, "mc_density_histogram", histogram)
        code, out, err = run_cli(capsys, "simulate", "--functional", "position", "--n", "3",
                                 "--range=-1:1", "--reps", "10", "--bins", "100000000000")
        assert (code, out, err) == (2, "", "error: Unable to allocate 745. GiB\n")

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


# ---------------------------------------------------------------------------
# reflect's batch pipeline against the scalar reflection API


def _scalar_reflect(args):
    """(exit code, stdout, stderr) of sampled ``reflect`` as the scalar
    admission loop writes it: one ``sample_conditional`` draw at a time on
    stream 77, admitted by ``position_at`` and ``in_P_plus`` until as many
    paths as records are missing pass, then those reflected in one batch and
    kept where both cuts are ok.  The oracle of the pipeline's records."""
    params = MotionParams(args.c, args.lam)
    ct = args.c * args.t
    rng = RngStream(args.seed, 77).generator()
    lines, attempts, max_attempts = [], 0, 10000 * args.count
    while len(lines) < args.count and attempts < max_attempts:
        rows, xs = [], []
        while len(lines) + len(xs) < args.count and attempts < max_attempts:
            attempts += 1
            path = sample_conditional(args.n, args.t, PLUS, rng)
            x = position_at(path, args.t, params)
            if 2.0 * args.beta - ct < x <= args.beta and reflection.in_P_plus(
                path, reflection.ReflectionContext(args.beta, x, params, args.t)
            ):
                rows.append(path.switch_times)
                xs.append(x)
        rows = np.array(rows).reshape(len(xs), args.n)
        t1, t2, h, l, ok = reflection.crossings_batch(rows, args.t, args.c, args.beta)
        images = reflection.reflect_batch(rows, t1, t2)
        u1, u2, _, _, ok_back = reflection.zero_return_crossings_batch(
            images, args.t, args.c, args.beta)
        backs = reflection.reflect_inverse_batch(images, u1, u2)
        ok &= ok_back
        residuals = np.abs(backs - rows).max(axis=1, initial=0.0)
        lines += cli._reflect_records(args, rows[ok], np.array(xs)[ok], images[ok],
                                      residuals[ok], h[ok], l[ok])
    out = "".join(line + "\n" for line in lines)
    if len(lines) < args.count:
        return 1, out, (f"note: emitted {len(lines)} of {args.count} requested paths "
                        f"after {attempts} attempts\n")
    return 0, out, ""


#: Records per case where admission is rare at (n, beta): the oracle makes
#: about 60 000 scalar draws a second, and 50 records take it about 250 000
#: draws at (5, 0.95) and the whole budget of 500 000 at the others; at these
#: counts the others still exhaust their budget and end short
_RARE_COUNT = {(5, 0.95): 5, (8, 0.95): 2, (20, 0.7): 2, (20, 0.95): 2}


@pytest.mark.parametrize("argv", [
    *(f"--beta {beta} --n {n} --count {_RARE_COUNT.get((n, beta), 50)} --seed {seed}"
      for n, beta, seed in itertools.product((1, 2, 3, 5, 8, 20), (0.05, 0.3, 0.7, 0.95),
                                             (1, 2, 7))),
    "--beta 0.3 --n 3 --count 500 --seed 5",
    "--beta 0.4 --n 4 --count 30 --seed 3 --t 2 --c 0.7",
    # short runs: the budget ends before every record is found
    "--beta 0.9999 --n 2 --count 2 --seed 1",
    "--beta 0.999 --n 2 --count 3 --seed 4",
])
def test_sampled_records_equal_scalar_admission(capsys, argv):
    args = cli.build_parser().parse_args(["reflect", *argv.split()])
    assert run_cli(capsys, "reflect", *argv.split()) == _scalar_reflect(args)


def _admitted_paths(count, seed=11):
    """``count`` random upward-start paths (1 to 8 switches, t = 2, c = 1.5)
    that the scalar reflection API admits at beta = 0.6, with that API's
    crossing pair, image and preimage."""
    rng = np.random.default_rng(seed)
    params = MotionParams(1.5, 1.0)
    found = []
    while len(found) < count:
        path = sample_conditional(int(rng.integers(1, 9)), 2.0, PLUS, rng)
        x = position_at(path, 2.0, params)
        try:
            ctx = reflection.ReflectionContext(0.6, x, params, 2.0)
            pair = reflection.classify_crossings(path, ctx)
        except ValueError:
            continue
        image = reflection.negative_reflect(path, ctx)
        found.append((path, x, pair, image, reflection.negative_reflect_inverse(image, ctx)))
    return found


def test_explicit_record_equals_scalar_reflection(capsys):
    for path, x, pair, image, back in _admitted_paths(50):
        code, out, err = run_cli(capsys, "reflect", "--beta", "0.6", "--t", "2", "--c", "1.5",
                                 "--switch-times", ",".join(map(repr, path.switch_times)))
        assert (code, err) == (0, "")
        rec = json.loads(out)
        assert rec["input"]["switches"] == list(path.switch_times)
        assert rec["output"]["switches"] == list(image.switch_times)
        assert rec["x"] == x
        assert rec["pair"] == [pair.h, pair.l]
        assert rec["image_pair"] == [pair.image().h, pair.image().l]
        residual = max(abs(a - b) for a, b in zip(back.switch_times, path.switch_times))
        assert rec["residual"] == residual


@pytest.mark.parametrize("times,reason", [
    ("3.5", "outside (2*beta - c*t, beta]"),
    ("1,3", "no up-crossing of beta followed by a down-crossing"),
    # the up-crossing at time 1 lies 1e-13 < DEGENERATE_REL_TOL * t before the first switch
    ("1.0000000000001,3", "DEGENERATE_REL_TOL"),
    ("3,1", "not strictly increasing"),
    # the switch time itself is named, not the endpoint it leads to
    ("nan,3", "switch time nan not in (0, horizon)"),
    ("1.5,nan", "switch time nan not in (0, horizon)"),
])
def test_refused_explicit_path_names_its_condition(capsys, times, reason):
    code, out, err = run_cli(capsys, "reflect", "--beta", "1", "--t", "4", "--switch-times", times)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and reason in err


@pytest.mark.parametrize("argv", [
    ("--beta", "0.3", "--n", "3", "--count", "4", "--seed", "5"),
    ("--beta", "1", "--t", "4", "--switch-times", "1.5,3"),
])
def test_image_endpoint_miss_fails(capsys, monkeypatch, argv):
    forward = reflection.reflect_batch

    def late_first_switch(switches, t1, t2):
        # the first (downward) piece of each image 1e-6 longer: it ends 2e-6 lower
        images = forward(switches, t1, t2)
        images[:, 0] += 1e-6
        return images

    monkeypatch.setattr(reflection, "reflect_batch", late_first_switch)
    code, out, err = run_cli(capsys, "reflect", *argv)
    assert code == 1
    assert out and "image ending farther than 1e-09 from 2*beta - x" in err


class TestKac:
    def test_passes_with_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "kac", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert all(r["passed"] for r in rows)


#: (argv, exit code) rows that must exit without a traceback; tests/test_golden.py
#: also pins their output
EXIT_CODES = [
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
    # kac: the Brownian density and lambda = c^2 must be positive finite floats
    ("kac --t 1e-300", 2),
    ("kac --t 6e-4", 2),
    ("kac --t 1e103", 2),
    ("kac --beta 1e300", 2),
    ("kac --c-values 1e200 1e201", 2),
    # t < beta/c = 0.02: the telegraph density is 0, a real failure
    ("kac --t 1e-3", 1),
    # the unconditional passage laws are densities in the horizon: s is --t
    ("eval --law fpt --beta 0.5 --s 2", 2),
    # the passage level is checked before the atom it carries
    ("eval --law fpt --beta -0.5 --t 2", 2),
    ("eval --law fpt --n 3 --beta -0.5 --s 0.5", 2),
    # before the direct-flight time beta/c the density is 0, at a level whose square overflows
    ("eval --law fpt --beta 1e160 --t 1", 0),
    ("eval --law fpt --v0 - --beta 1e160 --t 1", 0),
    ("eval --law return --s-grid 0:1:3", 2),
    # c*t underflows to 0: refused with c and t named, before any law divides by it
    ("eval --law joint --n 3 --beta 0.1 --x 0 --c 1e-300 --t 1e-300", 2),
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
    ("reflect --beta 0.3 --n 65535 --count 1", 2),
    ("reflect --beta 0.3 --n 70000 --count 1", 2),
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
]


@pytest.mark.filterwarnings("error")  # a warning would reach stderr before the error line
@pytest.mark.parametrize("argv,code", EXIT_CODES)
def test_exit_code_without_traceback(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv.split())
    assert got == code, err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and out == ""


@pytest.mark.parametrize("argv", [
    "eval --law position --n 2 --x 0.2",
    "simulate --functional position --n 2 --range=-1:1 --reps 100",
    "verify --suite random-walk",
    "reflect --beta 0.3 --count 2",
    "kac",
])
def test_unwritable_output_is_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv.split(), "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err


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
            atoms = [(LEVEL, None, LEVEL / C, "atom", atom, f"F_beta = {LEVEL / C}")]
        return (*found, atoms)

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
        atoms = [(0.0, None, None, "atom", laws.max_atom_zero(v0, n), "M(t) = 0")]
    if law == "fpt":
        atom = laws.fpt_atom(v0, n, LEVEL, T, C)
        atoms = [(LEVEL, None, LEVEL / C, "atom", atom, f"F_beta = {LEVEL / C}")]
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
    _check_eval_rows(capsys, law, component, v0, n)


@pytest.mark.parametrize("law", ["fpt", "return"])
@pytest.mark.parametrize("v0", "+-")
def test_unconditional_passage_rows_without_s(capsys, law, v0):
    # a density in the horizon t takes no --s: its one row sits at s = t
    _check_eval_rows(capsys, law, None, v0, None)


def _eval_argv(law, component, v0, n, free):
    """An eval query giving exactly the variables ``free`` on GRIDS, plus the
    level of fpt."""
    argv = ["eval", "--law", law, "--v0", v0, "--t", str(T), "--c", str(C),
            "--lambda", str(LAM)]
    if law == "fpt":
        argv += ["--beta", str(LEVEL)]
    argv += [f"--{var}-grid={lo}:{hi}:{count}"
             for var, (lo, hi, count) in GRIDS.items() if var in free]
    if component is not None:
        argv += ["--component", component]
    if n is not None:
        argv += ["--n", str(n)]
    return argv


def _check_eval_rows(capsys, law, component, v0, n):
    direct = _direct(law, component, VelocitySign(v0), n)
    # a query with no law gives the table's free variables and is refused for the law itself
    free = laws.LAWS[(law, component)].free if direct is None else direct[0]
    argv = _eval_argv(law, component, v0, n, free)
    code, csv_out, err = run_cli(capsys, *argv)
    json_code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    if direct is None:
        assert (code, json_code) == (2, 2)
        assert err.startswith("error: ")
        return
    free, at_point, atoms = direct
    points = [[float(v) for v in np.linspace(*GRIDS[var])] for var in free]
    expected = []
    for point in itertools.product(*points):
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


def _extra_variable_cases():
    """(law, component, v0, n, free, option): every entry at n = 3 and without
    n, with one option for a variable it does not take, as a point and as a
    grid, or with a point of a free variable beside its grid; the level of fpt
    is a point, so only its grid is extra."""
    for (law, component), n in itertools.product(sorted(laws.LAWS), (3, None)):
        for v0 in "+-":  # the first sign with a law: some components exist for one only
            direct = _direct(law, component, VelocitySign(v0), n)
            if direct is not None:
                break
        else:
            continue
        for var in GRIDS:
            # a point beside the grid of a free variable is refused too
            options = ((f"--{var}=0.5",) if var in direct[0]
                       else (f"--{var}=0.5", f"--{var}-grid=0:1:3"))
            for option in options:
                if option != "--beta=0.5" or law != "fpt":
                    yield law, component, v0, n, direct[0], option


@pytest.mark.parametrize(
    "law,component,v0,n,free,option",
    [pytest.param(*case, id="-".join(map(str, case[:4] + case[5:])))
     for case in _extra_variable_cases()],
)
def test_eval_refuses_variables_the_law_does_not_take(capsys, law, component, v0, n, free,
                                                      option):
    argv = [*_eval_argv(law, component, v0, n, free), option]
    for fmt in ("csv", "json"):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and option.split("=")[0] in err
        name = option[2:].split("=")[0]
        if name in free:
            assert f"--{name} or --{name}-grid, not both" in err
            continue
        assert f"its free variables: {', '.join(free) or 'none'}" in err
        if law in ("fpt", "return") and n is None:
            assert "--t" in err  # a density in the horizon: its time is --t


# ---------------------------------------------------------------------------
# the CSV writer against the row template filled once per point


def _filled_csv(argv):
    """The CSV text of ``eval`` as a row template filled by ``str.format``
    once per grid point writes it: the oracle of the column writer's bytes."""
    args = cli.build_parser().parse_args(argv)
    law = laws.resolve(args.law, args.v0, args.n, args.t, args.c, args.lam,
                       args.component, args.beta)
    grids = [[getattr(args, var)] if getattr(args, f"{var}_grid") is None
             else getattr(args, f"{var}_grid").tolist() for var in law.free]
    values = law.values(*np.meshgrid(*grids, indexing="ij")).ravel().tolist()
    prefix = ",".join(map(cli._csv_cell, (args.law, args.v0, args.n, args.t, args.c, args.lam))) + ","
    slots = {var: f"{{{i}}}" for i, var in enumerate(law.free)}
    row = (prefix + ",".join(slots.get(var, "") for var in ("beta", "x", "s"))
           + f",{law.kind},{{{len(law.free)}}},{cli._csv_cell(law.at)}")
    lines = [",".join(EVAL_HEADER)]
    texts = itertools.product(*([repr(v) for v in grid] for grid in grids))
    lines += [row.format(*text, value) for text, value in zip(texts, map(repr, values))]
    lines += [prefix + ",".join(map(cli._csv_cell, (*cells, "atom", mass, at)))
              for cells, mass, at in law.atoms]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("query", [
    "--law position --n 3 --x-grid=-0.9:0.9:41",
    # 7 x 5 in product order, with the quoted label "M = ..., T = ..."
    "--law joint --v0 - --n 3 --beta-grid 0:1:7 --x-grid=-1:1:5",
    "--law position --n 2 --x 0.2",
    "--law position --n 2 --x-grid=-1:1:0",  # header only
    "--law joint --n 2 --beta-grid 0:1:0 --x-grid=-1:1:5",  # header only
    "--law position --n 0 --x-grid=-1:1:4",  # the n = 0 atom label
    "--law max --v0 - --n 0 --beta-grid 0:1:4",
    "--law max --v0 - --n 3 --beta-grid 0:1:6",  # an atom row
    "--law fpt --n 3 --beta 0.4 --s-grid 0.4:1:5",
    "--law fpt --beta 0.4",
    "--law joint --component corner",  # no free variable
    "--law joint --v0 - --component corner",
    f"--law position --n 8 --x-grid=-1:1:{cli._BLOCK_ROWS + 3}",  # the block seam
])
def test_eval_csv_bytes_equal_filled_template(capsys, tmp_path, query):
    argv = ["eval", *query.split()]
    expected = _filled_csv(argv)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out == expected
    path = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, *argv, "--output", str(path))
    assert (code, out) == (0, "")
    assert path.read_bytes() == expected.encode()


def test_range_error_at_last_point_writes_no_file(capsys, monkeypatch, tmp_path):
    real = laws.position_pdf
    monkeypatch.setattr(laws, "position_pdf", lambda sign, n, x, t, c: np.where(
        x == 1.0, -1.0, real(sign, n, x, t, c)))
    path = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, "eval", "--law", "position", "--n", "3",
                             "--x-grid=-1:1:9", "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: negative law value -1.0 (T(t) = 1.0)")
    assert not path.exists()


@pytest.mark.parametrize("mass,message", [
    (1.5, "atom value 1.5 exceeds 1 (M(t) = 0)"),
    (-0.1, "negative law value -0.1 (M(t) = 0)"),
])
def test_atom_out_of_range_writes_no_file(capsys, monkeypatch, tmp_path, mass, message):
    monkeypatch.setattr(laws, "max_atom_zero", lambda v0, n: mass)
    path = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, "eval", "--law", "max", "--n", "3", "--beta", "0.5",
                             "--output", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not path.exists()


@pytest.mark.parametrize("query", [
    "--beta -0.5 --t 2",
    "--beta 0 --t 2",
    "--n 3 --beta -0.5 --s 0.5",
    "--n 3 --beta -0.5 --s-grid 0:1:0",  # no point, but still the level
])
def test_fpt_level_is_checked_before_its_atom(capsys, query):
    argv = query.split()
    level = float(argv[argv.index("--beta") + 1])
    code, out, err = run_cli(capsys, "eval", "--law", "fpt", *argv)
    assert (code, out, err) == (2, "", f"error: level must be > 0, got {level}\n")
