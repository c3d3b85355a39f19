"""End-to-end tests for the command-line interface."""

import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from fuzzynewton import cli, fuzzy_core, level_calculus
from fuzzynewton.cli import main
from fuzzynewton.newton_solver import STATUS_CONVERGED, SolveResult
from fuzzynewton.problems import DEFAULT_CRISP_PARAMS
from test_cli_golden import CASES, FILES, GOLDEN, _mask, run_case

TWO_THIRDS = 2.0 / 3.0
PARAMS_ERROR = "error: --Va/--rho only apply to the max-return problems\n"
# the report keys read from the answer's fuzzy value
ANSWER_KEYS = ("F_xstar", "value", "fvalue_support_lo", "fvalue_core_mid",
               "fvalue_support_hi")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_crisp_example_invocation(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--problem", "max_return_crisp",
            "--Va", "0.00168", "--rho", "1", "--x0", "1",
        )
        assert code == 0
        assert "status: converged" in out
        assert "0.698908" in out
        assert "-1.16328" in out

    def test_example_converges_from_one(self, capsys):
        code, out, _ = run(capsys, "solve", "--problem", "example_4_1",
                           "--x0", "1")
        assert code == 0
        rows = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert rows[0].split()[1] == "1"
        assert rows[0].split()[2] == "0.3"

    def test_flat_curvature_start_exits_two(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--problem", "example_4_1",
            "--x0", repr(-TWO_THIRDS),
        )
        assert code == 2
        assert "second-derivative-near-zero" in out

    def test_four_digit_rounded_start_slides_to_the_maximizer(self, capsys):
        # -0.6667 is not exactly -2/3: curvature there is -4e-4, the
        # guard does not trip, and the iteration lands on the local max
        code, out, _ = run(
            capsys, "solve", "--problem", "example_4_1", "--x0", "-0.6667",
        )
        assert code == 0
        assert "local-max" in out
        assert "-1.33333" in out

    def test_fuzzy_problem_reproduces_reference_values(self, capsys):
        code, out, _ = run(capsys, "solve", "--problem", "max_return_fuzzy",
                           "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["status"] == "converged"
        assert abs(rep["xstar"] - 0.6988) <= 1e-3
        assert abs(rep["value"] - (-1.1631)) <= 5e-3

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "solve", "--problem", "example_4_1",
            "--format", "json", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["problem"] == "example_4_1"

    def test_config_file_with_flag_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "prob.json"
        cfg.write_text(json.dumps({
            "kind": "example_4_1", "x0": 1.0, "eps": 1e-6,
            "alpha_points": 51,
        }))
        code, out, _ = run(
            capsys, "solve", "--problem", str(cfg),
            "--x0", "0.25", "--format", "json",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["config"]["x0"] == 0.25  # flag wins
        assert rep["config"]["eps"] == 1e-6  # file survives
        assert rep["config"]["alpha_points"] == 51

    @pytest.mark.parametrize("extra", [(), ("--rho", "2")])
    def test_config_grid_is_checked_against_the_rule_in_use(
        self, tmp_path, capsys, extra
    ):
        # the config's grid was checked against the kind's own rule,
        # Simpson, before --quadrature applied, and exited 1
        cfg = tmp_path / "even.json"
        cfg.write_text(json.dumps({"kind": "max_return_fuzzy",
                                   "alpha_points": 50}))
        xstars = []
        for problem in ([str(cfg)], ["max_return_fuzzy", "--alpha-grid", "50"]):
            code, out, _ = run(capsys, "solve", "--problem", *problem, *extra,
                               "--quadrature", "trapezoid", "--format", "json")
            assert code == 0
            rep = json.loads(out)
            assert rep["config"]["alpha_points"] == 50
            xstars.append(rep["xstar"].hex())
        assert xstars[0] == xstars[1]
        # under the kind's own rule the even grid is still an error, and a
        # flag's grid wins over the config's
        code, out, err = run(capsys, "solve", "--problem", str(cfg), *extra)
        assert (code, out) == (1, "")
        assert err == "error: simpson quadrature needs an odd alpha_points\n"
        code, out, _ = run(capsys, "solve", "--problem", str(cfg), *extra,
                           "--alpha-grid", "51", "--format", "json")
        assert code == 0
        assert json.loads(out)["config"]["alpha_points"] == 51

    def test_builtin_config_domain_bounds_the_solve(self, tmp_path, capsys):
        # Newton from 1 steps to 0.3 on example_4_1, outside [0.5, 2]
        cfg = tmp_path / "bounded.json"
        cfg.write_text(json.dumps({"kind": "example_4_1",
                                   "domain": [0.5, 2.0]}))
        code, out, _ = run(capsys, "solve", "--problem", str(cfg),
                           "--format", "json")
        assert code == 2
        assert json.loads(out)["status"] == "left-domain"

    def test_param_flag_on_config_keeps_the_problem_defaults(
        self, tmp_path, capsys
    ):
        cfg = tmp_path / "fuzzy.json"
        cfg.write_text(json.dumps({"kind": "max_return_fuzzy"}))
        reports = []
        for problem in ("max_return_fuzzy", str(cfg)):
            code, out, _ = run(capsys, "solve", "--problem", problem,
                               "--rho", "2", "--format", "json")
            assert code == 0
            reports.append(json.loads(out))
        builtin, from_file = reports
        assert from_file["config"]["params"] == builtin["config"]["params"]
        assert from_file["config"]["params"]["Va"] == [0.00167, 0.00168,
                                                       0.00172]
        assert from_file["xstar"] == builtin["xstar"]

    def test_solver_flags_are_echoed(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--problem", "example_4_1",
            "--eps", "1e-7", "--max-iter", "50", "--alpha-grid", "41",
            "--quadrature", "trapezoid", "--fd-step", "1e-4",
            "--format", "json",
        )
        assert code == 0
        cfg = json.loads(out)["config"]
        assert cfg["eps"] == 1e-7
        assert cfg["max_iter"] == 50
        assert cfg["alpha_points"] == 41
        assert cfg["quadrature"] == "trapezoid"
        assert cfg["fd_step"] == 1e-4


    # x^2 (.) (1, 2, 3) has no maximum: Newton finds the stationary point
    # of -F at 0, a local max of -F that a neighbour dominates
    MAXIMIZE_SQUARE = {
        "kind": "fuzzy_polynomial",
        "coefficients": [[0, 0, 0], [0, 0, 0], [1, 2, 3]],
        "sense": "maximize", "x0": 0.5,
    }

    def test_maximize_sense_is_honoured(self, tmp_path, capsys):
        cfg = tmp_path / "max.json"
        cfg.write_text(json.dumps(self.MAXIMIZE_SQUARE))
        code, out, _ = run(capsys, "solve", "--problem", str(cfg),
                           "--format", "json")
        rep = json.loads(out)
        assert rep["status"] == "converged"
        assert rep["stationarity_kind"] == "local-max"
        assert rep["verification"]["non_dominance"].startswith("dominated-by")
        code, out, _ = run(capsys, "check", "--problem", str(cfg),
                           "--xstar", "0")
        assert code == 3
        assert "verdict: fail" in out

    def test_maximize_sense_reads_fail_in_every_solve_format(
        self, tmp_path, capsys
    ):
        # the converged answer that check fails: the solve report says so
        cfg = tmp_path / "max.json"
        cfg.write_text(json.dumps(self.MAXIMIZE_SQUARE))
        code, out, _ = run(capsys, "solve", "--problem", str(cfg))
        assert code == 0
        assert "\n  verdict: fail\n" in out
        _, out, _ = run(capsys, "solve", "--problem", str(cfg),
                        "--format", "json")
        assert json.loads(out)["verification"]["verdict"] == "fail"
        _, out, _ = run(capsys, "solve", "--problem", str(cfg),
                        "--format", "csv")
        assert ["verification_verdict", "fail"] in csv.reader(io.StringIO(out))

    def test_step_out_of_the_domain_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "domain.json"
        cfg.write_text(json.dumps({
            "kind": "fuzzy_polynomial",
            "coefficients": [[0, 0, 0], [0, 0, 0], [1, 2, 3], [0, 1, 2]],
            "domain": [-1.0, 1.0], "x0": -0.6,
        }))
        code, out, err = run(capsys, "solve", "--problem", str(cfg))
        assert code == 2
        assert "status: left-domain" in out
        assert err == ""

    @pytest.mark.filterwarnings("ignore:stencil shrunk")
    def test_stencil_out_of_the_domain_exits_two(self, tmp_path, capsys):
        # F'' at x0 needs x0 + 2h = 0.7002, past the domain's upper end
        cfg = tmp_path / "narrow.json"
        cfg.write_text(json.dumps({
            "kind": "max_return_fuzzy", "domain": [0.7, 0.70015], "x0": 0.7,
        }))
        code, out, _ = run(capsys, "solve", "--problem", str(cfg))
        assert code == 2
        assert "status: left-domain (inconclusive) in 0 iterations" in out


class TestReportFormats:
    def test_json_round_trips_byte_identically(self, capsys):
        _, out, _ = run(capsys, "solve", "--problem", "max_return_crisp",
                        "--format", "json")
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" \
            == out

    def test_formats_carry_identical_numbers(self, capsys):
        _, text_out, _ = run(capsys, "solve", "--problem", "max_return_crisp")
        _, csv_out, _ = run(capsys, "solve", "--problem", "max_return_crisp",
                            "--format", "csv")
        _, json_out, _ = run(capsys, "solve", "--problem",
                             "max_return_crisp", "--format", "json")
        rep = json.loads(json_out)

        rows = list(csv.reader(io.StringIO(csv_out)))
        blank = rows.index([])
        scalars = {key: val for key, val in rows[1:blank]}
        for key in ("xstar", "F_xstar", "value", "convergence_order",
                    "fvalue_support_lo", "fvalue_core_mid",
                    "fvalue_support_hi"):
            assert float(scalars[key]) == rep[key]
        assert scalars["status"] == rep["status"]
        assert int(scalars["iterations"]) == rep["iterations"]

        header = rows[blank + 1]
        trace_rows = rows[blank + 2:]
        assert len(trace_rows) == len(rep["trace"])
        for parsed, jrow in zip(trace_rows, rep["trace"]):
            for name, cell in zip(header, parsed):
                if name == "k":
                    assert int(cell) == jrow["k"]
                else:
                    assert float(cell) == jrow[name]

        # text shows the same values at 6 significant digits
        assert f"{rep['xstar']:.6g}" in text_out
        assert f"{rep['value']:.6g}" in text_out
        for jrow in rep["trace"]:
            assert f"{jrow['x_k']:.6g}" in text_out

    def test_solve_prints_the_check_report_of_its_answer(self, capsys):
        _, out, _ = run(capsys, "solve", "--problem", "max_return_crisp",
                        "--format", "json")
        xstar = json.loads(out)["xstar"]
        _, text_out, _ = run(capsys, "solve", "--problem", "max_return_crisp")
        code, check_out, _ = run(capsys, "check", "--problem",
                                 "max_return_crisp", "--xstar", repr(xstar))
        assert code == 0
        block = text_out.split("verification:\n")[1].split("wall_time_s")[0]
        assert block == "".join(
            f"  {line}\n" for line in check_out.splitlines()
        )

    def test_csv_carries_the_verification_of_a_converged_solve(self, capsys):
        _, json_out, _ = run(capsys, "solve", "--problem", "example_4_1",
                             "--format", "json")
        _, csv_out, _ = run(capsys, "solve", "--problem", "example_4_1",
                            "--format", "csv")
        rows = list(csv.reader(io.StringIO(csv_out)))
        scalars = dict(rows[1:rows.index([])])
        ver = json.loads(json_out)["verification"]
        assert {key: scalars[f"verification_{key}"] for key in ver} == {
            key: str(value) for key, value in ver.items()
        }
        _, csv_out, _ = run(capsys, "solve", "--problem", "example_4_1",
                            "--x0", repr(-TWO_THIRDS), "--format", "csv")
        assert "verification_" not in csv_out

    def test_trace_columns_cover_support_and_core(self, capsys):
        _, out, _ = run(capsys, "solve", "--problem", "example_4_1",
                        "--format", "json")
        row = json.loads(out)["trace"][0]
        assert set(row) == {
            "k", "x_k", "x_next", "f_lo0", "f_lo1", "f_hi1", "f_hi0"
        }
        assert row["f_lo0"] <= row["f_lo1"] <= row["f_hi1"] <= row["f_hi0"]


    def test_narrow_domain_level_slopes_in_every_format(self, capsys,
                                                        tmp_path):
        # no stencil fits in [0, 1e-6] at h = 1e-5: the level slopes are
        # the report's one figure not available, worded once
        cfg = tmp_path / "narrow.json"
        cfg.write_text(json.dumps({
            "kind": "example_4_1", "domain": [0.0, 1e-6], "x0": 0.0,
        }))
        outs = {}
        for fmt in ("text", "csv", "json"):
            code, outs[fmt], err = run(capsys, "solve", "--problem",
                                       str(cfg), "--format", fmt)
            assert (code, err) == (0, "")
        assert ("  max level derivative magnitude = n/a (no "
                "finite-difference stencil fits in the domain)"
                in outs["text"].splitlines())
        assert "verification_level_d1_max," in outs["csv"].splitlines()
        assert json.loads(outs["json"])["verification"]["level_d1_max"] \
            is None


class TestTableCommand:
    def test_reference_sweep(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps([
            {"Va": 0.00168, "rho": 1.0},
            {"Va": 0.00168, "rho": 1.5},
            {"Va": 0.00169, "rho": 1.5},
            {"Va": 0.00169, "rho": 2.0},
        ]))
        code, out, _ = run(capsys, "table", "--sweep", str(sweep),
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        expected = (0.6989, 0.6988, 0.6994, 0.6993)
        for row, want in zip(rows, expected):
            assert abs(row["xstar"] - want) <= 5e-4
            assert abs(row["value"] - (-1.1633)) <= 5e-4
            assert row["status"] == "converged"

    def test_fuzzy_row(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps([
            {"Va": [0.00167, 0.00168, 0.00172], "rho": [0.5, 1.5, 3.5]},
        ]))
        code, out, _ = run(capsys, "table", "--sweep", str(sweep),
                           "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert abs(row["xstar"] - 0.6988) <= 1e-3
        assert abs(row["value"] - (-1.1631)) <= 5e-3

    def test_empty_sweep_prints_header_only(self, tmp_path, capsys):
        sweep = tmp_path / "empty.json"
        sweep.write_text("[]")
        code, out, _ = run(capsys, "table", "--sweep", str(sweep))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        assert lines[0].split() == [
            "Va", "rho", "xstar", "value", "status", "iterations"
        ]

    def test_csv_sweep_parses(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps([{"Va": 0.00168, "rho": 1.0}]))
        code, out, _ = run(capsys, "table", "--sweep", str(sweep),
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["Va", "rho", "xstar", "value", "status",
                           "iterations"]
        assert float(rows[1][2]) == pytest.approx(0.6989, abs=5e-4)

    def test_malformed_sweep_exits_one(self, tmp_path, capsys):
        sweep = tmp_path / "bad.json"
        sweep.write_text(json.dumps([{"Va": 0.00168}]))
        code, _, err = run(capsys, "table", "--sweep", str(sweep))
        assert code == 1
        assert "row 0" in err
        sweep.write_text("{not json")
        code, _, err = run(capsys, "table", "--sweep", str(sweep))
        assert code == 1


class TestCheckCommand:
    def test_minimizer_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--problem", "example_4_1",
                           "--xstar", "0")
        assert code == 0
        assert "verdict: pass" in out

    def test_non_stationary_point_fails(self, capsys):
        code, out, _ = run(capsys, "check", "--problem", "example_4_1",
                           "--xstar", "0.5")
        assert code == 3
        assert "verdict: fail" in out
        assert "dominated-by" in out

    def test_crisp_reference_point_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--problem", "max_return_crisp",
                           "--xstar", "0.6989")
        assert code == 0
        assert "verdict: pass" in out

    def test_nbhd_and_samples_flags(self, capsys):
        code, out, _ = run(
            capsys, "check", "--problem", "example_4_1", "--xstar", "0",
            "--nbhd", "0.5", "--samples", "11",
        )
        assert code == 0
        assert "10 samples" in out

    def test_negative_samples_is_one_error_line(self, capsys):
        # numpy's "Number of samples, -1, must be non-negative." before
        code, out, err = run(
            capsys, "check", "--problem", "example_4_1", "--xstar", "0",
            "--samples", "-1",
        )
        assert (code, out) == (1, "")
        assert err == "error: samples must be at least 0, got -1\n"

    @pytest.mark.parametrize(
        "xstar", ["nan", "inf", "-inf", "-Infinity", "-1e400", "-nan"]
    )
    @pytest.mark.parametrize("joined", [True, False])
    def test_non_finite_xstar_is_named(self, capsys, xstar, joined):
        # "x0 must be finite" before: check has no --x0 flag; and a
        # negative value given apart from its flag read as an option
        argv = [f"--xstar={xstar}"] if joined else ["--xstar", xstar]
        code, out, err = run(capsys, "check", "--problem",
                             "max_return_fuzzy", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: xstar must be finite, got {float(xstar)}\n"

    def test_no_sample_in_the_neighbourhood_is_inconclusive(self, capsys):
        # every sample lies within rounding distance of xstar, so none is
        # compared: the point was not examined and must not pass
        code, out, _ = run(
            capsys, "check", "--problem", "example_4_1", "--xstar", "0",
            "--nbhd", "1e-13",
        )
        assert code == 3
        assert "verdict: inconclusive" in out
        assert out.count("inconclusive (0 samples in the domain)") == 3


    @pytest.mark.parametrize("nbhd", ["-0.01", "nan", "inf"])
    def test_nbhd_must_be_positive_and_finite(self, capsys, nbhd):
        # -0.01 read "comparable along d=+1 ... in (0, -0.01)" from
        # samples on the minus side, nan read inconclusive, and inf
        # printed numpy warnings before the error line
        code, out, err = run(
            capsys, "check", "--problem", "example_4_1", "--xstar", "0",
            "--nbhd", nbhd,
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: nbhd must be positive and finite, got "
            f"{float(nbhd)}\n"
        )

    def test_nbhd_whose_samples_overflow_is_named(self, capsys):
        # "levels of max_return_fuzzy are invalid at x=inf" before: the
        # samples 0.7 +- 1e308 overflow, and the function took the blame
        code, out, err = run(
            capsys, "check", "--problem", "max_return_fuzzy", "--xstar",
            "0.7", "--nbhd", "1e308",
        )
        assert (code, out) == (1, "")
        assert err == ("error: nbhd=1e+308 takes the samples around x=0.7 "
                       "past the largest float\n")


class TestErrorPaths:
    def test_unknown_problem(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "mystery")
        assert code == 1
        assert "mystery" in err

    def test_unreadable_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "nope"}')
        code, _, err = run(capsys, "solve", "--problem", str(bad))
        assert code == 1
        assert "nope" in err

    @pytest.mark.parametrize("value", [11.9, 101.0])
    def test_config_grid_size_must_be_an_integer(self, tmp_path, capsys, value):
        # not truncated to an int, and rejected as --alpha-grid 11.9 is
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"kind": "example_4_1", "alpha_points": value}))
        code, out, err = run(capsys, "solve", "--problem", str(cfg))
        assert (code, out) == (1, "")
        assert f"alpha_points must be an integer, got {value!r}" in err

    def test_config_domain_must_not_be_reversed(self, tmp_path, capsys):
        cfg = tmp_path / "reversed.json"
        cfg.write_text(json.dumps({"kind": "example_4_1", "domain": [1, -1]}))
        code, out, err = run(capsys, "solve", "--problem", str(cfg))
        assert (code, out) == (1, "")
        assert "domain (1.0, -1.0) needs lo <= hi" in err

    @pytest.mark.parametrize("argv, message", [
        (("--bogus", "1"), "unrecognized arguments: --bogus 1"),
        # what is not a number still reads as an option after a flag
        (("--bogus", "-1e-3"), "unrecognized arguments: --bogus -1e-3"),
        (("--x0", "-foo"), "argument --x0: expected one argument"),
        (("--x0", "-1e"), "argument --x0: expected one argument"),
        (("--bogus", "-1,2,3"), "unrecognized arguments: --bogus -1,2,3"),
        (("--rho", "-1,2,"), "argument --rho: expected one argument"),
    ])
    def test_unknown_flag(self, capsys, argv, message):
        code, out, err = run(capsys, "solve", "--problem", "example_4_1",
                             *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("flag", ["--rho", "--Va"])
    @pytest.mark.parametrize(
        "value", ["-1,2,3", "-1e-3,2,3", "-.5,2,3e0", "-1_0,2,3"]
    )
    def test_negative_comma_list_follows_a_flag(self, capsys, flag, value):
        # argparse read "-1,2,3" as an option: "expected one argument"
        message = (f"error: every level of {flag[2:]} must be strictly "
                   f"positive\n")
        for given in ([flag, value], [f"{flag}={value}"]):
            code, out, err = run(capsys, "solve", "--problem",
                                 "max_return_crisp", *given)
            assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("command", ["solve", "table", "check"])
    @pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-.5e-2", "-2.e-1",
                                       "-1_000", "-1_0.5e1_0"])
    def test_negative_number_in_exponent_form_follows_a_flag(
        self, tmp_path, capsys, command, value
    ):
        # argparse read these as options: "expected one argument"; the
        # ones with digit underscores too, after a regex copy of float's
        # grammar had left them out
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps([{"Va": 0.00168, "rho": 1.0}]))
        flag = "--xstar" if command == "check" else "--x0"
        argv = {"solve": ["--problem", "example_4_1", "--format", "json"],
                "table": ["--sweep", str(sweep), "--format", "json"],
                "check": ["--problem", "example_4_1", "--nbhd", "1e-3"]}
        outputs = []
        for given in ([flag, value], [f"{flag}={value}"]):
            code, out, err = run(capsys, command, *argv[command], *given)
            assert err == ""
            if command == "solve":
                assert json.loads(out)["config"]["x0"] == float(value)
            outputs.append((code, _mask(out)))
        assert outputs[0] == outputs[1]
        # a check away from the minimizer fails, with exit 3
        assert outputs[0][0] == (3 if command == "check" else 0)

    def test_bad_flag_value(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "example_4_1",
                           "--eps", "-1")
        assert code == 1

    def test_params_rejected_for_polynomial_problem(self, capsys):
        code, out, err = run(capsys, "solve", "--problem", "example_4_1",
                             "--Va", "0.00168")
        assert (code, out, err) == (1, "", PARAMS_ERROR)

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "subcommand" in err

    def test_malformed_param_flag(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "max_return_crisp",
                           "--Va", "1,2")
        assert code == 1

    @pytest.mark.parametrize("flag, text", [("--Va", "abc"),
                                            ("--rho", "1,x,3")])
    def test_param_flag_names_what_it_takes(self, capsys, flag, text):
        code, out, err = run(capsys, "solve", "--problem", "max_return_crisp",
                             flag, text)
        assert (code, out) == (1, "")
        assert err == (f"error: argument {flag}: expected a number or "
                       f"left,peak,right, got {text!r}\n")

    @pytest.mark.parametrize("argv, message", [
        (("max_return_crisp", "--Va", "inf"),
         "triangular vertices must be finite, got (inf, inf, inf)"),
        (("max_return_crisp", "--rho", "1,2,inf"),
         "triangular vertices must be finite, got (1.0, 2.0, inf)"),
        (("max_return_crisp", "--eps", "inf"),
         "eps must be positive and finite, got inf"),
        (("example_4_1", "--fd-step", "inf"),
         "fd_step must be positive and finite, got inf"),
        (("max_return_fuzzy", "--fd-step", "inf"),
         "fd_step must be positive and finite, got inf"),
    ])
    def test_non_finite_flag_is_one_error_line(self, capsys, argv, message):
        code, out, err = run(capsys, "solve", "--problem", *argv)
        if message.startswith("triangular"):
            message = f"{argv[1]}: {message}"  # names the parameter's flag
        assert (code, out, err) == (1, "", f"error: {message}\n")

    # each config is (the key the error names, the config's content)
    @pytest.mark.parametrize("config, vertices", [
        (("a coefficient",
          {"kind": "fuzzy_polynomial", "coefficients": [[1, 2, math.inf]]}),
         "(1.0, 2.0, inf)"),
        (("Va", {"kind": "max_return_fuzzy",
                 "params": {"Va": [0.001, 0.002, math.inf], "rho": 1}}),
         "(0.001, 0.002, inf)"),
        (("rho", {"kind": "max_return_crisp",
                  "params": {"Va": 0.00168, "rho": -math.inf}}),
         "(-inf, -inf, -inf)"),
    ])
    def test_infinity_in_a_config_is_one_error_line(
        self, tmp_path, capsys, config, vertices
    ):
        key, content = config
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(content))  # inf is written as Infinity
        code, out, err = run(capsys, "solve", "--problem", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"error: {key}: triangular vertices must be finite, got {vertices}\n"
        )

    def test_misordered_triple_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "misordered.json"
        path.write_text(json.dumps(
            {"kind": "fuzzy_polynomial", "coefficients": [[3, 2, 1]]}
        ))
        code, out, err = run(capsys, "solve", "--problem", str(path))
        assert (code, out) == (1, "")
        assert err == (
            "error: a coefficient: triangular shape requires "
            "left <= peak <= right, got (3.0, 2.0, 1.0)\n"
        )

    def test_unknown_sense_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "sense.json"
        path.write_text(json.dumps({"kind": "example_4_1", "sense": "max"}))
        code, out, err = run(capsys, "solve", "--problem", str(path))
        assert (code, out) == (1, "")
        assert err == ("error: sense must be 'minimize' or 'maximize', "
                       "got 'max'\n")

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read sweep file: "),
        ("[{not json", "sweep file is not valid JSON: "),
        ('{"Va": 0.00168, "rho": 1}',
         "sweep file must hold a JSON list of rows\n"),
    ])
    def test_unusable_sweep_file_is_one_error_line(self, tmp_path, capsys,
                                                   content, message):
        sweep = tmp_path / "sweep.json"
        if content is not None:
            sweep.write_text(content)
        code, out, err = run(capsys, "table", "--sweep", str(sweep))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_flags_replace_a_configs_bad_x0_and_eps(self, tmp_path, capsys):
        # --x0 and --eps go over the config's values before the problem
        # is resolved, so only the values the solve uses are checked
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"kind": "example_4_1", "x0": math.nan, "eps": -1}
        ))
        code, out, err = run(capsys, "solve", "--problem", str(path))
        assert (code, out, err) == (1, "", "error: x0 must be finite\n")
        code, out, err = run(capsys, "solve", "--problem", str(path),
                             "--x0", "1", "--eps", "1e-6", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["eps"] == 1e-6

    def test_sweep_row_names_the_non_finite_key(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps([{"Va": 0.00168, "rho": math.inf}]))
        code, out, err = run(capsys, "table", "--sweep", str(sweep))
        assert (code, out) == (1, "")
        assert err == (
            "error: sweep row 0 is malformed: rho: triangular vertices "
            "must be finite, got (inf, inf, inf)\n"
        )

    def test_out_of_memory_is_one_error_line(self, tmp_path, monkeypatch,
                                             capsys):
        # a grid this size needs 7.28 TiB; the builder is stubbed, so
        # nothing is allocated
        def no_memory(m):
            raise MemoryError(f"Unable to allocate a grid of {m} levels")

        monkeypatch.setattr(fuzzy_core, "_grid", no_memory)
        monkeypatch.setattr(level_calculus, "_grid", no_memory)
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"kind": "example_4_1",
                                   "alpha_points": 1000000000001}))
        code, out, err = run(capsys, "solve", "--problem", str(cfg))
        assert (code, out) == (1, "")
        assert err == ("error: out of memory: Unable to allocate a grid of "
                       "1000000000001 levels\n")

    def test_infinite_domain_bound_is_legal(self, tmp_path, capsys):
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(
            {"kind": "example_4_1", "domain": [-math.inf, math.inf]}
        ))
        code, _, err = run(capsys, "solve", "--problem", str(path))
        assert (code, err) == (0, "")


class TestNonFiniteAnswer:
    """A solve that ends non-finite at a point whose levels cannot be
    evaluated is reported, with the answer's values null, and exits 2.
    x0 = 1e300 overflows the level maps; numpy's warnings stay silent."""

    ARGV = ("solve", "--problem", "example_4_1", "--x0", "1e300")

    def test_text_report(self, capsys):
        code, out, err = run(capsys, *self.ARGV)
        assert (code, err) == (2, "")
        assert "status: non-finite" in out
        assert "F(xstar)  = n/a\n" in out
        assert (
            "value     = n/a (defuzzified); fuzzy value (n/a, n/a, n/a)\n"
            in out
        )

    def test_json_and_csv_reports(self, capsys):
        code, out, _ = run(capsys, *self.ARGV, "--format", "json")
        rep = json.loads(out)
        assert (code, rep["status"]) == (2, "non-finite")
        assert [rep[key] for key in ANSWER_KEYS] == [None] * 5
        code, out, _ = run(capsys, *self.ARGV, "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        scalars = dict(rows[1:rows.index([])])
        assert (code, scalars["status"]) == (2, "non-finite")
        assert [scalars[key] for key in ANSWER_KEYS] == [""] * 5

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_table_keeps_the_row(self, tmp_path, capsys, fmt):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps([{"Va": 0.00168, "rho": 1.0}]))
        code, out, err = run(capsys, "table", "--sweep", str(sweep),
                             "--x0", "1e100", "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            row = json.loads(out)["rows"][0]
            assert (row["value"], row["status"]) == (None, "non-finite")
        else:
            rows = (list(csv.reader(io.StringIO(out))) if fmt == "csv"
                    else [line.split() for line in out.splitlines()])
            assert rows[1][3:5] == ["" if fmt == "csv" else "n/a",
                                    "non-finite"]

    def test_converged_answer_with_malformed_levels_exits_one(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "solve", lambda f, cfg: SolveResult(
            STATUS_CONVERGED, 1e300, (), "local-min"
        ))
        code, out, err = run(capsys, "solve", "--problem", "example_4_1")
        assert (code, out) == (1, "")
        assert err.startswith("error: levels of example_4_1 are invalid")
        assert err.count("\n") == 1


class TestOneResolvePerProblem:
    """cli._problem applies every flag to a problem with one
    resolve_problem call, and finds a misplaced --Va/--rho before it."""

    @staticmethod
    def _run_counted(monkeypatch, capsys, *argv):
        """run(capsys, *argv) and its number of resolve_problem calls."""
        specs = []
        resolve = cli.resolve_problem

        def counted(spec):
            specs.append(spec)
            return resolve(spec)

        monkeypatch.setattr(cli, "resolve_problem", counted)
        return (*run(capsys, *argv), len(specs))

    def test_params_flags_resolve_once(self, monkeypatch, capsys):
        # 2 before: a first problem was built for its default params
        code, out, err, calls = self._run_counted(
            monkeypatch, capsys, "solve", "--problem", "max_return_fuzzy",
            "--Va", "0.00167,0.00168,0.00172", "--rho", "2",
        )
        assert (code, err, calls) == (0, "", 1)
        assert "params: Va=[0.00167, 0.00168, 0.00172] rho=2.0" in out

    def test_check_resolves_once(self, monkeypatch, capsys):
        code, _, err, calls = self._run_counted(
            monkeypatch, capsys, "check", "--problem", "example_4_1",
            "--xstar", "0",
        )
        assert (code, err, calls) == (0, "", 1)

    def test_table_resolves_once_per_row(self, monkeypatch, capsys,
                                         tmp_path):
        # the five-row reference sweep of the CLI golden test
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(FILES["sweep.json"]))
        code, out, err, calls = self._run_counted(
            monkeypatch, capsys, "table", "--sweep", str(sweep),
        )
        assert (code, err, calls) == (0, "", 5)
        assert len(out.splitlines()) == 1 + 5

    def test_params_flags_are_read_before_the_domain(self, monkeypatch,
                                                     capsys, tmp_path):
        # "error: domain (1.0, 0.0) needs lo <= hi" before, from the
        # problem built for its default params
        cfg = tmp_path / "reversed.json"
        cfg.write_text(json.dumps({
            "kind": "fuzzy_polynomial", "coefficients": [[0, 1, 2]],
            "domain": [1, 0],
        }))
        assert self._run_counted(
            monkeypatch, capsys, "solve", "--problem", str(cfg),
            "--Va", "0.002",
        ) == (1, "", PARAMS_ERROR, 0)
        code, out, err = run(capsys, "solve", "--problem", str(cfg))
        assert (code, out, err) == (
            1, "", "error: domain (1.0, 0.0) needs lo <= hi\n"
        )

    def test_a_zero_grid_flag_is_given(self, capsys):
        # --alpha-grid 0 is a flag given, not one left out
        code, out, err = run(capsys, "solve", "--problem", "example_4_1",
                             "--alpha-grid", "0")
        assert (code, out, err) == (
            1, "", "error: alpha_points must be at least 3, got 0\n"
        )


class TestParserReuse:
    """main builds its parser once per process, so no call may leave
    state on it that a later call's output shows."""

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_a_reused_parser_answers_as_a_new_one(self, capsys):
        argvs = (
            ["solve", "--problem", "max_return_crisp", "--Va", "abc"],
            [],
            ["--help"],
            ["solve", "--problem", "max_return_crisp", "--Va", "0.0017"],
            ["solve", "--problem", "max_return_crisp"],
        )

        def call(argv):
            try:
                code = main(list(argv))
            except SystemExit as stop:
                code = f"SystemExit({stop.code})"
            captured = capsys.readouterr()
            return code, _mask(captured.out), _mask(captured.err)

        first = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            first.append(call(argv))
        cli._build_parser.cache_clear()
        parser = cli._build_parser()
        reused = [call(argv) for argv in argvs]
        assert cli._build_parser() is parser
        assert reused == first
        assert [code for code, _, _ in reused] == [1, 1, "SystemExit(0)", 0, 0]
        assert reused[0][2] == [
            "error: argument --Va: expected a number or left,peak,right, "
            "got 'abc'", ""]
        assert reused[1][2][-2:] == ["a subcommand is required", ""]
        default = DEFAULT_CRISP_PARAMS
        assert "params: Va=0.0017 rho=1.0" in reused[3][1]
        assert f"params: Va={default.Va} rho={default.rho}" in reused[4][1]

    def test_golden_cases_in_reverse_order(self, tmp_path):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        for name in sorted(CASES, reverse=True):
            assert run_case(name, tmp_path) == golden[name], name


def _run_module(*argv):
    """``python -m fuzzynewton argv...`` in a child process."""
    # the child imports the package from this checkout, as the tests do
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "fuzzynewton", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entrypoint_runs():
    proc = _run_module("solve", "--problem", "example_4_1", "--x0", "1",
                       "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "converged"


def test_module_check_ends_with_the_verdict():
    proc = _run_module("check", "--problem", "example_4_1", "--xstar", "0")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "verdict: pass"


def test_module_bad_flag_is_one_error_line():
    proc = _run_module("check", "--problem", "example_4_1", "--xstar", "0",
                       "--no-such-flag")
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: unrecognized arguments: --no-such-flag"
    ]
    assert proc.stdout == ""


def test_module_check_needing_a_level_outside_the_domain_is_an_input_error(
        tmp_path):
    # F'' at 0.7 needs the one-sided stencil's outer point 0.7002, past
    # the domain: check raises there, as scalarize_d2 does, and as solve
    # from 0.7 ends left-domain
    cfg = tmp_path / "narrow.json"
    cfg.write_text(json.dumps({
        "kind": "max_return_fuzzy", "domain": [0.7, 0.70015], "x0": 0.7,
    }))
    proc = _run_module("check", "--problem", str(cfg), "--xstar", "0.7")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert [line for line in lines if line.startswith("error:")] == [
        "error: x=0.7001999999999999 outside the function domain "
        "[0.7, 0.70015]"
    ]
    assert sum("OneSidedStencilWarning" in line for line in lines) == 1
    assert proc.stdout == ""


def test_module_solve_on_a_domain_too_narrow_for_a_stencil(tmp_path):
    # analytic F' and F'' need no stencil, so a converged solve on a
    # domain narrower than one exits 0 with its verification, whose
    # level slopes are not available: null in json, never a bare NaN
    # token; check exits by its verdict. Both exited 1 with "domain too
    # narrow for a finite-difference stencil"
    cfg = tmp_path / "narrow.json"
    cfg.write_text(json.dumps({
        "kind": "example_4_1", "domain": [0.0, 1e-6], "x0": 0.0,
    }))

    def bare(constant):
        raise AssertionError(f"bare {constant} token")

    proc = _run_module("solve", "--problem", str(cfg), "--format", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    rep = json.loads(proc.stdout, parse_constant=bare)
    assert rep["status"] == "converged"
    assert rep["verification"]["level_d1_max"] is None
    assert rep["verification"]["verdict"] == "inconclusive"
    proc = _run_module("check", "--problem", str(cfg), "--xstar", "0")
    assert (proc.returncode, proc.stderr) == (3, "")
    assert ("max level derivative magnitude = n/a (no finite-difference "
            "stencil fits in the domain)") in proc.stdout.splitlines()
