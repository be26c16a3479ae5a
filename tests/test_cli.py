"""Tests for the batch command-line driver."""

from __future__ import annotations

import csv
import io
import json
import re

import pytest

from loopcells import cli, fixtures as fx


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    @pytest.mark.parametrize(
        "command, sizes",
        [
            ("xxz-b", [4, 8, 12]),
            ("polymer-b", [2, 4, 6, 8, 10]),
            ("deformed-b", [4, 8]),
            ("percolation-check", [4, 6, 8]),
            ("ising-entropy", [12, 14, 16, 18]),
            ("loop-entropy", [12, 14, 16, 18]),
        ],
    )
    def test_default_sizes(self, command, sizes):
        args = cli.build_parser().parse_args([command])
        assert args.sizes == sizes
        assert args.format == "table"

    def test_sizes_accept_commas_and_spaces(self):
        assert cli._parse_sizes("4,8,12") == [4, 8, 12]
        assert cli._parse_sizes("4 8  12") == [4, 8, 12]
        assert cli._parse_sizes("4, 8") == [4, 8]

    def test_params_parse_floats_then_complex(self):
        params = cli._parse_params(["x=0.5", "q=0.5+0.8660254j"])
        assert params["x"] == 0.5
        assert isinstance(params["q"], complex)

    def test_bad_param_is_a_usage_error(self, capsys):
        for command, param in (("xxz-b", "nonsense"), ("deformed-b", "y=abc")):
            with pytest.raises(SystemExit) as info:
                cli.main([command, "--sizes", "4", "--model-param", param])
            assert info.value.code == 2

    @pytest.mark.parametrize("command", ["polymer-b", "ising-entropy", "loop-entropy", "fixtures"])
    def test_tol_is_a_usage_error_where_no_cluster_is_read(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--sizes", "2,4", "--tol", "0.9"])
        assert info.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["xxz-b", "deformed-b", "percolation-check"])
    def test_tol_reaches_the_cluster_commands(self, command):
        assert cli.build_parser().parse_args([command, "--tol", "1e-5"]).tol == 1e-5

    @pytest.mark.parametrize(
        "command, param",
        [
            ("polymer-b", "q=2"),
            ("polymer-b", "X=0.5"),
            ("xxz-b", "x=0.5"),
            ("deformed-b", "n=1"),
            ("loop-entropy", "y=2"),
            ("percolation-check", "y=2"),
            ("ising-entropy", "n=1"),
            ("fixtures", "n=1"),
        ],
    )
    def test_model_param_the_command_does_not_read_is_a_usage_error(self, capsys, command, param):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--sizes", "4", "--model-param", param])
        assert info.value.code == 2
        assert "--model-param" in capsys.readouterr().err

    def test_sizes_is_a_usage_error_where_no_width_is_read(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["fixtures", "--sizes", "4"])
        assert info.value.code == 2
        assert "--sizes" in capsys.readouterr().err
        code, out, _ = run(capsys, "fixtures", "--format", "json")
        assert code == 0
        assert json.loads(out)["sizes"] == []

    def test_empty_sizes_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["xxz-b", "--sizes", ""])
        assert info.value.code == 2

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])


class TestSpinChainCommand:
    def test_json_payload(self, capsys):
        code, out, err = run(capsys, "xxz-b", "--sizes", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == cli.SCHEMA_ID
        assert payload["command"] == "xxz-b"
        assert payload["sizes"] == [4]
        (row,) = payload["rows"]
        assert row["model"] == "xxz" and row["L"] == 4
        assert row["b"] == pytest.approx(fx.B_XXZ_L4_EXACT, abs=1e-9)

    def test_csv_payload(self, capsys):
        code, out, _ = run(capsys, "xxz-b", "--sizes", "4", "--format", "csv")
        assert code == 0
        (row,) = list(csv.DictReader(io.StringIO(out)))
        assert row["model"] == "xxz"
        assert float(row["b"]) == pytest.approx(fx.B_XXZ_L4_EXACT, abs=1e-9)

    def test_table_payload(self, capsys):
        code, out, _ = run(capsys, "xxz-b", "--sizes", "4")
        assert code == 0
        header, data = out.splitlines()
        assert header.split()[:3] == ["model", "L", "b"]
        assert data.split()[0] == "xxz"

    def test_extrapolation_row_appears_with_three_sizes(self, capsys):
        code, out, _ = run(capsys, "xxz-b", "--sizes", "4,8,12", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["L"] for r in rows] == [4, 8, 12, "inf"]
        lo, hi = fx.B_XXZ_LIMIT[0] - fx.B_XXZ_LIMIT[1], fx.B_XXZ_LIMIT[0] + fx.B_XXZ_LIMIT[1]
        assert lo <= rows[-1]["b"] <= hi

    def test_invalid_width_is_a_pipeline_error(self, capsys):
        code, out, err = run(capsys, "xxz-b", "--sizes", "6")
        assert code == 1
        assert "error:" in err and "multiple of 4" in err

    def test_width_zero_is_a_pipeline_error(self, capsys):
        code, out, err = run(capsys, "xxz-b", "--sizes", "0")
        assert code == 1
        assert "error:" in err and "needs even L" in err

    @pytest.mark.parametrize(
        "command, param, shown",
        [
            ("xxz-b", "q=nan", "nan"),
            ("polymer-b", "x=nan", "nan"),
            ("deformed-b", "y=inf", "inf"),
            ("deformed-b", "y=nan+1j", "(nan+1j)"),
        ],
    )
    def test_non_finite_model_param_is_a_pipeline_error(self, capsys, command, param, shown):
        code, out, err = run(capsys, command, "--sizes", "4", "--model-param", param)
        assert code == 1 and out == ""
        assert f"error: the parameter {param[0]} must be finite, got {shown}" in err

    def test_out_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "xxz-b", "--sizes", "4", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["command"] == "xxz-b"

    def test_json_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "xxz-b", "--sizes", "4", "--format", "json")
        _, second, _ = run(capsys, "xxz-b", "--sizes", "4", "--format", "json")
        assert first == second


class TestOtherCommands:
    def test_polymer_width_two(self, capsys):
        code, out, _ = run(capsys, "polymer-b", "--sizes", "2", "--format", "json")
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["b"] == pytest.approx(fx.b_polymer_l2_exact(), abs=1e-9)
        assert row["convention"] == "transfer"

    def test_deformed_takes_y_parameter(self, capsys):
        code, out, _ = run(
            capsys,
            "deformed-b", "--sizes", "4", "--model-param", "y=-1", "--format", "json",
        )
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["model"] == "deformed:y=-1.0"
        assert row["b"] == pytest.approx(fx.B_XXZ_L4_EXACT, abs=1e-8)

    def test_percolation_check_reports_structure(self, capsys):
        code, out, _ = run(capsys, "percolation-check", "--sizes", "4", "--format", "json")
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["diagonalizable"] == "yes"
        assert row["geometric_multiplicity"] == 2
        assert row["jordan_cell_y=2"] == "yes"
        assert row["jordan_cell_y=-1"] == "yes"

    def test_percolation_check_answers_at_odd_widths_above_the_dense_cut(self, capsys):
        # width 11 has 462 states, so ARPACK solves every chain
        code, out, _ = run(capsys, "percolation-check", "--sizes", "9,11", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["L"] for row in rows] == [9, 11]
        for row in rows:
            assert row["diagonalizable"] == "yes"
            assert row["jordan_cell_y=2"] == row["jordan_cell_y=-1"] == "yes"

    def test_ising_entropy_rows(self, capsys):
        code, out, _ = run(
            capsys, "ising-entropy", "--sizes", "8,10,12", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["bc"] for r in rows] == ["fixed", "free"]
        assert rows[0]["difference"] < 5e-3
        assert abs(rows[1]["s"]) < 1e-3

    @pytest.mark.parametrize("sizes", ["0,2", "0,2,4"])
    def test_ising_entropy_width_zero_is_a_pipeline_error(self, capsys, sizes):
        code, out, err = run(capsys, "ising-entropy", "--sizes", sizes)
        assert code == 1
        assert "error:" in err and "all distinct and positive" in err

    def test_ising_entropy_solves_each_width_once(self, capsys, monkeypatch):
        from loopcells import observables

        widths = []
        solve = observables._ising_ground_state

        def counted(L):
            widths.append(L)
            return solve(L)

        monkeypatch.setattr(observables, "_ising_ground_state", counted)
        code, out, _ = run(capsys, "ising-entropy", "--sizes", "8,10,12", "--format", "json")
        assert code == 0
        assert sorted(widths) == [8, 10, 12]
        # both rows are the fits of the one-condition entry point
        rows = json.loads(out)["rows"]
        for row in rows:
            fit = observables.ising_boundary_entropy((8, 10, 12), row["bc"])
            assert (row["s"], row["uncertainty"]) == (fit.value, fit.uncertainty)

    def test_loop_entropy_row(self, capsys):
        code, out, _ = run(
            capsys,
            "loop-entropy", "--sizes", "8,10,12",
            "--model-param", "n=1.0", "--model-param", "n1=1.5",
            "--format", "json",
        )
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["n1"] == 1.5
        assert row["difference"] < 5e-2

    @pytest.mark.parametrize("n1", ["nan", "inf"])
    def test_loop_entropy_nonfinite_boundary_weight_exits_one(self, capsys, n1):
        code, out, err = run(
            capsys, "loop-entropy", "--sizes", "8,10,12", "--model-param", f"n1={n1}"
        )
        assert code == 1 and out == ""
        assert "boundary loop weight must be positive and finite" in err

    @pytest.mark.parametrize("command", ["xxz-b", "deformed-b", "percolation-check"])
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_cluster_tolerance_exits_one(self, capsys, command, tol):
        code, out, err = run(capsys, command, "--sizes", "4", "--tol", tol)
        assert code == 1 and out == ""
        assert f"cluster tolerance must be positive and finite, got {float(tol)}" in err

    def test_extrapolation_over_two_distinct_sizes_exits_one(self, capsys):
        code, out, err = run(capsys, "xxz-b", "--sizes", "4,4,8")
        assert code == 1 and out == ""
        assert "three sizes, all distinct, got [4, 4, 8]" in err

    @pytest.mark.parametrize(
        "command, sizes", [("xxz-b", "4,4,8"), ("polymer-b", "2,4,2"), ("xxz-b", "8,8")]
    )
    def test_repeated_widths_are_refused_before_any_solve(self, command, sizes, capsys,
                                                           monkeypatch):
        from loopcells import observables

        calls = []

        def record(L, *args, **kwargs):
            calls.append(L)

        monkeypatch.setattr(observables, "b_xxz", record)
        monkeypatch.setattr(observables, "b_polymer", record)
        code, out, err = run(capsys, command, "--sizes", sizes)
        assert code == 1 and out == ""
        assert "repeated widths" in err
        assert calls == []

    @pytest.mark.parametrize(
        "command, sizes", [("deformed-b", "4,4"), ("percolation-check", "4,6,4")]
    )
    def test_repeated_widths_of_an_unfitted_sweep_are_a_usage_error(self, command, sizes, capsys,
                                                                     monkeypatch):
        from loopcells import observables

        calls = []

        def record(L, *args, **kwargs):
            calls.append(L)

        monkeypatch.setattr(observables, "b_deformed", record)
        monkeypatch.setattr(observables, "percolation_check", record)
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--sizes", sizes])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and calls == []
        assert f"repeated widths: each width is solved once, got [{sizes.replace(',', ', ')}]" in err
        assert "extrapolation" not in err

    def test_fixtures_pass_and_exit_zero(self, capsys):
        code, out, _ = run(capsys, "fixtures")
        assert code == 0
        assert "all fixtures pass" in out
        assert "MISMATCH" not in out


class TestFixtureChecks:
    def test_all_checks_report_ok(self):
        results = cli.run_fixture_checks()
        assert len(results) >= 20
        failures = [name for name, ok, _ in results if not ok]
        assert failures == []


class TestGoldenReports:
    """Printed ``b``, ``delta``, ``level`` and noise columns, pinned byte for byte."""

    ARGV = {
        "xxz-b": ["xxz-b", "--sizes", "4,8"],
        "polymer-b": ["polymer-b", "--sizes", "2,4,6"],
        "deformed-b": ["deformed-b", "--sizes", "4,6", "--model-param", "y=2.0"],
    }

    @staticmethod
    def columns(out: str, names: tuple[str, ...]) -> list[tuple[str, ...]]:
        header, *lines = out.splitlines()
        starts = [m.start() for m in re.finditer(r"\S+", header)]
        spans = dict(zip(header.split(), zip(starts, starts[1:] + [None])))
        return [tuple(line[slice(*spans[n])].strip() for n in names) for line in lines]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["xxz-b", "--sizes", "4,8"],
                [
                    ("-1.3603495", "1.4702104", "+1.5"),
                    ("-0.87029923", "1.7655316", "-6.89738981591"),
                ],
            ),
            (
                ["polymer-b", "--sizes", "2,4,6"],
                [
                    ("0.68080104", "1.3540055", "+0.0857864376269"),
                    ("0.66431319", "1.6301103", "+0.228014397775"),
                    ("0.67031926", "1.7399207", "+0.349254044659"),
                    ("0.6995844", "", ""),
                ],
            ),
            (
                ["deformed-b", "--sizes", "4,6", "--model-param", "y=2.0"],
                [
                    ("-1.3603495", "1.4702104", "+1.5"),
                    ("-0.20288899", "1.6671812", "-2.96410161514"),
                ],
            ),
        ],
        ids=["xxz-b", "polymer-b", "deformed-b"],
    )
    def test_b_delta_level_columns(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert self.columns(out, ("b", "delta", "level")) == expected

    @pytest.mark.parametrize(
        "command, gauges",
        [
            ("xxz-b", [("<1e-12",), ("<1e-12",)]),
            ("polymer-b", [("<1e-12",), ("<1e-12",), ("<1e-12",), ("",)]),
            ("deformed-b", [("<1e-12",), ("<1e-12",)]),
        ],
    )
    def test_gauge_column_prints_rounding_noise_as_a_bound(self, capsys, command, gauges):
        code, out, _ = run(capsys, *self.ARGV[command])
        assert code == 0
        assert self.columns(out, ("gauge_sensitivity",)) == gauges

    def test_fit_residual_prints_rounding_noise_as_a_bound(self, capsys):
        code, out, _ = run(capsys, *self.ARGV["polymer-b"])
        assert code == 0
        assert self.columns(out, ("residual",))[-1] == ("<1e-12",)

    def test_json_keeps_the_raw_noise_values(self, capsys):
        code, out, _ = run(capsys, *self.ARGV["polymer-b"], "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert all(isinstance(r["gauge_sensitivity"], float) for r in rows[:-1])
        assert isinstance(rows[-1]["residual"], float) and rows[-1]["residual"] < 1e-12
        code, out, _ = run(capsys, "percolation-check", "--sizes", "4", "--format", "json")
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert isinstance(row["nilpotent_norm"], float) and row["nilpotent_norm"] < 1e-12

    def test_percolation_check_columns(self, capsys):
        code, out, _ = run(capsys, "percolation-check", "--sizes", "4,6,8")
        assert code == 0
        names = tuple(out.splitlines()[0].split())
        assert names == (
            "L", "level", "cluster_size", "geometric_multiplicity", "nilpotent_norm",
            "diagonalizable", "jordan_cell_y=2", "jordan_cell_y=-1", "jordan_cell_y=0.5",
        )
        assert self.columns(out, names) == [
            ("4", "+1.5", "2", "2", "<1e-12", "yes", "yes", "yes", "yes"),
            ("6", "-2.96410161514", "2", "2", "<1e-12", "yes", "yes", "yes", "yes"),
            ("8", "-6.89738981591", "2", "2", "<1e-12", "yes", "yes", "yes", "yes"),
        ]

    def test_only_noise_columns_are_bounded(self):
        assert cli._fmt(5e-13, "gauge_sensitivity") == "<1e-12"
        assert cli._fmt(5e-13, "residual") == "<1e-12"
        assert cli._fmt(5e-13, "nilpotent_norm") == "<1e-12"
        assert cli._fmt(3e-12, "residual") == "3e-12"
        assert cli._fmt(5e-13, "b") == "5e-13"
