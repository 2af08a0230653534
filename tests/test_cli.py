"""Command-line surface: schemas, exit codes, determinism."""

import csv
import io
import json
import math
from importlib import resources

import pytest

from branekit import brane_check, cli, torus_forms
from branekit.cli import main

ZEROS = {"12": 0, "13": 0, "14": 0, "23": 0, "24": 0, "34": 0}


def write_json(path, doc):
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


@pytest.fixture
def omega_file(tmp_path):
    return write_json(
        tmp_path / "omega.json",
        {"version": 1, "kind": "constant2", "coeffs": dict(ZEROS, **{"14": 1, "23": 1})},
    )


@pytest.fixture
def f0_file(tmp_path):
    return write_json(
        tmp_path / "f0.json",
        {"version": 1, "kind": "constant2", "coeffs": dict(ZEROS, **{"13": 1, "24": -1})},
    )


@pytest.fixture
def rotation_file(tmp_path):
    mode = lambda c, s: [{"k": [1, 0, 0, 0], "cos": c, "sin": s}]
    return write_json(
        tmp_path / "rotation.json",
        {
            "version": 1,
            "kind": "trigpoly2",
            "coeffs": {
                "12": mode(0, 1),
                "13": mode(1, 0),
                "14": [],
                "23": [],
                "24": mode(-1, 0),
                "34": mode(0, 1),
            },
        },
    )


class TestVerify:
    def test_standard_pair_passes(self, omega_file, f0_file, capsys):
        assert main(["verify", omega_file, f0_file, "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["residuals"]["brane"]["wedge_square_resid"] == 0
        assert report["checks_agree"] is True

    def test_rotation_family_fails_closedness(self, omega_file, rotation_file, capsys):
        assert main(["verify", omega_file, rotation_file, "--no-timestamp"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["residuals"]["brane"]["closedness_resid"] > 0
        assert report["checks_agree"] is True

    def test_malformed_file_is_input_error(self, tmp_path, omega_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", omega_file, str(bad)]) == 2

    def test_missing_coefficient_key_is_input_error(self, tmp_path, omega_file):
        bad = write_json(
            tmp_path / "partial.json",
            {"version": 1, "kind": "constant2", "coeffs": {"12": 1}},
        )
        assert main(["verify", omega_file, bad]) == 2

    def test_degenerate_omega_is_input_error(self, tmp_path, f0_file):
        degenerate = write_json(
            tmp_path / "deg.json",
            {"version": 1, "kind": "constant2", "coeffs": dict(ZEROS, **{"12": 1})},
        )
        assert main(["verify", degenerate, f0_file]) == 2

    def test_missing_file_is_input_error(self, omega_file):
        assert main(["verify", omega_file, "/nonexistent/form.json"]) == 2

    def test_usage_error(self):
        assert main(["verify"]) == 2

    def test_deterministic_reports(self, omega_file, f0_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify", omega_file, f0_file, "--no-timestamp", "--out", str(out1)]) == 0
        assert main(["verify", omega_file, f0_file, "--no-timestamp", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_timestamp_present_by_default(self, omega_file, f0_file, capsys):
        assert main(["verify", omega_file, f0_file]) == 0
        assert "timestamp" in json.loads(capsys.readouterr().out)


class TestQuadric:
    def test_samples_all_pass(self, omega_file, f0_file, capsys):
        code = main(
            ["quadric", omega_file, f0_file, "--samples", "100", "--seed", "7", "--no-timestamp"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["samples"]) == 100
        assert all(row["pass"] for row in report["samples"])

    def test_zero_samples(self, omega_file, f0_file, capsys):
        assert main(["quadric", omega_file, f0_file, "--samples", "0", "--no-timestamp"]) == 0
        assert json.loads(capsys.readouterr().out)["samples"] == []

    def test_non_brane_base_is_input_error(self, omega_file):
        assert main(["quadric", omega_file, omega_file]) == 2

    def test_seeded_determinism(self, omega_file, f0_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["quadric", omega_file, f0_file, "--samples", "20", "--seed", "3", "--no-timestamp"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestMetric:
    def test_single_point_row(self, omega_file, f0_file, capsys):
        assert main(["metric", omega_file, f0_file, "--no-timestamp"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1
        row = rows[0]
        assert float(row["g_theta_theta"]) == 2.0
        assert float(row["g_y4_y4"]) == -2.0
        assert float(row["g_y5_y5"]) == -2.0
        assert float(row["g_y6_y6"]) == -2.0
        assert (int(row["sig_pos"]), int(row["sig_neg"])) == (1, 3)

    def test_circle_coefficient_discrepancy_column(self, omega_file, f0_file, capsys):
        assert main(
            ["metric", omega_file, f0_file, "--theta", "0", "--ybar", "1,0,0", "--no-timestamp"]
        ) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert abs(float(row["g_theta_theta"]) - 4.0) <= 1e-12
        assert abs(float(row["circle_ratio"]) - math.sqrt(2)) <= 1e-12

    def test_sweep_signatures(self, omega_file, f0_file, capsys):
        assert main(
            ["metric", omega_file, f0_file, "--sweep", "50", "--seed", "1", "--no-timestamp"]
        ) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 50
        assert all((int(r["sig_pos"]), int(r["sig_neg"])) == (1, 3) for r in rows)

    def test_k3_class_files(self, tmp_path, capsys):
        omega = write_json(
            tmp_path / "omega_k3.json",
            {"version": 1, "kind": "class", "space": "k3",
             "coeffs": [1] + [0] * 21},
        )
        base = write_json(
            tmp_path / "base_k3.json",
            {"version": 1, "kind": "class", "space": "k3",
             "coeffs": [0, 1] + [0] * 20},
        )
        assert main(
            ["metric", omega, base, "--space", "k3", "--sweep", "5", "--seed", "2",
             "--no-timestamp"]
        ) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert all((int(r["sig_pos"]), int(r["sig_neg"])) == (1, 19) for r in rows)

    def test_wrong_ybar_length_is_input_error(self, omega_file, f0_file):
        assert main(["metric", omega_file, f0_file, "--ybar", "1,2"]) == 2

    def test_non_positive_omega_class_is_input_error(self, tmp_path):
        # e6 has square -1 in the K3 lattice; this used to be a ValueError
        # traceback
        omega = write_json(
            tmp_path / "omega_e6.json",
            {"version": 1, "kind": "class", "space": "k3", "coeffs": [0] * 5 + [1] + [0] * 16},
        )
        base = write_json(
            tmp_path / "base_k3.json",
            {"version": 1, "kind": "class", "space": "k3", "coeffs": [0, 1] + [0] * 20},
        )
        out = tmp_path / "never.csv"
        assert main(["metric", omega, base, "--space", "k3", "--out", str(out)]) == 2
        assert not out.exists()


class TestNijenhuis:
    def test_constant_brane(self, omega_file, f0_file, capsys):
        assert main(["nijenhuis", omega_file, f0_file, "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_defect"] <= 1e-8
        assert report["max_dF"] == 0
        assert report["integrable_iff_closed"] is True

    def test_rotation_family(self, omega_file, rotation_file, capsys):
        assert main(["nijenhuis", omega_file, rotation_file, "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_defect"] > 1e-2
        assert report["max_dF"] > 1e-2
        assert report["identity_residual"] <= 1e-6
        assert report["integrable_iff_closed"] is True

    def test_pointwise_failure_is_input_error(self, omega_file, tmp_path):
        bad = write_json(
            tmp_path / "notbrane.json",
            {"version": 1, "kind": "constant2", "coeffs": dict(ZEROS, **{"12": 1})},
        )
        assert main(["nijenhuis", omega_file, bad]) == 2


class TestExampleTorus:
    def test_runs_clean(self, capsys):
        assert main(["example-torus", "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["checks"]["normal_form_squares"] == [1, 1, -1, -1, -1]
        assert report["checks"]["deformation_quadric"]["alt_form_value"] == -6
        ratio = report["checks"]["metric_off_axis"]["ratio"]
        assert abs(ratio - math.sqrt(2)) <= 1e-12
        assert len(report["discrepancy_notes"]) == 2

    def test_no_partial_writes_on_input_error(self, tmp_path, omega_file):
        out = tmp_path / "never.json"
        assert main(["verify", omega_file, "/nonexistent.json", "--out", str(out)]) == 2
        assert not out.exists()


class TestOptionRanges:
    @pytest.mark.parametrize(
        "command, form, option, value",
        [
            ("verify", "rotation_file", "--grid", "0"),
            ("nijenhuis", "rotation_file", "--h", "0"),
            ("metric", "f0_file", "--sweep", "-3"),
            ("quadric", "f0_file", "--samples", "-1"),
            ("verify", "f0_file", "--tol", "-1"),
            ("metric", "f0_file", "--theta", "nan"),
            ("metric", "f0_file", "--theta", "inf"),
            ("metric", "f0_file", "--ybar", "nan,0,0"),
            ("metric", "f0_file", "--ybar", "inf,0,0"),
            ("metric", "f0_file", "--ybar", "1,x,0"),
            ("metric", "f0_file", "--seed", "-1"),
            ("quadric", "f0_file", "--seed", "-1"),
        ],
    )
    def test_out_of_range_option_is_input_error(
        self, request, omega_file, tmp_path, command, form, option, value
    ):
        out = tmp_path / "never.out"
        form_file = request.getfixturevalue(form)
        code = main([command, omega_file, form_file, option, value, "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_metric_is_input_error(self, omega_file, f0_file, tmp_path):
        # finite coordinates whose square overflows are refused before numpy
        # computes (and warns about) a NaN metric
        out = tmp_path / "never.csv"
        assert main(["metric", omega_file, f0_file, "--ybar", "1e200,0,0", "--out", str(out)]) == 2
        assert not out.exists()

    def test_zero_tol_passes_exact_inputs(self, omega_file, f0_file, tmp_path):
        out = tmp_path / "zero_tol.json"
        assert main(["verify", omega_file, f0_file, "--tol", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pass"] is True


class TestVerifyWalk:
    def test_verify_walks_the_grid_once(self, monkeypatch, capsys):
        walks = []

        def counted(*args):
            walks.append(args[0])
            return torus_forms.fiber_blocks(*args)

        monkeypatch.setattr(brane_check, "fiber_blocks", counted)
        data = resources.files("branekit").joinpath("data")
        args = [str(data / "omega0.json"), str(data / "rotation_k1000.json")]
        assert main(["verify", *args, "--grid", "14", "--no-timestamp"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["checks_agree"] is True
        assert walks == [14]


class TestParser:
    def test_two_calls_build_the_parser_at_most_once(
        self, monkeypatch, tmp_path, omega_file, f0_file
    ):
        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
        out = str(tmp_path / "report.json")
        for _ in range(2):
            assert main(["verify", omega_file, f0_file, "--no-timestamp", "--out", out]) == 0
        assert len(built) <= 1


class TestNonFinite:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_coefficient_is_input_error(self, tmp_path, omega_file, value):
        form = write_json(
            tmp_path / "nan.json",
            {"version": 1, "kind": "constant2", "coeffs": dict(ZEROS, **{"13": value})},
        )
        out = tmp_path / "never.json"
        assert main(["verify", omega_file, form, "--out", str(out)]) == 2
        assert not out.exists()

    def test_nan_defect_does_not_pass(self, monkeypatch, omega_file, rotation_file):
        reports = []
        monkeypatch.setattr(cli, "nijenhuis_defect", lambda *a, **k: (math.nan, math.nan))
        monkeypatch.setattr(cli, "_finish_report", lambda report, args: reports.append(report))
        assert main(["nijenhuis", omega_file, rotation_file]) == 1
        assert reports[0]["integrable_iff_closed"] is False
        assert reports[0]["pass"] is False

    def test_nan_in_report_is_input_error(self, omega_file, f0_file, tmp_path):
        out = tmp_path / "never.json"
        assert main(["verify", omega_file, f0_file, "--tol", "nan", "--out", str(out)]) == 2
        assert not out.exists()
