"""Command-line surface: schemas, exit codes, determinism."""

import argparse
import contextlib
import csv
import dataclasses
import errno
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branekit
from branekit import cli, torus_forms
from branekit.cli import main
from branekit.cohomology import CohClass, torus_space
from branekit.errors import BranekitError, NonFiniteMatrix, NotInQuadric
from branekit.exterior4 import Form2
from branekit.period_domain import QuadricSample
from branekit.torus_forms import TrigPolyFn, TrigPolyForm2
import test_golden_reports as golden

ZEROS = {"12": 0, "13": 0, "14": 0, "23": 0, "24": 0, "34": 0}
SRC = str(Path(branekit.__file__).resolve().parents[1])


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


#: any finite float, with the ones whose text is easy to get wrong
row_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-5, 1.0, -3.0, 2.0 ** 53, 1e22]),
)


@st.composite
def quadric_samples(draw):
    """0 to 40 quadric samples with random numbers in every field."""
    def numbers(n):
        return tuple(draw(st.lists(row_floats, min_size=n, max_size=n)))

    return [
        QuadricSample(draw(row_floats), numbers(3), CohClass(torus_space(), numbers(6)),
                      Form2.from_coeffs(numbers(6)), draw(st.booleans()))
        for _ in range(draw(st.integers(min_value=0, max_value=40)))
    ]


def quadric_report(samples):
    """The report of ``samples``, spooled in two chunks by ``_quadric_rows``
    and emitted by ``_finish_report``, as stdout text."""
    report = {"inputs": {"omega": "o.json", "base": "b.json"}, "seed": 7,
              "tolerances": {"tol": 1e-9}, "samples": [], "pass": True}
    args = argparse.Namespace(command="quadric", no_timestamp=True, out=None)
    out = io.StringIO()
    with tempfile.TemporaryFile("w+", newline="") as rows, contextlib.redirect_stdout(out):
        for chunk in (samples[:len(samples) // 2], samples[len(samples) // 2:]):
            if chunk:  # the sweep yields no empty chunk
                rows.writelines(cli._quadric_rows(chunk))
        cli._finish_report(report, args, rows)
    return out.getvalue()


def _with_non_finite(sample, field, bad):
    if field == "theta":
        return dataclasses.replace(sample, theta=bad)
    if field == "ybar":
        return dataclasses.replace(sample, ybar=sample.ybar[:-1] + (bad,))
    if field == "class":
        return dataclasses.replace(sample, cls=CohClass(sample.cls.space,
                                                        (bad,) + sample.cls.coeffs[1:]))
    return dataclasses.replace(sample, form=Form2.from_coeffs(sample.form.coeffs[:-1] + (bad,)))


class TestQuadricRows:
    @given(quadric_samples())
    def test_rows_are_the_bytes_of_json_dumps(self, samples):
        rows = [{"theta": s.theta, "ybar": list(s.ybar), "class": list(s.cls.coeffs),
                 "form": dict(zip(cli._SLOT_KEYS, s.form.coeffs)), "pass": s.passed}
                for s in samples]
        want = {"inputs": {"omega": "o.json", "base": "b.json"}, "seed": 7,
                "tolerances": {"tol": 1e-9}, "samples": rows, "pass": True,
                "version": 1, "command": "quadric"}
        assert quadric_report(samples) == json.dumps(
            want, indent=2, sort_keys=True, allow_nan=False) + "\n"

    def test_zero_samples_write_an_empty_list(self, omega_file, f0_file, capsys):
        assert main(["quadric", omega_file, f0_file, "--samples", "0", "--no-timestamp"]) == 0
        assert '\n  "samples": [],\n' in capsys.readouterr().out

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["theta", "ybar", "class", "form"])
    def test_a_non_finite_number_is_refused(self, field, bad):
        sample = QuadricSample(0.5, (1.0, 2.0, 3.0), CohClass(torus_space(), (1.0,) * 6),
                               Form2.from_coeffs((1.0,) * 6), True)
        with pytest.raises(BranekitError, match="non-finite"):
            quadric_report([sample, _with_non_finite(sample, field, bad)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_row_exits_2_and_writes_nothing(self, omega_file, f0_file, tmp_path,
                                                        monkeypatch, capsys, bad):
        sweep = cli.quadric_sweep

        def broken(*args, **kw):
            samples = sweep(*args, **kw)
            return samples[:-1] + [_with_non_finite(samples[-1], "theta", bad)]

        monkeypatch.setattr(cli, "quadric_sweep", broken)
        out = tmp_path / "never.json"
        args = ["quadric", omega_file, f0_file, "--samples", "5", "--no-timestamp"]
        assert main(args + ["--out", str(out)]) == 2
        assert not out.exists()
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err


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

    @pytest.mark.parametrize("ybar", ["1000,0,0", "100000,0,0"])
    def test_large_ybar_keeps_the_signature(self, omega_file, f0_file, capsys, ybar):
        # the chart metric is (1, 3) for every ybar; these read (1, 2) and
        # (1, 0) while the tol scaled with g_theta_theta = (1 + |ybar|^2) s
        assert main(["metric", omega_file, f0_file, "--ybar", ybar, "--no-timestamp"]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert (int(row["sig_pos"]), int(row["sig_neg"])) == (1, 3)

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

    @pytest.mark.parametrize("point", [["--theta", "1"], ["--ybar", "5,5,5"], ["--theta", "0"]])
    def test_a_sweep_with_a_single_point_is_input_error(self, tmp_path, omega_file, f0_file,
                                                         point, capsys):
        # a sweep draws its own points, so a point given with it would be dropped
        out = tmp_path / "never.csv"
        argv = ["metric", omega_file, f0_file, "--sweep", "2", "--seed", "1", *point]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--sweep" in err[0]
        assert not out.exists()

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

    @pytest.mark.parametrize("value", ["x", "0"])
    def test_unconvertible_and_out_of_range_values_fail_alike(
        self, omega_file, f0_file, tmp_path, value, capsys
    ):
        out = tmp_path / "never.json"
        assert main(["verify", omega_file, f0_file, "--grid", value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: argument --grid: must be an integer >= 1, got '{value}'" in err
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
        walks, fiber_blocks = [], torus_forms.fiber_blocks

        def counted(*args):
            walks.append(args[0])
            return fiber_blocks(*args)

        monkeypatch.setattr(torus_forms, "fiber_blocks", counted)
        data = resources.files("branekit").joinpath("data")
        args = [str(data / "omega0.json"), str(data / "rotation_k1000.json")]
        assert main(["verify", *args, "--grid", "14", "--no-timestamp"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["checks_agree"] is True
        assert walks == [14]

    def test_rank_one_forms_walk_one_point_per_class(self, monkeypatch, capsys):
        # rotation_k1000's frequencies span the lattice Z (1, 0, 0, 0): its
        # values on the grid^4 points are those on grid of them
        sampled = []

        def spied(block, *args):
            sampled.append(len(block))
            return sample_block(block, *args)

        sample_block = torus_forms._sample_block
        monkeypatch.setattr(torus_forms, "_sample_block", spied)
        data = resources.files("branekit").joinpath("data")
        args = [str(data / "omega0.json"), str(data / "rotation_k1000.json")]
        assert main(["verify", *args, "--grid", "14", "--no-timestamp"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["residuals"]["brane"]["grid_used"] == 14 ** 4
        assert sum(sampled) == 14
        sampled.clear()
        assert main(["nijenhuis", *args, "--grid", "10", "--no-timestamp"]) == 0
        assert sum(sampled) == 10

    def test_huge_grid_on_a_rank_one_form_completes(self, capsys):
        # the whole grid would be 10^20 points; the walk is 10^5
        data = resources.files("branekit").joinpath("data")
        args = [str(data / "omega0.json"), str(data / "rotation_k1000.json")]
        assert main(["verify", *args, "--grid", "100000", "--no-timestamp"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["residuals"]["brane"]["grid_used"] == 10 ** 20
        assert report["pass"] is False and report["residuals"]["brane"]["closedness_resid"] > 0
        assert report["checks_agree"] is True

    @pytest.mark.parametrize("command", ["verify", "nijenhuis"])
    @pytest.mark.parametrize("grid", [65536, 100000])
    def test_walk_beyond_memory_is_input_error(self, tmp_path, omega_file, command, grid, capsys):
        # frequencies spanning Z^4 make the walk the whole grid; the walk's
        # memory follows the block, and its grid^4 flat indices pass int64
        # from grid 55109 (65536^4 = 2^64), so a missing guard fails at once
        axes = [[int(i == j) for j in range(4)] for i in range(4)]
        constant = lambda c: [{"k": [0, 0, 0, 0], "cos": c}]  # noqa: E731
        form = _trig_file(
            tmp_path / "rank4.json",
            {"12": [{"k": k, "cos": 0.5} for k in axes], "13": constant(1), "24": constant(-1)},
        )
        out = tmp_path / "never.json"
        assert main([command, omega_file, form, "--grid", str(grid), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "int64" in err
        assert not out.exists()


class TestConsoleEntry:
    def test_module_entry_exit_codes_under_warnings_as_errors(self, tmp_path):
        # python -m branekit.cli runs cli.entry
        data = resources.files("branekit").joinpath("data")

        def verify(form_file):
            return subprocess.run(
                [sys.executable, "-W", "error", "-m", "branekit.cli", "verify",
                 str(data / "omega0.json"), str(form_file), "--no-timestamp"],
                capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
            )

        proc = verify(data / "f0.json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["pass"] is True
        proc = verify(data / "rotation_k1000.json")
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["pass"] is False
        proc = verify(tmp_path / "missing.json")
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
        assert proc.stdout == ""

    def test_a_reader_that_closes_early_ends_the_run_quietly(self, tmp_path, capsys):
        # the report (about 1.2 MB) outgrows the pipe, so the writer meets the close
        data = resources.files("branekit").joinpath("data")
        argv = [sys.executable, "-W", "error", "-m", "branekit.cli", "metric",
                str(data / "omega0.json"), str(data / "f0.json"), "--sweep", "5000",
                "--no-timestamp"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=SRC)) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert head.startswith(b"theta,")
        assert (code, err) == (0, b"")
        # a report that cannot be written to --out is still an error
        assert main(argv[5:8] + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestChunkedSweeps:
    """A sweep draws, evaluates and spools ``CHUNK_SAMPLES`` samples at a time."""

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("name", ["quadric", "metric_sweep", "metric_k3_sweep"])
    def test_the_chunk_leaves_the_golden_bytes(self, tmp_path, monkeypatch, name, chunk):
        monkeypatch.setattr(cli, "CHUNK_SAMPLES", chunk)
        code, text = golden._report(name, tmp_path)
        assert code == golden.RUNS[name][1]
        assert text.encode() == golden._golden_path(name).read_bytes()

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_a_count_of_zero_keeps_its_report(self, omega_file, f0_file, monkeypatch, capsys,
                                              chunk):
        monkeypatch.setattr(cli, "CHUNK_SAMPLES", chunk)
        assert main(["quadric", omega_file, f0_file, "--samples", "0", "--no-timestamp"]) == 0
        assert '\n  "samples": [],\n' in capsys.readouterr().out
        # --sweep 0 is a sweep of zero samples: the header alone, and like
        # every sweep it refuses a single point
        argv = ["metric", omega_file, f0_file, "--no-timestamp", "--sweep", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("theta,") and out.count("\r\n") == 1
        assert main(argv + ["--theta", "0"]) == 2

    def test_a_failing_sample_of_an_early_chunk_fails_the_run(self, omega_file, f0_file,
                                                             monkeypatch, capsys):
        monkeypatch.setattr(cli, "CHUNK_SAMPLES", 1)
        sweep, chunks = cli.quadric_sweep, []

        def first_fails(*args, **kw):
            samples = sweep(*args, **kw)
            if not chunks:
                samples = [dataclasses.replace(samples[0], passed=False)] + samples[1:]
            chunks.append(len(samples))
            return samples

        monkeypatch.setattr(cli, "quadric_sweep", first_fails)
        assert main(["quadric", omega_file, f0_file, "--samples", "3", "--no-timestamp"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert chunks == [1, 1, 1]
        assert [s["pass"] for s in report["samples"]] == [False, True, True]
        assert report["pass"] is False

    @pytest.mark.parametrize("command", [["quadric", "--samples"], ["metric", "--sweep"]])
    def test_memory_follows_the_chunk_not_the_count(self, tmp_path, omega_file, f0_file,
                                                    monkeypatch, command):
        monkeypatch.setattr(cli, "CHUNK_SAMPLES", 64)
        argv = command[:1] + [omega_file, f0_file] + command[1:]

        def peak(samples):
            gc.collect()
            tracemalloc.start()
            try:
                assert main(argv + [str(samples), "--no-timestamp", "--out",
                                    str(tmp_path / "report.out")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # one-time allocations land here, not in the peaks compared
        assert peak(20_000) <= 1.1 * peak(2_000)


class TestReportWriter:
    """``--out`` is written over in place and cut to the report's length."""

    @pytest.mark.parametrize("command", [["verify"], ["quadric", "--samples", "3"],
                                         ["metric", "--sweep", "3"]])
    def test_a_longer_file_is_cut_to_the_report(self, tmp_path, omega_file, f0_file, command,
                                               capsys):
        argv = command[:1] + [omega_file, f0_file] + command[1:] + ["--no-timestamp"]
        assert main(argv) == 0
        want = capsys.readouterr().out.encode()
        out = tmp_path / "report.out"
        out.write_bytes(want[:-1] + b"stale\n" * 20_000)
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == want

    def test_a_new_file_gets_the_mode_of_open(self, tmp_path, omega_file, f0_file):
        out, ref = tmp_path / "report.json", tmp_path / "ref.json"
        ref.write_text("")  # open(path, "w")
        assert main(["verify", omega_file, f0_file, "--out", str(out)]) == 0
        assert out.stat().st_mode == ref.stat().st_mode

    def test_devnull_takes_the_report(self, omega_file, f0_file, capsys):
        assert main(["verify", omega_file, f0_file, "--out", os.devnull]) == 0
        assert capsys.readouterr().out == ""

    def test_a_fifo_gets_the_whole_report(self, tmp_path, omega_file, f0_file, capsys):
        argv = ["metric", omega_file, f0_file, "--sweep", "50", "--no-timestamp"]
        assert main(argv) == 0
        want = capsys.readouterr().out.encode()
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(argv + ["--out", str(fifo)]) == 0
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert got == [want]

    @pytest.mark.parametrize("head", [["verify"], ["nijenhuis"], ["quadric"], ["metric"],
                                      ["metric", "--space", "k3"], ["example-torus"]])
    def test_an_input_error_leaves_the_file_as_it_was(self, tmp_path, omega_file, f0_file, head,
                                                      capsys):
        if head == ["example-torus"]:
            files = []
        elif "k3" in head:
            files = _k3_pair(tmp_path)
        else:
            files = [omega_file, f0_file]
        out = tmp_path / "report.out"
        old = b"an older report\n" * 1000
        out.write_bytes(old)
        # no omega is non-degenerate at tol 1e300, and no k3 chart exists at it
        argv = head[:1] + files + head[1:] + ["--tol", "1e300", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert out.read_bytes() == old


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


def _trig_file(path, slot_modes):
    """A trigpoly2 file with the given modes per slot, empty slots elsewhere."""
    coeffs = {key: slot_modes.get(key, []) for key in ZEROS}
    return write_json(path, {"version": 1, "kind": "trigpoly2", "coeffs": coeffs})


def _k3_file(path, leading, version=1):
    """A K3 class file whose coefficients start with ``leading``, zeros after."""
    coeffs = list(leading) + [0] * (22 - len(leading))
    return write_json(path, {"version": version, "kind": "class", "space": "k3", "coeffs": coeffs})


def _k3_pair(tmp_path):
    """The omega and base class files of the golden k3 sweep."""
    return [_k3_file(tmp_path / "o.json", [1, 2, 0, 0, 0, 2]),
            _k3_file(tmp_path / "b.json", [-2, -1, 0, 0, 0, -2])]


class TestRefusals:
    def test_unknown_kind_is_input_error(self, tmp_path, omega_file, capsys):
        form = write_json(
            tmp_path / "form.json", {"version": 1, "kind": "cubic2", "coeffs": dict(ZEROS)}
        )
        out = tmp_path / "never.json"
        assert main(["verify", omega_file, form, "--out", str(out)]) == 2
        assert "unknown kind 'cubic2'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["quadric"], ["metric", "--space", "t4"]])
    def test_non_brane_base_is_input_error(self, tmp_path, omega_file, command, capsys):
        # 2 F0 has F^F = 8 against omega^omega = 2
        base = write_json(
            tmp_path / "base.json",
            {"version": 1, "kind": "constant2", "coeffs": dict(ZEROS, **{"13": 2, "24": -2})},
        )
        out = tmp_path / "never.out"
        assert main(command[:1] + [omega_file, base] + command[1:] + ["--out", str(out)]) == 2
        assert "base form is not a brane" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_mode_key_is_input_error(self, tmp_path, omega_file, capsys):
        # a misspelt "cos" used to be read as cos = sin = 0
        form = _trig_file(tmp_path / "form.json", {
            "12": [{"k": [1, 0, 0, 0], "cso": 1}],
            "13": [{"k": [0, 0, 0, 0], "cos": 1}],
            "24": [{"k": [0, 0, 0, 0], "cos": -1}],
        })
        out = tmp_path / "never.json"
        assert main(["verify", omega_file, form, "--out", str(out)]) == 2
        assert "unknown mode keys ['cso']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["constant2", "class"])
    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_the_integer_1(self, tmp_path, omega_file, kind, version, capsys):
        if kind == "constant2":
            coeffs = dict(ZEROS, **{"13": 1, "24": -1})
            form = write_json(tmp_path / "form.json",
                              {"version": version, "kind": kind, "coeffs": coeffs})
            argv = ["verify", omega_file, form]
        else:
            omega = _k3_file(tmp_path / "omega.json", [1])
            base = _k3_file(tmp_path / "base.json", [0, 1], version)
            argv = ["metric", omega, base, "--space", "k3"]
        out = tmp_path / "never.out"
        assert main(argv + ["--out", str(out)]) == 2
        assert f"unsupported version {version!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["constant2", "trigpoly2", "frequency", "class"])
    def test_number_beyond_the_float_range_is_input_error(
        self, tmp_path, omega_file, f0_file, kind, capsys
    ):
        huge = 10 ** 400  # a valid JSON integer
        if kind == "constant2":
            coeffs = dict(ZEROS, **{"13": huge, "24": -1})
            form = write_json(tmp_path / "form.json", {"version": 1, "kind": kind, "coeffs": coeffs})
            argv = ["verify", omega_file, form]
        elif kind == "trigpoly2":
            form = _trig_file(tmp_path / "form.json", {"13": [{"k": [1, 0, 0, 0], "cos": huge}]})
            argv = ["verify", omega_file, form]
        elif kind == "frequency":
            form = _trig_file(tmp_path / "form.json", {"13": [{"k": [huge, 0, 0, 0], "cos": 1}]})
            argv = ["nijenhuis", omega_file, form]
        else:
            omega = write_json(
                tmp_path / "omega_k3.json",
                {"version": 1, "kind": "class", "space": "k3", "coeffs": [1] + [0] * 21},
            )
            base = write_json(
                tmp_path / "base_k3.json",
                {"version": 1, "kind": "class", "space": "k3", "coeffs": [0, huge] + [0] * 20},
            )
            argv = ["metric", omega, base, "--space", "k3"]
        out = tmp_path / "never.out"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "expected a finite number, got an integer of 401 digits" in err
        assert not out.exists()


    def test_refused_huge_integer_is_shown_by_its_digit_count(self, tmp_path, omega_file, capsys):
        form = write_json(
            tmp_path / "form.json",
            {"version": 1, "kind": "constant2", "coeffs": dict(ZEROS, **{"13": 10 ** 400, "24": -1})},
        )
        assert main(["verify", omega_file, form]) == 2
        err = capsys.readouterr().err
        assert "an integer of 401 digits" in err
        assert "0" * 400 not in err

    def test_integer_past_the_digit_limit_is_input_error(self, tmp_path, omega_file, capsys):
        # json.load raises ValueError for an int of more than 4300 digits
        text = json.dumps({"version": 1, "kind": "constant2", "coeffs": dict(ZEROS, **{"24": -1})})
        form = tmp_path / "form.json"
        form.write_text(text.replace('"13": 0', '"13": ' + "13" * 2500))
        out = tmp_path / "never.json"
        assert main(["verify", omega_file, str(form), "--out", str(out)]) == 2
        assert "invalid JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_bytes_that_are_not_text_are_input_error(self, tmp_path, omega_file):
        form = tmp_path / "form.json"
        form.write_bytes(b"\xff\xfe{")
        assert main(["verify", omega_file, str(form)]) == 2


class TestBeyondTheFloatRange:
    """Exact numbers that no float holds, and float arithmetic that overflows."""

    @pytest.mark.parametrize("case", ["omega", "constant2", "trigpoly2", "class"])
    def test_exact_number_beyond_the_float_range_is_input_error(
        self, tmp_path, omega_file, f0_file, case, capsys
    ):
        huge = 10 ** 300  # each number passes _check_number; a product or quotient does not
        if case == "omega":
            omega = write_json(tmp_path / "omega.json", {
                "version": 1, "kind": "constant2", "coeffs": dict(ZEROS, **{"14": huge, "23": huge}),
            })
            argv = ["verify", omega, f0_file]
        elif case == "constant2":
            form = write_json(tmp_path / "form.json", {
                "version": 1, "kind": "constant2", "coeffs": dict(ZEROS, **{"13": huge, "24": -huge}),
            })
            argv = ["verify", omega_file, form]
        elif case == "trigpoly2":
            k = [10 ** 9, 0, 0, 0]
            form = _trig_file(tmp_path / "form.json", {
                "13": [{"k": k, "cos": huge}], "24": [{"k": k, "cos": -huge}],
            })
            argv = ["verify", omega_file, form]
        else:
            omega = _k3_file(tmp_path / "omega.json", [huge])
            base = _k3_file(tmp_path / "base.json", [0, huge])
            argv = ["metric", omega, base, "--space", "k3"]
        out = tmp_path / "never.out"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "beyond the float range" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "nijenhuis"])
    def test_float_overflow_is_input_error_under_warnings_as_errors(self, tmp_path, command):
        data = resources.files("branekit").joinpath("data")
        if command == "verify":  # the wedges overflow to inf, which the report refuses
            k = [1, 0, 0, 0]
            form = _trig_file(tmp_path / "form.json", {
                "13": [{"k": k, "cos": 1e200}], "24": [{"k": k, "cos": -1e200}],
            })
        else:  # 1e200 F0, whose I-field is not finite
            form = write_json(tmp_path / "form.json", {
                "version": 1, "kind": "constant2", "coeffs": dict(ZEROS, **{"13": 1e200, "24": -1e200}),
            })
        out = tmp_path / "never.json"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "branekit.cli", command,
             str(data / "omega0.json"), form, "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == 2, proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
        if command == "verify":
            assert "non-finite" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", [["quadric"], ["metric", "--sweep", "2"]])
    def test_chart_candidate_beyond_the_float_range_is_input_error(
        self, tmp_path, f0_file, command, capsys
    ):
        # omega0 + 1e200 e12 is a brane for F0, but projecting the chart
        # candidates off its class overflows
        base = write_json(tmp_path / "base.json", {
            "version": 1, "kind": "constant2",
            "coeffs": dict(ZEROS, **{"12": 1e200, "14": 1, "23": 1}),
        })
        out = tmp_path / "never.out"
        assert main(command[:1] + [f0_file, base] + command[1:] + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "beyond the float range" in err
        assert not out.exists()


class TestHugeFrequencies:
    @pytest.mark.parametrize("command", ["verify", "nijenhuis"])
    @pytest.mark.parametrize(
        "k", [[2 ** 63 - 1, -(2 ** 63 - 1), 2 ** 62, 5], [2 ** 70, 1, 0, 0]]
    )
    def test_frequencies_beyond_int64_get_a_report(self, tmp_path, omega_file, command, k):
        constant = lambda c: [{"k": [0, 0, 0, 0], "cos": c}]  # noqa: E731
        form = _trig_file(
            tmp_path / "form.json",
            {"12": [{"k": k, "cos": 1.0}], "13": constant(1), "24": constant(-1)},
        )
        out = tmp_path / "report.json"
        assert main([command, omega_file, form, "--no-timestamp", "--out", str(out)]) in (0, 1)
        assert json.loads(out.read_text())["command"] == command


def _fold(slot_modes):
    """The former parse of a slot: one ``fn + TrigPolyFn.mode`` per mode."""
    fn = TrigPolyFn.zero()
    for mode in slot_modes:
        fn = fn + TrigPolyFn.mode(tuple(mode["k"]), mode.get("cos", 0), mode.get("sin", 0))
    return fn


# 0.1, 0.2, 0.3 and 1e16 make float sums depend on their order
_coefs = st.one_of(
    st.integers(-3, 3), st.floats(-4, 4), st.sampled_from([0.1, 0.2, -0.3, 1e16, -1e16])
)
# a few frequencies, so that several modes of a slot share one k or its negative
_ks = st.sampled_from([[1, 0, 0, 0], [-1, 0, 0, 0], [0, 2, -1, 0], [0, -2, 1, 0], [0, 0, 0, 0]])
_modes = st.fixed_dictionaries(
    {"k": st.one_of(_ks, st.lists(st.integers(-2, 2), min_size=4, max_size=4))},
    optional={"cos": _coefs, "sin": _coefs},
)


@st.composite
def _slot(draw):
    """Modes with duplicate k, cancelling pairs (on k and on -k), negative
    leading entries and k = 0 with a sine, in a random order."""
    modes = draw(st.lists(_modes, max_size=4))
    extra = []
    for mode in modes:
        a, b = mode.get("cos", 0), mode.get("sin", 0)
        twin = draw(st.sampled_from([None, "same", "cancel", "cancel on -k"]))
        if twin == "same":
            extra.append(dict(mode))
        elif twin == "cancel":
            extra.append({"k": mode["k"], "cos": -a, "sin": -b})
        elif twin == "cancel on -k":
            extra.append({"k": [-v for v in mode["k"]], "cos": -a, "sin": b})
    if draw(st.booleans()):
        extra.append({"k": [0, 0, 0, 0], "cos": draw(_coefs), "sin": draw(_coefs)})
    return draw(st.permutations(modes + extra))


class TestParseForm:
    @given(slots=st.lists(_slot(), min_size=6, max_size=6))
    def test_one_canonicalization_equals_the_fold_of_modes(self, slots):
        doc = {"version": 1, "kind": "trigpoly2", "coeffs": dict(zip(ZEROS, slots))}
        want = TrigPolyForm2(tuple(_fold(modes) for modes in slots))
        assert cli._parse_form(doc, "form.json") == want

    def test_a_slot_that_cancels_part_way_merges_as_its_pairwise_sum(self, tmp_path,
                                                                    omega_file, capsys):
        # 1 + -1.0 drops k = 0 at once, so the last 1 stays an int and the
        # report is the exact one of the constant brane
        constant = lambda *cos: [{"k": [0, 0, 0, 0], "cos": c} for c in cos]
        coeffs = {"12": [], "14": [], "23": [], "24": constant(-1), "34": []}
        reports = []
        for slot in (constant(1, -1.0, 1), constant(1)):
            form = write_json(tmp_path / "form.json", {"version": 1, "kind": "trigpoly2",
                                                       "coeffs": dict(coeffs, **{"13": slot})})
            assert main(["verify", omega_file, form, "--no-timestamp"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert '"wedge_square_resid": 0\n' in reports[0]


# --- the exit-code contract over drawn inputs --------------------------------


def _mostly(valid, near_miss):
    """Draws from ``valid`` seven times in eight, else from ``near_miss``."""
    return st.integers(0, 7).flatmap(lambda roll: near_miss if roll == 0 else valid)


# numbers that pass the schema (some overflow in arithmetic), and ones that do not
_numbers = _mostly(
    st.sampled_from([0, 1, -1, 3, 0.5, -0.25, 1e200, -1e200, 10 ** 300, -(10 ** 300)]),
    st.sampled_from([10 ** 400, math.nan, math.inf, -math.inf, True, "1", None]),
)
_frequencies = _mostly(
    st.one_of(st.lists(st.integers(-2, 2), min_size=4, max_size=4),
              st.sampled_from([[2 ** 70, 0, 0, 0], [10 ** 9, 0, 0, 0]])),
    st.sampled_from([[10 ** 400, 0, 0, 0], [1, 0, 0], [1.0, 0, 0, 0], [True, 0, 0, 0]]),
)
_mode_entries = _mostly(
    st.fixed_dictionaries({"k": _frequencies}, optional={"cos": _numbers, "sin": _numbers}),
    st.fixed_dictionaries({"k": _frequencies, "cso": _numbers}),
)
# one scale for both files of a call keeps a brane a brane
_scales = st.sampled_from([1, 1, 1, -1, 2, 0.5, 1e200, 10 ** 300])
_OMEGA0, _F0, _KAPPA = {"14": 1, "23": 1}, {"13": 1, "24": -1}, {"12": 1, "34": 1}
# a degenerate omega, and 2 F0, which is not a brane for omega0
_omegas = _mostly(st.just(_OMEGA0), st.just({"12": 1}))
_forms = _mostly(st.sampled_from([_F0, _KAPPA]), st.just({"13": 2, "24": -2}))
_flaw = _mostly(st.just(False), st.just(True))


@st.composite
def _envelope(draw, kind, coeffs, **extra):
    doc = {"version": 1, "kind": kind, "coeffs": coeffs, **extra}
    if draw(_flaw):  # a wrong version or kind
        doc[draw(st.sampled_from(["version", "kind"]))] = draw(
            st.sampled_from([True, 1.0, 2, "1", None, "class", "constant2"]))
    return doc


@st.composite
def _constant_doc(draw, pairs, scale):
    coeffs = dict(ZEROS, **{key: scale * c for key, c in draw(pairs).items()})
    if draw(_flaw):
        coeffs[draw(st.sampled_from(sorted(ZEROS)))] = draw(_numbers)
    return draw(_envelope("constant2", coeffs))


@st.composite
def _trig_doc(draw, scale):
    # a constant pair plus drawn modes, some slots empty, some modes twice
    coeffs = {key: [{"k": [0, 0, 0, 0], "cos": scale * c}] for key, c in draw(_forms).items()}
    for key in draw(st.lists(st.sampled_from(sorted(ZEROS)), max_size=3)):
        modes = draw(st.lists(_mode_entries, max_size=2))
        coeffs[key] = coeffs.get(key, []) + modes + modes[:draw(st.integers(0, 1))]
    return draw(_envelope("trigpoly2", {key: coeffs.get(key, []) for key in ZEROS}))


@st.composite
def _class_doc(draw, leading, scale):
    coeffs = [scale * c for c in leading] + [0] * (22 - len(leading))
    if draw(_flaw):
        coeffs[draw(st.integers(0, 21))] = draw(_numbers)
    return draw(_envelope("class", coeffs, space="k3"))


def _option(name, valid, out_of_range):
    """No value (the default), a value in range, or now and then one outside it."""
    return _mostly(st.sampled_from([None, *valid]), st.sampled_from(out_of_range)).map(
        lambda v: [] if v is None else [name, str(v)])


# --grid at most 6 (1,296 points), --samples and --sweep at most 3
_tol = _option("--tol", [0, 1e-9, 1e300], [-1, "nan", "inf", "x"])
_grid = _option("--grid", [1, 2, 6], [0, -1, "x"])
_seed = _option("--seed", [0, 5, 2 ** 70], [-1, "x"])
_count = lambda name: _option(name, [0, 1, 3], [-1, "x"])  # noqa: E731


@st.composite
def _calls(draw):
    """A command line as (argv head, input documents, options)."""
    scale = draw(_scales)
    omega, form = _constant_doc(_omegas, scale), _constant_doc(_forms, scale)
    head = draw(st.sampled_from(
        [["verify"], ["nijenhuis"], ["quadric"], ["metric"], ["metric", "--space", "k3"],
         ["example-torus"]]))
    if head == ["verify"]:
        docs, options = [omega, st.one_of(form, _trig_doc(scale))], [_grid, _tol]
    elif head == ["nijenhuis"]:
        docs = [omega, st.one_of(form, _trig_doc(scale))]
        options = [_grid, _tol, _option("--h", [1e-5, 1], [0, -1, "nan"])]
    elif head == ["quadric"]:
        docs, options = [omega, form], [_count("--samples"), _seed, _tol]
    elif head == ["metric"]:
        docs = [omega, form]
        options = [_count("--sweep"), _seed, _tol, _option("--theta", [-3, 1e300], ["nan", "inf"]),
                   _option("--ybar", ["1,0,0", "1e200,0,0"], ["1,2", "nan,0,0", "x"])]
    elif head == ["metric", "--space", "k3"]:
        docs = [_class_doc([1], scale), _class_doc([0, 1], scale)]
        options = [_count("--sweep"), _seed, _tol]
    else:
        docs, options = [], [_grid, _tol]
    return head, [draw(doc) for doc in docs], [part for opt in options for part in draw(opt)]


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-finite literal {name}")

    return json.loads(text, parse_constant=refuse)


class TestExitCodeContract:
    @settings(max_examples=200)
    @given(call=_calls())
    def test_every_input_exits_0_1_or_2(self, call):
        head, docs, options = call
        with tempfile.TemporaryDirectory() as tmp:
            files = [write_json(Path(tmp, f"in{i}.json"), doc) for i, doc in enumerate(docs)]
            out = Path(tmp, "report.out")
            argv = head[:1] + files + head[1:] + options + ["--no-timestamp", "--out", str(out)]
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main(argv)
            assert code in (0, 1, 2)
            if code == 2:
                assert not out.exists()
                assert "error:" in err.getvalue().splitlines()[-1]
            elif head[0] == "metric":
                rows = list(csv.reader(io.StringIO(out.read_text())))
                assert all(math.isfinite(float(v)) for row in rows[1:] for v in row)
            else:
                assert _strict_json(out.read_text())["command"] == head[0]


def _sweep_argv(sweep, omega_file, f0_file):
    """Ten samples, three chunks of at most four, of the command that runs ``sweep``."""
    if sweep == "quadric_sweep":
        return ["quadric", omega_file, f0_file, "--samples", "10"]
    return ["metric", omega_file, f0_file, "--sweep", "10"]


class TestMidSweepFailure:
    """A sweep that fails in its second chunk exits 2 and writes nothing:
    no report text leaves before every chunk has succeeded."""

    def failing_runs(self, tmp_path, argv, capsys, second_chunk_fails):
        """Run ``argv`` to ``--out`` and to stdout, each run with a fresh
        ``second_chunk_fails()`` in place, and check both."""
        out = tmp_path / "report.out"
        old = b"an older report\n" * 1000
        out.write_bytes(old)
        for target in (["--out", str(out)], []):
            calls = second_chunk_fails()
            assert main(argv + ["--no-timestamp"] + target) == 2
            assert len(calls) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:")
        assert out.read_bytes() == old

    @pytest.mark.parametrize("name, exc", [("quadric_sweep", NotInQuadric("off the quadric")),
                                           ("metric_sweep", NonFiniteMatrix("not finite"))])
    def test_a_sweep_that_raises(self, tmp_path, omega_file, f0_file, monkeypatch, capsys,
                                 name, exc):
        monkeypatch.setattr(cli, "CHUNK_SAMPLES", 4)
        sweep = getattr(cli, name)

        def second_chunk_fails():
            calls = []

            def failing(*args, **kw):
                calls.append(1)
                if len(calls) == 2:
                    raise exc
                return sweep(*args, **kw)

            monkeypatch.setattr(cli, name, failing)
            return calls

        self.failing_runs(tmp_path, _sweep_argv(name, omega_file, f0_file), capsys,
                          second_chunk_fails)

    @pytest.mark.parametrize("name", ["quadric_sweep", "metric_sweep"])
    def test_a_spool_that_fills(self, tmp_path, omega_file, f0_file, monkeypatch, capsys, name):
        monkeypatch.setattr(cli, "CHUNK_SAMPLES", 4)
        sweep = getattr(cli, name)

        def second_chunk_fails():
            calls = []

            def counted(*args, **kw):
                calls.append(1)
                return sweep(*args, **kw)

            class FullSpool(io.StringIO):
                """A spool whose disk is full from the second chunk on."""

                def write(self, text):
                    if len(calls) == 2:
                        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                    return super().write(text)

                def writelines(self, lines):
                    for line in lines:
                        self.write(line)

            monkeypatch.setattr(cli, name, counted)
            monkeypatch.setattr(cli, "tempfile", argparse.Namespace(
                SpooledTemporaryFile=lambda *args, **kw: FullSpool()))
            return calls

        self.failing_runs(tmp_path, _sweep_argv(name, omega_file, f0_file), capsys,
                          second_chunk_fails)
