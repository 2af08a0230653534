"""Self-test of the benchmark; not part of the program's test suite.

    python3 -m pytest -q benchmarks/test_bench.py

Runs a tiny version of every workload (two-entry pool, two timed jobs) and
checks that every metric named in BENCHMARK.json is emitted with its unit,
that no job fails, and that every count metric repeats exactly across two
traced runs with the same seed and across a run with another seed (other
variants of the same classes, which must do the same work).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from workloads import WORKLOADS, mismatches

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

COUNT_METRICS = [m["name"] for m in SPEC["per_layer"]
                 if m["name"].endswith(".calls")
                 or m["name"] in ("torus_forms.grid_points", "torus_forms.eval_grid.mode_points",
                                  "period_domain.pairs_per_chart")]


def _run(workload, trace, seed=3, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "benchmarks", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics(workload):
    result = _result(_run(workload, trace=0))
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _other_seed(workload, seed):
    """A seed whose tiny pool holds another variant of every class."""
    pool = WORKLOADS[workload].pool(seed, 2)
    return next(s for s in range(seed + 1, seed + 1000)
                if all(a != b for a, b in zip(WORKLOADS[workload].pool(s, 2), pool)))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_metrics_and_repeatable_counts(workload):
    first, second = (_result(_run(workload, trace=1)) for _ in range(2))
    other = _result(_run(workload, trace=1, seed=_other_seed(workload, 3)))
    _assert_metrics(first, SPEC["per_layer"])
    assert first["metrics"]["failed_frac"]["value"] == 0
    for name in COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
        # other variants of the same classes do the same work
        assert first["metrics"][name]["value"] == other["metrics"][name]["value"], name


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_reference_check_catches_wrong_outputs():
    ref = {"pass": True, "grid": 8, "max_defect": 1.0, "rows": [0.0, 2.0]}
    assert not list(mismatches(ref, dict(ref, extra="new field")))
    assert not list(mismatches(ref, dict(ref, max_defect=1.0 + 1e-11)))
    assert list(mismatches(ref, dict(ref, max_defect=1.0 + 1e-5)))
    assert list(mismatches(ref, dict(ref, rows=[1e-5, 2.0])))
    assert list(mismatches(ref, dict(ref, **{"pass": False})))
    assert list(mismatches(ref, {k: v for k, v in ref.items() if k != "grid"}))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("deform-period", trace=0, root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
