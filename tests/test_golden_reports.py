"""Byte identity of the CLI reports on the bundled fixtures.

Every run below is made with ``--no-timestamp`` and its output compared
byte for byte with ``tests/golden/<name>.<ext>``.  The goldens were
recorded from commit 43717f0.  The absolute paths of the input files,
which appear in the ``"inputs"`` block of the JSON reports, are replaced
by ``<data>/`` (bundled fixtures) and ``<tmp>/`` (files written here)
before the comparison.

A change that alters a report on purpose re-records the goldens with
``python tests/test_golden_reports.py`` and shows the diff in review.
"""

import json
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from branekit.cli import main

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(str(resources.files("branekit").joinpath("data")))

# a boosted K3 pair: omega^2 = base^2 = 1, omega.base = 0
K3_CLASSES = {
    "k3_omega.json": [1, 2, 0, 0, 0, 2] + [0] * 16,
    "k3_base.json": [-2, -1, 0, 0, 0, -2] + [0] * 16,
}

#: name -> (argv with bare file names, expected exit code)
RUNS = {
    "verify_f0": (["verify", "omega0.json", "f0.json"], 0),
    "verify_kappa": (["verify", "omega0.json", "kappa.json"], 0),
    "verify_rotation": (["verify", "omega0.json", "rotation_k1000.json"], 1),
    "verify_rotation_grid16": (
        ["verify", "omega0.json", "rotation_k1000.json", "--grid", "16"], 1),
    "nijenhuis_rotation": (["nijenhuis", "omega0.json", "rotation_k1000.json"], 0),
    "nijenhuis_f0": (["nijenhuis", "omega0.json", "f0.json"], 0),
    "example_torus": (["example-torus"], 0),
    "quadric": (["quadric", "omega0.json", "f0.json", "--samples", "20", "--seed", "7"], 0),
    "metric_sweep": (["metric", "omega0.json", "f0.json", "--sweep", "20", "--seed", "3"], 0),
    "metric_ybar": (["metric", "omega0.json", "f0.json", "--ybar", "1,0,0"], 0),
    "metric_k3_sweep": (
        ["metric", "k3_omega.json", "k3_base.json", "--space", "k3",
         "--sweep", "10", "--seed", "3"], 0),
}


def _golden_path(name):
    ext = "csv" if RUNS[name][0][0] == "metric" else "json"
    return GOLDEN / f"{name}.{ext}"


def _report(name, work: Path):
    """(exit code, normalised output text) of one run, made in ``work``."""
    argv, _ = RUNS[name]
    resolved = []
    for arg in argv:
        if arg in K3_CLASSES:
            path = work / arg
            doc = {"version": 1, "kind": "class", "space": "k3", "coeffs": K3_CLASSES[arg]}
            path.write_text(json.dumps(doc) + "\n")
            arg = str(path)
        elif arg.endswith(".json"):
            arg = str(DATA / arg)
        resolved.append(arg)
    out = work / f"{name}.out"
    code = main(resolved + ["--no-timestamp", "--out", str(out)])
    text = out.read_text()
    text = text.replace(f"{DATA}/", "<data>/").replace(f"{work}/", "<tmp>/")
    return code, text


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(name, tmp_path):
    code, text = _report(name, tmp_path)
    assert code == RUNS[name][1]
    assert text.encode() == _golden_path(name).read_bytes()


def _record():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(RUNS):
            _, text = _report(name, Path(tmp))
            _golden_path(name).write_bytes(text.encode())


if __name__ == "__main__":
    _record()
