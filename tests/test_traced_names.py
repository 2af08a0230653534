"""The benchmark's span list stays in step with the program: a traced name
that no longer resolves breaks every ``--trace 1`` run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module, name", _traced())
def test_traced_name_resolves(module, name):
    target = importlib.import_module(f"branekit.{module}")
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)
