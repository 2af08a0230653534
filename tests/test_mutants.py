"""The edits of ``tools/mutants.py`` stay in step with the source: each old
text occurs exactly once in its file, so every edit still lands where it
was written.  No edit is applied and no mutant is run here."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mutants.py"


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


@pytest.mark.parametrize("mutant", _mutants(), ids=lambda m: m.name)
def test_edit_lands_once(mutant):
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_names_are_unique():
    names = [m.name for m in _mutants()]
    assert len(set(names)) == len(names)
