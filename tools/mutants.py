"""Report which one-line edits of the verdict code the tests catch.

Each entry of ``MUTANTS`` is one edit: a file, a text that occurs in it
exactly once, and the text that replaces it (a wrong factor, unit or
degree, a comparison made strict or non-strict, a NaN rule dropped).  For each edit the
tool copies the tree to a temporary directory, applies the edit to the
copy, runs the tests there, and prints one line: ``killed`` when the tests
fail, ``survived`` when they pass, ``n/a`` when the old text does not occur
exactly once in that tree.  The tree it reads is never written.

It is a report, not a gate: with the whole of tier-1 each surviving edit
costs a full run.  An edit that survives needs a test, or a reason why no
input can tell it apart (an equivalent mutant).

Run from the repository root, for example::

    python tools/mutants.py
    python tools/mutants.py --only orth-factor tests/test_verdict_boundaries.py
    python tools/mutants.py --tree ../other-checkout
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the tree's root
    old: str
    new: str


BRANE = "src/branekit/brane_check.py"
TORUS = "src/branekit/torus_forms.py"
EXTERIOR = "src/branekit/exterior4.py"
CLI = "src/branekit/cli.py"
PERIOD = "src/branekit/period_domain.py"

MUTANTS = (
    Mutant("fold-nan-peaks", TORUS,
           "peaks = [b if b > a or b != b else a for", "peaks = [b if b > a else a for"),
    Mutant("fold-nan-lows", TORUS,
           "lows = [b if b < a or b != b else a for", "lows = [b if b < a else a for"),
    Mutant("guard-floor", TORUS, "bound = max(tol, 1e-9)", "bound = max(tol, 1e-6)"),
    Mutant("orth-factor", BRANE,
           "(r_orth <= tol_bound(tol, u, 2))", "(r_orth <= 2 * tol_bound(tol, u, 2))"),
    Mutant("hol-imag-factor", BRANE,
           "re_im <= tol_bound(tol, u, 2)", "re_im <= 2 * tol_bound(tol, u, 2)"),
    Mutant("closed-unit", BRANE,
           "(r_closed <= tol_bound(tol, u, 1))", "(r_closed <= tol_bound(tol, u, 2))"),
    Mutant("positivity-strict", BRANE,
           "lows[0] > tol_bound(tol, u, 2)", "lows[0] >= tol_bound(tol, u, 2)"),
    Mutant("orientation-strict", BRANE, "bool(lows[1] > 0)", "bool(lows[1] >= 0)"),
    Mutant("omega-strict", EXTERIOR, "if not ratio > tol:", "if not ratio >= tol:"),
    Mutant("pencil-c-not-2c", TORUS, "exact_div(2 * w_fo, w_oo)", "exact_div(w_fo, w_oo)"),
    Mutant("pencil-signed-1-r", TORUS,
           "np.maximum(np.abs(two_c), np.abs(diag))", "np.maximum(np.abs(two_c), diag)"),
    Mutant("pencil-fmax", TORUS,
           "np.maximum(np.abs(two_c), np.abs(diag))", "np.fmax(np.abs(two_c), np.abs(diag))"),
    Mutant("square-factor", BRANE,
           "((r_sq <= tol_bound(tol, u, 2))", "((r_sq <= 2 * tol_bound(tol, u, 2))"),
    Mutant("hol-real-factor", BRANE,
           "re_sq <= tol_bound(tol, u, 2)", "re_sq <= 2 * tol_bound(tol, u, 2)"),
    Mutant("hol-closed-unit", BRANE,
           "closed_resid <= tol_bound(tol, u, 1)", "closed_resid <= tol_bound(tol, u, 2)"),
    Mutant("deform-unit", BRANE,
           "bound = tol_bound(tol, omega_unit(omega), 1)",
           "bound = tol_bound(tol, omega_unit(omega), 2)"),
    Mutant("deform-closed-strict", BRANE,
           "if _closedness_resid(alpha) > bound:", "if _closedness_resid(alpha) >= bound:"),
    Mutant("deform-type-strict", BRANE, "<= bound)  # NaN fails", "< bound)  # NaN fails"),
    # a wrong degree at each degree-2 site, and wrong scalings inside the one bound
    Mutant("square-degree", BRANE,
           "((r_sq <= tol_bound(tol, u, 2))", "((r_sq <= tol_bound(tol, u, 1))"),
    Mutant("orth-degree", BRANE,
           "(r_orth <= tol_bound(tol, u, 2))", "(r_orth <= tol_bound(tol, u, 1))"),
    Mutant("hol-real-degree", BRANE,
           "re_sq <= tol_bound(tol, u, 2)", "re_sq <= tol_bound(tol, u, 1)"),
    Mutant("hol-imag-degree", BRANE,
           "re_im <= tol_bound(tol, u, 2)", "re_im <= tol_bound(tol, u, 1)"),
    Mutant("bound-factor", EXTERIOR, "2: tol * u}", "2: 2 * tol * u}"),
    Mutant("bound-pow", EXTERIOR, "1: tol * math.sqrt(u)", "1: tol * u ** 0.5"),
    # nijenhuis's flat_tol and quadric_contains
    Mutant("flat-unit", CLI,
           "(max_df <= tol_bound(flat_tol, u, 1))", "(max_df <= tol_bound(flat_tol, u, 2))"),
    Mutant("flat-defect-strict", CLI,
           "(max_defect <= tol_bound(flat_tol, u, 0))",
           "(max_defect < tol_bound(flat_tol, u, 0))"),
    Mutant("flat-defect-degree", CLI,
           "(max_defect <= tol_bound(flat_tol, u, 0))",
           "(max_defect <= tol_bound(flat_tol, u, 1))"),
    Mutant("quadric-factor", PERIOD,
           "tol_bound(tol, abs(float(s)) / 2, 2)", "tol_bound(tol, abs(float(s)), 2)"),
    Mutant("quadric-orth-strict", PERIOD,
           "(abs(c.pair(q.omega)) <= bound)", "(abs(c.pair(q.omega)) < bound)"),
    Mutant("quadric-sq-strict", PERIOD,
           "(abs(c.pair(c) - s) <= bound)", "(abs(c.pair(c) - s) < bound)"),
    # a quadric run's verdict folds every chunk's samples
    Mutant("chunk-last-pass", CLI, "all_pass = all_pass and all(", "all_pass = all("),
)

#: what a copy of the tree leaves out
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                               ".bench_*", ".benchmarks", "*.egg-info")


def run(mutant: Mutant, tree: Path, tests) -> str:
    """``killed``, ``survived`` or ``n/a`` for one edit, applied to a copy of
    ``tree`` and tested there with pytest on ``tests`` (tier-1 when empty)."""
    source = (tree / mutant.path).read_text(encoding="utf-8")
    if source.count(mutant.old) != 1:
        return "n/a"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(tree, copy, ignore=_SKIP)
        (copy / mutant.path).write_text(source.replace(mutant.old, mutant.new),
                                        encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        # the check that the edits still land would fail on every mutant
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--ignore=tests/test_mutants.py", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # pytest exits 1 on a failed test and 2 on an error in collection
    return {0: "survived", 1: "killed", 2: "killed"}.get(done.returncode,
                                                          f"error (exit {done.returncode})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tests", nargs="*", help="test paths or ids (default: tier-1)")
    parser.add_argument("--tree", type=Path, default=ROOT, help="the tree to copy")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="run this edit only (may be repeated)")
    args = parser.parse_args(argv)
    names = {m.name for m in MUTANTS}
    unknown = set(args.only or ()) - names
    if unknown:
        parser.error(f"unknown edits: {', '.join(sorted(unknown))}")
    for mutant in MUTANTS:
        if args.only is None or mutant.name in args.only:
            print(f"{run(mutant, args.tree.resolve(), args.tests):<9} {mutant.name:<21} "
                  f"{mutant.path}: {mutant.old!r} -> {mutant.new!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
