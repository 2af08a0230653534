"""Record the reference outputs of every catalogue entry.

    python3 benchmarks/make_refs.py [workload ...]

Runs each entry's job once against ``src/`` of this checkout, refuses an
entry whose outputs break what its construction guarantees, and writes
``refs/<workload>.json``.  The references in the repository were recorded
at the commit that introduced the benchmark; later program changes are
checked against them, so do not re-record them to make a run pass.
"""

import json
import os
import sys
import tempfile

from run import HERE, ROOT, _import_program
from workloads import WORKLOADS

#: significant digits kept; far finer than workloads.REL_TOL
DIGITS = 10


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.{DIGITS}g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def record(workload):
    entries = []
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as workdir:
        for i in range(workload.catalogue_size):
            spec = workload.spec(i)
            jobdir = os.path.join(workdir, str(i))
            os.mkdir(jobdir)
            job = workload.prepare(spec, jobdir)
            out = workload.outputs(job, workload.run(job))
            problems = workload.expectations(spec, out)
            if problems:
                raise SystemExit(f"{workload.name} entry {i}: {problems}")
            entries.append(_rounded(out))
    path = os.path.join(HERE, "refs", f"{workload.name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "entries": entries}, fh,
                  separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"{path}: {len(entries)} entries")


def main(names):
    _import_program()
    for name in names or sorted(WORKLOADS):
        record(WORKLOADS[name])


if __name__ == "__main__":
    main(sys.argv[1:])
