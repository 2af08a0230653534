"""The branekit benchmark.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload torus-grid --seed 1 --seconds 30 --trace 0

Each workload is a single-process closed loop with one client: the next job
starts only when the last one has returned and its outputs were checked.
The program is imported from ``src/`` of the checkout that holds this file.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over ``SETUP_PROBES`` fresh processes of the time from
  process start until the first timed job may start (interpreter start,
  ``import branekit``, writing the seeded inputs, one warm-up job);
* ``job_p90_ms``: 90th percentile of job wall time; a run holds at least
  ``MIN_JOBS`` timed jobs, so at least ten samples lie beyond it;
* ``peak_rss_mb``: the process's peak resident memory at the end.

The median job time (``job_p50_ms``) and the throughput (``jobs_per_s``,
timed jobs per wall-clock second of the loop) go to the provenance line
only.  On a shared host whose speed switches between a fast and a slow
state for seconds to minutes, the median of a run follows whichever state
held it longer and the throughput follows the share of each, so both move
with the host from run to run; the 90th percentile stays with the slow
state unless nine tenths of the run were fast.

``--trace 1`` first runs the loop untraced for half the time, then wraps
each layer's public functions (see ``tracing.py``) and runs whole cycles of
the job pool for the other half; it reports per-job means of the layer
metrics, ``trace_overhead_frac`` and ``failed_frac``, and writes the spans
to ``.bench_out/``.

A job fails when it raises, when an exit code or verdict differs from what
its construction guarantees, or when a reported number differs from the
reference in ``refs/`` (see ``workloads.py``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records provenance.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_JOBS = 100
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
READY = "setup-ready"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="branekit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="two-entry pool, two jobs, one setup probe (for the self-test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program():
    """Import branekit from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "branekit", "__init__.py")):
        raise SystemExit(f"error: no program source at {SRC}/branekit")
    sys.path.insert(0, SRC)
    import branekit

    if os.path.dirname(os.path.abspath(branekit.__file__)) != os.path.join(SRC, "branekit"):
        raise SystemExit(f"error: branekit was imported from {branekit.__file__}")
    return branekit


class Bench:
    """One workload's job pool, prepared in a temporary work directory."""

    def __init__(self, workload, seed, tiny):
        from workloads import WORKLOADS

        if workload not in WORKLOADS:
            raise SystemExit(f"error: unknown workload {workload!r}; "
                             f"choose from {sorted(WORKLOADS)}")
        self.workload = WORKLOADS[workload]
        self.indices = self.workload.pool(seed, 2 if tiny else None)
        work_root = os.path.join(ROOT, ".bench_work")
        os.makedirs(work_root, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
        self.specs, self.jobs = [], []
        for n, i in enumerate(self.indices):
            spec = self.workload.spec(i)
            jobdir = os.path.join(self.workdir, str(n))
            os.mkdir(jobdir)
            self.specs.append(spec)
            self.jobs.append(self.workload.prepare(spec, jobdir))
        with open(os.path.join(HERE, "refs", f"{workload}.json")) as fh:
            entries = json.load(fh)["entries"]
        self.refs = {i: entries[i] for i in self.indices}
        self.attempted = 0
        self.failed = 0

    def run_job(self, n, runner=None):
        """Run and check job ``n`` of the cycle; returns its wall time in s."""
        from workloads import check

        k = n % len(self.jobs)
        job = self.jobs[k]
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = runner(job) if runner else self.workload.run(job)
        except Exception:
            elapsed = time.perf_counter() - start
            self._fail(n, traceback.format_exc(limit=3).splitlines())
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            problems = check(self.workload, self.specs[k],
                             self.workload.outputs(job, result), self.refs[self.indices[k]])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            self._fail(n, problems)
        return elapsed

    def _fail(self, n, problems):
        self.failed += 1
        if self.failed <= 3:
            print(f"job {n} ({self.workload.name} entry {self.indices[n % len(self.jobs)]}) "
                  f"failed: " + "; ".join(problems[:5]), file=sys.stderr)

    def loop(self, seconds, min_jobs, first, whole_cycles=False, runner=None):
        """Closed loop from job ``first`` until ``seconds`` have passed and at
        least ``min_jobs`` jobs ran (and, if asked, the pool's last cycle is
        complete).  Returns (job wall times, loop wall time)."""
        times = []
        start = time.perf_counter()
        n = first
        while True:
            times.append(self.run_job(n, runner))
            n += 1
            if (time.perf_counter() - start >= seconds and len(times) >= min_jobs
                    and not (whole_cycles and (n - first) % len(self.jobs))):
                break
        return times, time.perf_counter() - start

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _setup(args):
    """Everything before the first timed job: import, inputs, warm-up."""
    _import_program()
    bench = Bench(args.workload, args.seed, args.tiny)
    bench.run_job(0)
    return bench


def _probe_setup(args, probes):
    """Median setup time over fresh processes, each timed from its start
    until it reports that its warm-up job is done."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.tiny:
        argv.append("--tiny")
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != READY or proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed (exit {proc.returncode})")
        samples.append(elapsed)
    return samples


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "branekit")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _provenance(args, bench, extra):
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "pool": bench.indices, **extra,
    }


def _timed(args):
    bench = _setup(args)
    try:
        setup = _probe_setup(args, 1 if args.tiny else SETUP_PROBES)
        times, wall = bench.loop(args.seconds, 2 if args.tiny else MIN_JOBS, first=1)
    finally:
        bench.close()
    ms = [t * 1e3 for t in times]
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "job_p90_ms": (deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    beyond_p90 = sum(1 for v in ms if v > deciles[8])
    return bench, metrics, {"timed_jobs": len(times), "loop_s": wall,
                            "jobs_per_s": len(times) / wall, "job_p50_ms": deciles[4],
                            "p90_samples_beyond": beyond_p90,
                            "setup_samples_s": setup}


def _traced(args):
    from tracing import Tracer

    bench = _setup(args)
    tracer = Tracer()
    try:
        min_jobs = 2 if args.tiny else 10
        plain, plain_wall = bench.loop(args.seconds / 2, min_jobs, first=1)
        tracer.install()

        def runner(job):
            tracer.job += 1
            return tracer.span("job", bench.workload.run, job)

        traced, traced_wall = bench.loop(args.seconds / 2, len(bench.jobs), first=1,
                                         whole_cycles=True, runner=runner)
    finally:
        bench.close()
    metrics = tracer.layer_metrics(len(traced))
    plain_rate, traced_rate = len(plain) / plain_wall, len(traced) / traced_wall
    metrics["trace_overhead_frac"] = (plain_rate / traced_rate - 1, "ratio")
    metrics["failed_frac"] = (bench.failed / bench.attempted, "ratio")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv")
    tracer.write(spans_path)
    return bench, metrics, {"untraced_jobs": len(plain), "traced_jobs": len(traced),
                            "spans": len(tracer.spans),
                            "spans_file": os.path.relpath(spans_path, ROOT)}


def main(argv=None):
    args = _parse_args(argv)
    sys.path.insert(0, HERE)
    if args.setup_probe:
        _setup(args).close()
        print(READY, flush=True)
        return 0
    bench, metrics, extra = (_traced if args.trace else _timed)(args)
    print(json.dumps({"provenance": _provenance(args, bench, extra)}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
