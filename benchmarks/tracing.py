"""Outside-in spans around the program's layers.

``install`` replaces each traced public function of ``branekit`` by a
wrapper in every ``branekit.*`` namespace that holds the same function
object, and each traced method on its class.  Nothing under ``src/``
changes; an untraced process never calls ``install``.  Spans stay in
memory until ``Tracer.write`` and ``Tracer.layer_metrics`` read them.

A layer is a module of the program.  A span's self time is its duration
minus the time its direct child spans cover; a layer's self time is the
sum over its spans.
"""

import functools
import importlib
import sys
import time

#: (module, public name) of every traced function; "Class.method" names a
#: method.  The module is the span's layer.
TRACED = (
    ("cli", "main"),
    ("brane_check", "verify_brane"),
    ("brane_check", "verify_holomorphic_symplectic"),
    ("brane_check", "linearized_deformation_check"),
    ("brane_check", "deformation_residuals"),
    ("torus_forms", "nijenhuis_defect"),
    ("torus_forms", "integrability_identity_residual"),
    ("torus_forms", "exterior_d"),
    ("torus_forms", "uniform_grid"),
    ("torus_forms", "TrigPolyFn.eval"),
    ("torus_forms", "TrigPolyFn.eval_grid"),
    ("exterior4", "type_projectors"),
    ("exterior4", "compose_i"),
    ("exterior4", "wedge22"),
    ("cohomology", "CohClass.pair"),
    ("cohomology", "indefinite_gram_schmidt"),
    ("period_domain", "build_chart"),
    ("period_domain", "metric_at"),
    ("period_domain", "reconstruct_brane"),
)

LAYERS = ("cli", "brane_check", "torus_forms", "exterior4", "cohomology", "period_domain")


def _grid_arg(default):
    def work(args, kwargs):
        n = kwargs.get("grid", args[2] if len(args) > 2 else default)
        return n ** 4
    return work


#: work counted per call, for the spans that have a natural size
WORK = {
    "torus_forms.uniform_grid": lambda args, kwargs: args[0] ** 4,
    "torus_forms.eval_grid": lambda args, kwargs: len(args[0].modes) * len(args[1]),
    "torus_forms.nijenhuis_defect": _grid_arg(8),
}


def _span_name(module, name):
    return f"{module}.{name.rsplit('.', 1)[-1]}"


class Tracer:
    """Records spans (name, start, end, parent, job, work) in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1

    def wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                      work(args, kwargs) if work else 0]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    def span(self, name, fn, *args):
        """Run fn(*args) under a span recorded by the benchmark itself."""
        return self.wrap(fn, name)(*args)

    def install(self):
        """Wrap every TRACED name wherever the program binds it."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "branekit" or n.startswith("branekit.")]
        for module, name in TRACED:
            mod = importlib.import_module(f"branekit.{module}")
            span_name = _span_name(module, name)
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, attr, self.wrap(cls.__dict__[attr], span_name))
                continue
            original = getattr(mod, name)
            wrapper = self.wrap(original, span_name)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)

    def self_times(self):
        """Self time of every span, in seconds."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, jobs):
        """Per-job means of the layer metrics over spans of ``jobs`` jobs."""
        totals = {}

        def add(key, value):
            totals[key] = totals.get(key, 0.0) + value

        for (name, _, _, _, job, work), own in zip(self.spans, self.self_times()):
            if job < 0 or name == "job":
                continue
            layer = name.split(".", 1)[0]
            add(f"{layer}.self_ms", own * 1e3)
            add(f"{name}.self_ms", own * 1e3)
            add(f"{name}.calls", 1)
            add(f"{name}.work", work)
        per_job = {key: value / jobs for key, value in totals.items()}

        def get(key):
            return per_job.get(key, 0.0)

        def rate(work, ms):
            return work / ms if ms > 0 else 0.0

        metrics = {f"{layer}.self_ms": (get(f"{layer}.self_ms"), "ms") for layer in LAYERS}
        metrics["cli.calls"] = (get("cli.main.calls"), "count")
        for key in (
            "brane_check.verify_brane", "brane_check.verify_holomorphic_symplectic",
            "brane_check.linearized_deformation_check", "brane_check.deformation_residuals",
            "torus_forms.nijenhuis_defect", "torus_forms.integrability_identity_residual",
            "torus_forms.eval_grid", "torus_forms.eval", "torus_forms.exterior_d",
            "exterior4.type_projectors", "exterior4.compose_i",
            "cohomology.pair", "cohomology.indefinite_gram_schmidt",
            "period_domain.build_chart", "period_domain.metric_at",
            "period_domain.reconstruct_brane",
        ):
            metrics[f"{key}.self_ms"] = (get(f"{key}.self_ms"), "ms")
        for key in (
            "torus_forms.eval", "exterior4.type_projectors", "exterior4.compose_i",
            "exterior4.wedge22", "cohomology.pair", "period_domain.build_chart",
            "period_domain.metric_at",
        ):
            metrics[f"{key}.calls"] = (get(f"{key}.calls"), "count")
        metrics["torus_forms.grid_points"] = (get("torus_forms.uniform_grid.work"), "count")
        metrics["torus_forms.eval_grid.mode_points"] = (
            get("torus_forms.eval_grid.work"), "count")
        metrics["torus_forms.eval_grid.mode_points_per_ms"] = (
            rate(get("torus_forms.eval_grid.work"), get("torus_forms.eval_grid.self_ms")),
            "points/ms")
        metrics["torus_forms.nijenhuis_defect.points_per_ms"] = (
            rate(get("torus_forms.nijenhuis_defect.work"),
                 get("torus_forms.nijenhuis_defect.self_ms")),
            "points/ms")
        metrics["period_domain.pairs_per_chart"] = (
            rate(get("cohomology.pair.calls"), get("period_domain.build_chart.calls")),
            "pairs/chart")
        return metrics

    def write(self, path):
        """Write the spans as tab-separated lines, times in microseconds."""
        with open(path, "w") as fh:
            fh.write("index\tjob\tparent\tname\tstart_us\tend_us\twork\n")
            for i, (name, start, end, parent, job, work) in enumerate(self.spans):
                fh.write(f"{i}\t{job}\t{parent}\t{name}\t{start * 1e6:.1f}\t"
                         f"{end * 1e6:.1f}\t{work}\n")
