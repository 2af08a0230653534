"""Seeded inputs, jobs and output checks for the benchmark workloads.

Every workload draws its inputs from a fixed catalogue, so the references
recorded for each entry in ``refs/<workload>.json`` stay valid for every
run.  The catalogue has ``n_classes`` classes of ``variants`` entries each;
entry ``i`` is variant ``i // n_classes`` of class ``i % n_classes``.  A
class fixes the shape of the work (for torus-grid: whether the pair is the
passing ``k = 0`` one, its Fourier modes and the nonzero slots of its
forms); its variants are the same inputs relabelled by a signed permutation
of the torus coordinates (det +1), or drawn with other sampling seeds.  A
relabelling permutes the uniform grid onto itself, so every variant of a
class does the same work on different numbers.

The ``--seed`` of a run picks one variant of every class; the pool holds the
classes in class order.  The make-up and the cost of a pool therefore do
not depend on the seed, only its inputs do.  The program under test
receives only the generated JSON files and, where a layer has no CLI
command, the objects built from them.
"""

import csv
import json
import os
import random
from fractions import Fraction

#: relative tolerance against the reference reports; loose enough for an
#: exact-derivative Nijenhuis engine (it differs from the finite-difference
#: value by about 1e-11)
REL_TOL = 1e-6

# the standard brane pair of the CLI fixtures, as coefficient 6-tuples in
# slot order (12, 13, 14, 23, 24, 34)
OMEGA0 = (0, 0, 1, 1, 0, 0)
F0 = (0, 1, 0, 0, -1, 0)
KAPPA = (1, 0, 0, 0, 0, 1)
SLOTS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
SLOT_KEYS = ("12", "13", "14", "23", "24", "34")

#: integer Lorentz boost preserving x^2 + y^2 - z^2
BOOST = ((1, -2, 2), (2, -1, 2), (2, -2, 3))


# --- exact 4x4 integer / rational linear algebra -----------------------------


def _matrix(coeffs):
    b = [[0] * 4 for _ in range(4)]
    for (a, c), v in zip(SLOTS, coeffs):
        b[a][c] = v
        b[c][a] = -v
    return b


def _matmul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def _transpose(x):
    return [list(r) for r in zip(*x)]


def _inverse(m):
    """Exact inverse by Gauss-Jordan elimination; None when singular."""
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(4)]
         for i, row in enumerate(m)]
    for col in range(4):
        piv = next((r for r in range(col, 4) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(4):
            if r != col and a[r][col] != 0:
                a[r] = [v - a[r][col] * w for v, w in zip(a[r], a[col])]
    return [row[4:] for row in a]


def _det(m):
    a = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for col in range(4):
        piv = next((r for r in range(col, 4) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, 4):
            f = a[r][col] / a[col][col]
            a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return det


def pullback(a, coeffs):
    """Coefficients of the pullback of a constant 2-form by x -> a x."""
    b = _matmul(_matmul(_transpose(a), _matrix(coeffs)), a)
    return tuple(b[i][j] for i, j in SLOTS)


def random_map(rng, dets):
    """A random integer 4x4 matrix, entries in {-1, 0, 1}, det in ``dets``."""
    while True:
        a = [[rng.randint(-1, 1) for _ in range(4)] for _ in range(4)]
        if _det(a) in dets:
            return a


def relabelling(variant):
    """The signed permutation matrix (det +1) of a catalogue variant; the
    identity for variant 0."""
    if variant == 0:
        return [[int(r == c) for c in range(4)] for r in range(4)]
    rng = random.Random(f"relabel/{variant}")
    while True:
        perm = rng.sample(range(4), 4)
        p = [[rng.choice((-1, 1)) if perm[r] == c else 0 for c in range(4)] for r in range(4)]
        if _det(p) == 1:
            return p


def random_freq(rng, bound):
    """A nonzero integer frequency with entries in [-bound, bound]."""
    while True:
        k = [rng.randint(-bound, bound) for _ in range(4)]
        if any(k):
            return k


# --- input files ---------------------------------------------------------------


def constant_doc(coeffs):
    return {"version": 1, "kind": "constant2",
            "coeffs": {key: v for key, v in zip(SLOT_KEYS, coeffs)}}


def trig_doc(slot_modes):
    """``slot_modes[s]`` is a list of (k, cos, sin) for slot s."""
    return {"version": 1, "kind": "trigpoly2",
            "coeffs": {key: [{"k": list(k), "cos": c, "sin": s} for k, c, s in modes]
                       for key, modes in zip(SLOT_KEYS, slot_modes)}}


def class_doc(coeffs):
    return {"version": 1, "kind": "class", "space": "k3", "coeffs": list(coeffs)}


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def trig_form(slot_modes):
    """The program's TrigPolyForm2 for the same modes as :func:`trig_doc`."""
    from branekit.torus_forms import TrigPolyFn, TrigPolyForm2

    fns = []
    for modes in slot_modes:
        fn = TrigPolyFn.zero()
        for k, c, s in modes:
            fn = fn + TrigPolyFn.mode(tuple(k), cos=c, sin=s)
        fns.append(fn)
    return TrigPolyForm2.from_fns(fns)


# --- reading and checking outputs ----------------------------------------------


def read_report(path):
    with open(path) as fh:
        report = json.load(fh)
    report.pop("inputs", None)
    return report


def read_csv_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


def mismatches(ref, got, path="$"):
    """Differences of ``got`` from the reference ``ref``.

    Numbers must agree within REL_TOL * max(1, |ref|), booleans exactly;
    strings are not compared (they hold paths).  Keys that ``got`` has and
    ``ref`` lacks are ignored, so reports may grow new fields.
    """
    if isinstance(ref, bool) or ref is None:
        if got is not ref:
            yield f"{path}: {got!r} != {ref!r}"
    elif isinstance(ref, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            yield f"{path}: {got!r} is not a number"
        elif not abs(got - ref) <= REL_TOL * max(1.0, abs(ref)):
            yield f"{path}: {got!r} differs from {ref!r}"
    elif isinstance(ref, dict):
        if not isinstance(got, dict):
            yield f"{path}: expected an object"
            return
        for key, value in ref.items():
            if key not in got:
                yield f"{path}.{key}: missing"
            else:
                yield from mismatches(value, got[key], f"{path}.{key}")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            yield f"{path}: expected a list of {len(ref)}"
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            yield from mismatches(r, g, f"{path}[{i}]")


def _exit_problem(name, code, want):
    return [] if code == want else [f"{name}: exit {code}, expected {want}"]


# --- workloads -----------------------------------------------------------------


class Part:
    """One kind of job: a class of seeded inputs and the work run on it.

    ``base(c)`` gives class c as plain data and ``variant(base, v)`` its
    variant v; ``prepare`` writes the input files into a directory and
    builds any objects the job needs; ``run`` is the timed work; ``outputs``
    reads what the work produced and ``expectations`` lists violations of
    what the construction guarantees.
    """

    name = ""

    def base(self, c):
        raise NotImplementedError

    def variant(self, base, v):
        raise NotImplementedError

    def prepare(self, spec, workdir):
        raise NotImplementedError

    def run(self, job):
        raise NotImplementedError

    def outputs(self, job, result):
        raise NotImplementedError

    def expectations(self, spec, out):
        raise NotImplementedError


class Workload(Part):
    """A catalogue of ``n_classes * variants`` entries and the job run on
    each of them."""

    n_classes = 8
    variants = 1

    @property
    def catalogue_size(self):
        return self.n_classes * self.variants

    def pool(self, seed, size=None):
        """Catalogue indices of the job pool for a seed, in loop order: one
        variant of each of the first ``size`` classes (default: all)."""
        rng = random.Random(seed)
        return [c + self.n_classes * rng.randrange(self.variants)
                for c in range(size or self.n_classes)]

    def spec(self, i):
        return self.variant(self.base(i % self.n_classes), i // self.n_classes)


def _cli(argv, out_path):
    from branekit import cli

    return cli.main(argv + ["--no-timestamp", "--out", out_path])


class TorusGrid(Workload):
    """Rotation-family pairs pulled back by integer maps, checked on grids.

    Class 0 has k = 0 (a constant brane, so verify passes exactly); the
    others have k in {-1, 0, 1}^4 nonzero.  Verify runs on grid 14 and
    nijenhuis on grid 10: larger grids would not leave 100 jobs in a run
    (one Nijenhuis call at grid 16 takes over a second).
    """

    name = "torus-grid"
    variants = 5
    verify_grid = 14
    nijenhuis_grid = 10

    def base(self, c):
        rng = random.Random(f"{self.name}/{c}")
        a = random_map(rng, range(1, 5))
        return {"closed": c == 0, "map": a,
                "k": [0, 0, 0, 0] if c == 0 else random_freq(rng, 1)}

    def variant(self, base, v):
        return dict(base, map=_matmul(base["map"], relabelling(v)))

    def prepare(self, spec, workdir):
        a, k = spec["map"], spec["k"]
        freq = [sum(a[r][c] * k[r] for r in range(4)) for c in range(4)]  # a^T k
        cos_part, sin_part = pullback(a, F0), pullback(a, KAPPA)
        slots = [[(freq, c, s)] if (c or s) else [] for c, s in zip(cos_part, sin_part)]
        omega_path = os.path.join(workdir, "omega.json")
        form_path = os.path.join(workdir, "form.json")
        write_json(omega_path, constant_doc(pullback(a, OMEGA0)))
        write_json(form_path, trig_doc(slots))
        return {"omega": omega_path, "form": form_path,
                "verify_out": os.path.join(workdir, "verify.json"),
                "nijenhuis_out": os.path.join(workdir, "nijenhuis.json")}

    def run(self, job):
        return (
            _cli(["verify", job["omega"], job["form"], "--grid", str(self.verify_grid)],
                 job["verify_out"]),
            _cli(["nijenhuis", job["omega"], job["form"],
                  "--grid", str(self.nijenhuis_grid)], job["nijenhuis_out"]),
        )

    def outputs(self, job, result):
        return {"verify": {"exit": result[0], "report": read_report(job["verify_out"])},
                "nijenhuis": {"exit": result[1],
                              "report": read_report(job["nijenhuis_out"])}}

    def expectations(self, spec, out):
        problems = _exit_problem("verify", out["verify"]["exit"], 0 if spec["closed"] else 1)
        problems += _exit_problem("nijenhuis", out["nijenhuis"]["exit"], 0)
        if out["nijenhuis"]["report"].get("integrable_iff_closed") is not True:
            problems.append("nijenhuis: integrable_iff_closed is not true")
        return problems


class Deformation(Part):
    """A constant brane pair and a closed (1,1) deformation of it.

    The pair is (omega0, F0) pulled back by a det-1 integer map, so
    I = omega^-1 F is an integer matrix.  phi has ``n_modes`` modes with
    |k_i| <= 2 and alpha = d(I^* d phi) = -sum_k phi_k (k ^ I^T k), exactly
    of type (1,1) for I, closed, with integer coefficients, so the
    linearized check walks every point of its grid.  A variant relabels the
    map and phi together (k -> P^T k), which pulls the whole construction
    back by P.
    """

    name = "deformation"
    n_modes = 8
    residual_grid = 8
    linearized_grid = 4
    verify_grid = 8

    def base(self, c):
        rng = random.Random(f"{self.name}/{c}")
        a = random_map(rng, (1,))
        seen, phi = set(), []
        while len(phi) < self.n_modes:
            k = random_freq(rng, 2)
            lead = next(v for v in k if v)
            canon = tuple(v if lead > 0 else -v for v in k)
            c, s = rng.randint(-2, 2), rng.randint(-2, 2)
            if canon in seen or (c == 0 and s == 0):
                continue
            seen.add(canon)
            phi.append((k, c, s))
        return {"map": a, "phi": phi}

    def variant(self, base, v):
        p = relabelling(v)
        phi = [([sum(p[r][j] * k[r] for r in range(4)) for j in range(4)], c, s)  # P^T k
               for k, c, s in base["phi"]]
        return {"map": _matmul(base["map"], p), "phi": phi}

    @staticmethod
    def complex_structure(a):
        """I = B_omega^-1 B_F for the pulled-back pair: a^-1 I0 a."""
        i0 = _matmul(_inverse(_matrix(OMEGA0)), _matrix(F0))
        i = _matmul(_matmul(_inverse(a), i0), a)
        assert all(v.denominator == 1 for row in i for v in row)
        return [[int(v) for v in row] for row in i]

    def deformation_modes(self, spec):
        i = self.complex_structure(spec["map"])
        slots = [[] for _ in SLOTS]
        for k, c, s in spec["phi"]:
            u = [sum(i[r][j] * k[r] for r in range(4)) for j in range(4)]  # I^T k
            for idx, (p, q) in enumerate(SLOTS):
                w = k[p] * u[q] - k[q] * u[p]
                if w:
                    slots[idx].append((k, -c * w, -s * w))
        return slots

    def prepare(self, spec, workdir):
        from branekit.exterior4 import Form2

        a = spec["map"]
        omega_c, f_c = pullback(a, OMEGA0), pullback(a, F0)
        alpha = self.deformation_modes(spec)
        deformed = [([((0, 0, 0, 0), fv, 0)] if fv else []) + modes
                    for fv, modes in zip(f_c, alpha)]
        omega_path = os.path.join(workdir, "omega.json")
        form_path = os.path.join(workdir, "deformed.json")
        write_json(omega_path, constant_doc(omega_c))
        write_json(form_path, trig_doc(deformed))
        return {"omega_form": Form2.from_coeffs(omega_c), "f_form": Form2.from_coeffs(f_c),
                "alpha": trig_form(alpha), "omega": omega_path, "form": form_path,
                "verify_out": os.path.join(workdir, "verify.json")}

    def run(self, job):
        from branekit.brane_check import deformation_residuals, linearized_deformation_check

        omega, f, alpha = job["omega_form"], job["f_form"], job["alpha"]
        residuals = deformation_residuals(omega, f, alpha, grid=self.residual_grid)
        linear_ok = linearized_deformation_check(omega, f, alpha, grid=self.linearized_grid)
        code = _cli(["verify", job["omega"], job["form"], "--grid", str(self.verify_grid)],
                    job["verify_out"])
        return residuals, linear_ok, code

    def outputs(self, job, result):
        residuals, linear_ok, code = result
        return {"deformation_residuals": [float(v) for v in residuals],
                "linearized_ok": linear_ok,
                "verify": {"exit": code, "report": read_report(job["verify_out"])}}

    def expectations(self, spec, out):
        problems = _exit_problem("verify", out["verify"]["exit"], 1)
        if out["linearized_ok"] is not True:
            problems.append("linearized_deformation_check is not True")
        return problems


class PeriodSweep(Part):
    """The period quadric of a T^4 pair and the K3 cylinder metric.

    The T^4 pair is (omega0, F0) pulled back by an integer map with det > 0.
    The K3 classes (omega, base) are the axis pair (e1, e2) moved off the
    axes by BOOST acting on two positive coordinates and one negative
    coordinate n; an axis-aligned base would build its chart several times
    faster and hide the cohomology cost.  The boost acts in the (e1, e2)
    plane: pairing e3 with e1 or e2 instead makes the chart search about
    five times longer.  Both charts come from a greedy search over an
    ordered candidate list, so a relabelling would change their work; a
    variant draws other sampling seeds for the quadric and the metric sweep
    instead, which changes the sampled points and not their number.
    """

    name = "period"
    samples = 30
    sweep = 30

    def base(self, c):
        rng = random.Random(f"{self.name}/{c}")
        return {"map": random_map(rng, range(1, 5)),
                "boost_coords": rng.choice(((0, 1), (1, 0))) + (rng.randrange(3, 22),)}

    def variant(self, base, v):
        rng = random.Random(f"{self.name}/{base['map']}/{base['boost_coords']}/{v}")
        return dict(base, quadric_seed=rng.randrange(2**31), metric_seed=rng.randrange(2**31))

    @staticmethod
    def k3_classes(coords):
        """BOOST applied to e1 and e2, the boost acting on ``coords``."""
        out = []
        for axis in (0, 1):
            v = [0] * 22
            v[axis] = 1
            moved = list(v)
            for r, cr in enumerate(coords):
                moved[cr] = sum(BOOST[r][c] * v[cc] for c, cc in enumerate(coords))
            out.append(moved)
        return out

    def prepare(self, spec, workdir):
        a = spec["map"]
        k3_omega, k3_base = self.k3_classes(spec["boost_coords"])
        job = {name: os.path.join(workdir, name) for name in (
            "omega.json", "base.json", "k3_omega.json", "k3_base.json",
            "quadric_out.json", "metric_out.csv", "verify_out.json")}
        write_json(job["omega.json"], constant_doc(pullback(a, OMEGA0)))
        write_json(job["base.json"], constant_doc(pullback(a, F0)))
        write_json(job["k3_omega.json"], class_doc(k3_omega))
        write_json(job["k3_base.json"], class_doc(k3_base))
        job["quadric_seed"], job["metric_seed"] = spec["quadric_seed"], spec["metric_seed"]
        return job

    def run(self, job):
        return (
            _cli(["quadric", job["omega.json"], job["base.json"], "--samples", str(self.samples),
                  "--seed", str(job["quadric_seed"])], job["quadric_out.json"]),
            _cli(["metric", job["k3_omega.json"], job["k3_base.json"], "--space", "k3",
                  "--sweep", str(self.sweep), "--seed", str(job["metric_seed"])],
                 job["metric_out.csv"]),
            _cli(["verify", job["omega.json"], job["base.json"]], job["verify_out.json"]),
        )

    def outputs(self, job, result):
        return {"quadric": {"exit": result[0], "report": read_report(job["quadric_out.json"])},
                "metric": {"exit": result[1], "csv": read_csv_columns(job["metric_out.csv"])},
                "verify": {"exit": result[2], "report": read_report(job["verify_out.json"])}}

    def expectations(self, spec, out):
        problems = []
        for name in ("quadric", "metric", "verify"):
            problems += _exit_problem(name, out[name]["exit"], 0)
        return problems


class DeformPeriod(Workload):
    """A deformation job followed by a period-domain job on every entry.

    The two run in one job rather than as two workloads so that the
    benchmark has two workloads with long runs; each part keeps its own
    class inputs (see :class:`Deformation` and :class:`PeriodSweep`).
    """

    name = "deform-period"
    variants = 4
    parts = (Deformation(), PeriodSweep())

    def base(self, c):
        return {p.name: p.base(c) for p in self.parts}

    def variant(self, base, v):
        return {p.name: p.variant(base[p.name], v) for p in self.parts}

    def prepare(self, spec, workdir):
        job = {}
        for p in self.parts:
            partdir = os.path.join(workdir, p.name)
            os.mkdir(partdir)
            job[p.name] = p.prepare(spec[p.name], partdir)
        return job

    def run(self, job):
        return {p.name: p.run(job[p.name]) for p in self.parts}

    def outputs(self, job, result):
        return {p.name: p.outputs(job[p.name], result[p.name]) for p in self.parts}

    def expectations(self, spec, out):
        return [f"{p.name}: {problem}" for p in self.parts
                for problem in p.expectations(spec[p.name], out[p.name])]


WORKLOADS = {w.name: w for w in (TorusGrid(), DeformPeriod())}


def check(workload, spec, out, ref):
    """All problems with one job's outputs: construction guarantees first,
    then differences from the reference outputs."""
    problems = workload.expectations(spec, out)
    problems += list(mismatches(ref, out))
    return problems
