"""Command-line front end.

Subcommands
-----------
verify        check the brane and holomorphic-symplectic conditions for a
              (symplectic form, 2-form) pair read from JSON files
quadric       sample the period quadric through a brane's class and
              reconstruct a constant brane from every sample
metric        evaluate the induced cylinder metric (single point or sweep),
              CSV output
nijenhuis     integrability diagnostics: Nijenhuis defect (exact derivatives)
              vs |dF| plus the finite-difference/exterior-derivative identity
              residual, whose step is max(--h, 1e-5)
example-torus run the bundled standard-torus example end to end

File formats (JSON, ``version: 1``):

* constant 2-form::

    {"version": 1, "kind": "constant2",
     "coeffs": {"12": 0, "13": 1, "14": 0, "23": 0, "24": -1, "34": 0}}

* trig-poly 2-form: same but every coefficient is a list of modes
  ``[{"k": [1, 0, 0, 0], "cos": 0.0, "sin": 1.0}, ...]``, with no other
  mode keys (``cos`` and ``sin`` default to 0);

* cohomology class (for ``metric --space k3``)::

    {"version": 1, "kind": "class", "space": "k3", "coeffs": [...]}

Exit codes: 0 pass, 1 verification failure, 2 input/usage error.  Reports
are deterministic for fixed inputs and seed once ``--no-timestamp`` is
given.  Nothing is written on exit 2.
"""

import argparse
import datetime
import json
import math
import os
import stat
import sys
from dataclasses import fields
from importlib import resources

import numpy as np

from .brane_check import verify_brane
from .cohomology import (
    CohClass,
    class_of_constant_form,
    k3_space,
    torus_space,
)
from .errors import BranekitError, SchemaError, SweepTooLarge
from .exterior4 import BIVECTOR_SLOTS, Form2, omega_unit
from .period_domain import (
    QuadricSpec,
    affine_normal_form,
    build_chart,
    metric_sweep,
    quadric_sweep,
    torus_quadric_alt_value,
    torus_quadric_coefficients,
    torus_quadric_residuals,
)
from .torus_forms import (
    TrigPolyFn,
    TrigPolyForm2,
    _canonical_modes,
    constant_coeffs,
    integrability_identity_residual,
    nijenhuis_defect,
)

_SLOT_KEYS = tuple(f"{a}{b}" for a, b in BIVECTOR_SLOTS)

#: point at which the nijenhuis command evaluates the identity residual
_IDENTITY_POINT = (0.5, 1.0, 1.5, 2.0)


# --- input parsing ----------------------------------------------------------


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    # JSONDecodeError, an integer past Python's int-to-str digit limit, or
    # bytes that are not text: all ValueError
    except ValueError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc


def _require(cond, message):
    if not cond:
        raise SchemaError(message)


def _check_number(value, where):
    # a message is built only for a refused number: a file holds hundreds
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    # json.load accepts the NaN and Infinity literals, and ints of any size
    try:
        if math.isfinite(value):
            return value
    except OverflowError:  # an int beyond the largest float, shown by its size
        raise SchemaError(f"{where}: expected a finite number, "
                          f"got an integer of {len(str(abs(value)))} digits") from None
    raise SchemaError(f"{where}: expected a finite number, got {value!r}")


def _file_kind(doc, path):
    """The ``kind`` of a file object, once its ``version`` is the integer 1."""
    _require(isinstance(doc, dict), f"{path}: top level must be an object")
    version = doc.get("version")
    # True == 1 and 1.0 == 1, but neither is the version
    _require(type(version) is int and version == 1, f"{path}: unsupported version {version!r}")
    return doc.get("kind")


def _parse_form(doc, path):
    kind = _file_kind(doc, path)
    coeffs = doc.get("coeffs")
    _require(isinstance(coeffs, dict) and set(coeffs) == set(_SLOT_KEYS),
             f"{path}: coeffs must have exactly the keys {_SLOT_KEYS}")
    if kind == "constant2":
        values = [_check_number(coeffs[k], f"{path}: coeffs[{k}]") for k in _SLOT_KEYS]
        return Form2.from_coeffs(tuple(values))
    if kind == "trigpoly2":
        fns = []
        for key in _SLOT_KEYS:
            modes = coeffs[key]
            _require(isinstance(modes, list), f"{path}: coeffs[{key}] must be a list of modes")
            raw = []
            for mode in modes:
                _require(isinstance(mode, dict), f"{path}: mode entries must be objects")
                unknown = sorted(set(mode) - {"k", "cos", "sin"})
                _require(not unknown, f"{path}: unknown mode keys {unknown}")
                k = mode.get("k")
                _require(
                    isinstance(k, list) and len(k) == 4 and all(isinstance(i, int) for i in k),
                    f"{path}: mode key 'k' must be a list of 4 integers",
                )
                for i in k:  # the phase tables take the frequencies as floats
                    _check_number(i, f"{path}: mode key 'k'")
                raw.append((
                    k,
                    _check_number(mode.get("cos", 0), f"{path}: cos"),
                    _check_number(mode.get("sin", 0), f"{path}: sin"),
                ))
            # one canonicalization per slot sums duplicate frequencies left to right
            fns.append(TrigPolyFn(_canonical_modes(raw)))
        return TrigPolyForm2.from_fns(fns)
    raise SchemaError(f"{path}: unknown kind {kind!r}")


def _parse_constant_form(doc, path):
    coeffs = constant_coeffs(_parse_form(doc, path))
    _require(coeffs is not None, f"{path}: a constant2 form is required here")
    return Form2.from_coeffs(coeffs)


def _parse_class(doc, path, space):
    _require(_file_kind(doc, path) == "class", f"{path}: expected kind 'class'")
    _require(doc.get("space") == space.name, f"{path}: expected space {space.name!r}")
    coeffs = doc.get("coeffs")
    _require(isinstance(coeffs, list) and len(coeffs) == space.dim,
             f"{path}: coeffs must be a list of {space.dim} numbers")
    return CohClass(space, tuple(_check_number(v, f"{path}: coeffs") for v in coeffs))


# --- report plumbing --------------------------------------------------------


def _num(value):
    return value if isinstance(value, (int, bool)) else float(value)


def _emit(text, out_path):
    """Write a report to stdout, or over the file at ``out_path``.

    An existing file is overwritten in place and then cut to the new
    length, never truncated first: on ext4, closing a file truncated to
    zero (or renaming one over it) starts writeback of the new blocks at
    once, while pages rewritten in place wait for the periodic flush.
    Neither way is atomic: a run killed between the write and the cut
    leaves the new bytes followed by old ones.  A FIFO or a device has no
    length to cut.  Same mode, encoding and newlines as ``open(path, "w")``.
    """
    if not out_path:
        sys.stdout.write(text)
        return
    with os.fdopen(os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _finish_report(report, args, samples=()):
    """Stamp, encode and emit a report.  The text of ``samples``, the rows
    of a quadric report, takes the place of the report's empty list under
    ``"samples"``; every other value is encoded by ``json.dumps``."""
    report.update(version=1, command=args.command)
    if not getattr(args, "no_timestamp", False):
        report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        if samples:
            # a top-level key is the only text after a newline and two spaces
            text = text.replace('\n  "samples": []', '\n  "samples": ' + _quadric_rows(samples), 1)
    except ValueError as exc:
        raise BranekitError(f"report holds a non-finite number ({exc})") from exc
    _emit(text + "\n", args.out)


def _quadric_rows(samples):
    """The text of the ``samples`` list of a quadric report, the bytes
    ``json.dumps(report, indent=2, sort_keys=True, allow_nan=False)`` gives
    it, from one template for the row shape every sample of one chart has:
    class, form, pass, theta, ybar.  Numbers are written as ``json`` writes
    them; ValueError on a NaN or an infinity, as ``json.dumps`` refuses it."""
    first = samples[0]
    # json lays the row out, null for every number; no key holds "null" or "%"
    shape = {"class": [None] * len(first.cls.coeffs), "form": dict.fromkeys(_SLOT_KEYS),
             "pass": None, "theta": None, "ybar": [None] * len(first.ybar)}
    row = json.dumps(shape, indent=2, sort_keys=True).replace("null", "%s").replace("\n", "\n    ")
    rows = []
    for sample in samples:
        # _SLOT_KEYS is sorted, so the form's values come in sort_keys order
        values = (*sample.cls.coeffs, *sample.form.coeffs, sample.passed, sample.theta,
                  *sample.ybar)
        text = [float.__repr__(v) if type(v) is float else json.dumps(v, allow_nan=False)
                for v in values]
        if "nan" in text or "inf" in text or "-inf" in text:
            raise ValueError("Out of range float values are not JSON compliant")
        rows.append(row % tuple(text))
    return "[\n    " + ",\n    ".join(rows) + "\n  ]"


def _report_dict(rep, *skip):
    """The fields of a report dataclass, less ``skip``, as JSON scalars."""
    return {f.name: _num(getattr(rep, f.name)) for f in fields(rep) if f.name not in skip}


# --- commands ---------------------------------------------------------------


def cmd_verify(args):
    omega = _parse_constant_form(_load_json(args.omega_file), args.omega_file)
    form = _parse_form(_load_json(args.form_file), args.form_file)
    sb = verify_brane(omega, form, grid=args.grid, tol=args.tol)
    hs = sb.hol_symp
    report = {
        "inputs": {"omega": args.omega_file, "form": args.form_file},
        "grid": args.grid,
        "tolerances": {"tol": args.tol},
        "residuals": {
            "brane": _report_dict(sb, "tol", "hol_symp"),
            "holomorphic_symplectic": _report_dict(hs, "grid_used", "tol"),
        },
        "checks_agree": sb.passed == hs.passed,
        "pass": sb.passed,
    }
    _finish_report(report, args)
    return 0 if sb.passed else 1


def physical_memory():
    """The machine's physical memory in bytes, the bound of every sweep."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


#: the most a reported number takes until its report is written, with room:
#: 64 bytes of its sample's objects (a float is 24, a list, tuple or array
#: slot 8) and three copies of its text, each at most 48 characters with its
#: layout, since a report's rows, their join and the report text live at once
_NUMBER_BYTES = 256


def _chart_draws(chart, seed, count, sample_bytes):
    """``count`` chart points (theta, ybar) drawn from ``seed``.

    Raises SweepTooLarge before the first draw when ``count`` samples of at
    most ``sample_bytes`` each could take more than the machine's physical
    memory.
    """
    need, have = count * sample_bytes, physical_memory()
    if need > have:
        raise SweepTooLarge(f"{count} samples may take up to {need} bytes, "
                            f"more than the {have} bytes of physical memory")
    rng, k = np.random.default_rng(seed), len(chart.neg)
    return [(float(rng.uniform(0.0, 2.0 * math.pi)), tuple(map(float, rng.normal(size=k))))
            for _ in range(count)]


def cmd_quadric(args):
    chart = _t4_chart(args)
    # a row reports theta, ybar, the class and the six form coefficients
    numbers = 1 + len(chart.neg) + chart.spec.space.dim + 6
    draws = _chart_draws(chart, args.seed, args.samples, _NUMBER_BYTES * numbers)
    samples = quadric_sweep(chart, draws, tol=max(args.tol, 1e-12))
    all_pass = all(sample.passed for sample in samples)
    report = {
        "inputs": {"omega": args.omega_file, "base": args.base_file},
        "seed": args.seed,
        "tolerances": {"tol": args.tol},
        "samples": [],
        "pass": all_pass,
    }
    _finish_report(report, args, samples)
    return 0 if all_pass else 1


def _t4_chart(args):
    """The T^4 chart at the base form's class, once the base is a brane."""
    omega = _parse_constant_form(_load_json(args.omega_file), args.omega_file)
    base_form = _parse_constant_form(_load_json(args.base_file), args.base_file)
    if not verify_brane(omega, base_form, tol=args.tol).passed:
        raise SchemaError("base form is not a brane for the given symplectic form")
    return _torus_chart(omega, base_form, args.tol)


def _torus_chart(omega, base_form, tol):
    """The T^4 chart at the class of a constant base form."""
    space = torus_space()
    q = QuadricSpec(space, class_of_constant_form(omega, space))
    return build_chart(q, class_of_constant_form(base_form, space), tol=tol)


def _metric_chart(args):
    if args.space == "t4":
        return _t4_chart(args)
    space = k3_space()
    omega_class = _parse_class(_load_json(args.omega_file), args.omega_file, space)
    base_class = _parse_class(_load_json(args.base_file), args.base_file, space)
    return build_chart(QuadricSpec(space, omega_class), base_class, tol=args.tol)


def cmd_metric(args):
    if args.sweep and (args.theta is not None or args.ybar is not None):
        raise SchemaError("--sweep draws its own points; --theta and --ybar set a single point")
    chart = _metric_chart(args)
    k = len(chart.neg)
    header = (
        ["theta"]
        + [f"y{i}" for i in range(4, 4 + k)]
        + ["g_theta_theta", "g_theta_theta_sqrt_form", "circle_ratio"]
        + [f"g_y{i}_y{i}" for i in range(4, 4 + k)]
        + ["off_diag_max", "gamma_resid", "sig_pos", "sig_neg"]
    )
    if args.sweep:
        # metric_sweep holds at most six float arrays of (1 + k) x dim per
        # sample at once: the tangents, g and the temporaries of its
        # symmetrisation, its signature and its gamma residual
        sample_bytes = 8 * 6 * (1 + k) * chart.spec.space.dim + _NUMBER_BYTES * len(header)
        params = _chart_draws(chart, args.seed, args.sweep, sample_bytes)
    else:
        ybar = args.ybar if args.ybar is not None else (0.0,) * k
        if len(ybar) != k:
            raise SchemaError(f"--ybar needs {k} comma-separated values")
        params = [(0.0 if args.theta is None else args.theta, ybar)]

    # csv.writer's bytes: every field is a float repr or an int, so none is quoted
    lines = [",".join(header)]
    for (theta, ybar), s in zip(params, metric_sweep(chart, params)):
        ratio = s.g_theta_theta / s.g_theta_theta_sqrt_form
        lines.append(",".join(map(repr, (
            theta, *ybar, s.g_theta_theta, s.g_theta_theta_sqrt_form, ratio,
            *np.diagonal(s.g)[1:].tolist(), s.off_diag_max, s.gamma_resid, *s.signature))))
    _emit("\r\n".join(lines) + "\r\n", args.out)
    return 0


def cmd_nijenhuis(args):
    omega = _parse_constant_form(_load_json(args.omega_file), args.omega_file)
    form = _parse_form(_load_json(args.form_file), args.form_file)
    max_defect, max_df = nijenhuis_defect(omega, form, grid=args.grid, tol=args.tol)
    identity_h = max(args.h, 1e-5)  # smaller steps only amplify rounding noise
    identity_resid = integrability_identity_residual(
        omega, form, _IDENTITY_POINT, h=identity_h, tol=args.tol
    )
    flat_tol = 1e-6
    # the defect is free of scale and dF has degree 1 in (omega, F), so dF meets
    # flat_tol * sqrt(u);
    # NaN <= flat_tol is false on both sides, so a NaN would read as consistent
    consistent = (
        math.isfinite(max_defect)
        and math.isfinite(max_df)
        and (max_defect <= flat_tol) == (max_df <= flat_tol * math.sqrt(omega_unit(omega)))
    )
    report = {
        "inputs": {"omega": args.omega_file, "form": args.form_file},
        "grid": args.grid,
        "tolerances": {"tol": args.tol, "h": args.h, "identity_h": identity_h, "flat_tol": flat_tol},
        "max_defect": max_defect,
        "max_dF": max_df,
        "identity_residual": identity_resid,
        "integrable_iff_closed": consistent,
        "pass": consistent,
    }
    _finish_report(report, args)
    return 0 if consistent else 1


def _fixture(name):
    return resources.files("branekit").joinpath("data", name)


def cmd_example_torus(args):
    """Run the standard torus example end to end from the bundled fixtures."""
    omega, f0, kappa, rotation = (
        _parse_form(json.loads(_fixture(name).read_text()), name)
        for name in ("omega0.json", "f0.json", "kappa.json", "rotation_k1000.json")
    )

    notes = []
    # the grid reaches only the rotation: constant forms are checked at one fiber
    reps = {name: verify_brane(omega, form, grid=args.grid, tol=args.tol)
            for name, form in (("f0", f0), ("kappa", kappa), ("rotation", rotation))}
    checks = {f"brane_{name}": _report_dict(rep, "tol", "hol_symp") for name, rep in reps.items()}

    chart = _torus_chart(omega, f0, args.tol)
    checks["chart"] = {
        "b": [_num(v) for v in chart.b.coeffs],
        "neg": [[_num(v) for v in n.coeffs] for n in chart.neg],
        "quadric_dim": chart.dim,
    }

    origin, off_axis = metric_sweep(
        chart, [(0.0, (0.0,) * len(chart.neg)), (0.0, (1.0,) + (0.0,) * (len(chart.neg) - 1))]
    )
    ratio = off_axis.g_theta_theta / off_axis.g_theta_theta_sqrt_form
    checks["metric_origin"] = {
        "g_diag": [float(origin.g[i, i]) for i in range(origin.g.shape[0])],
        "signature": list(origin.signature),
    }
    checks["metric_off_axis"] = {
        "g_theta_theta": off_axis.g_theta_theta,
        "g_theta_theta_sqrt_form": off_axis.g_theta_theta_sqrt_form,
        "ratio": ratio,
        "signature": list(off_axis.signature),
    }
    notes.append(
        "circle metric coefficient: pairing the chart derivatives gives "
        "(1+r^2)*omega^2, while the closed sqrt form sqrt(1+r^2)*omega^2 "
        f"matches only at ybar=0; at ybar=(1,0,0) their ratio is {ratio:.12f} "
        "(= sqrt(2))."
    )

    solution = (1, 1, -1, -1, 0, 0)
    residuals = torus_quadric_residuals(*solution)
    alt = torus_quadric_alt_value(*solution)
    checks["deformation_quadric"] = {
        "solution": list(solution),
        "residuals": [_num(r) for r in residuals],
        "alt_form_value": _num(alt),
    }
    notes.append(
        "deformation quadric: the wedge-derived equation (g1+g2) + "
        "(f1 f2 + g1 g2 + h1 h2) vanishes on (1,1,-1,-1,0,0); the "
        "rescaled-cross-term variant -2(g1 g2 + f1 f2 + h1 h2) + (g1+g2) "
        f"evaluates to {alt} there, so the two quadratic forms differ away "
        "from r=0 even though both have inertia (2,3)."
    )

    normal = affine_normal_form(*torus_quadric_coefficients())
    checks["normal_form_squares"] = list(normal.squares)

    ok = (
        reps["f0"].passed
        and reps["kappa"].passed
        and (not reps["rotation"].passed)
        and reps["rotation"].closedness_resid > 0.5
        and residuals == (0, 0)
        and alt == -6
        and abs(ratio - math.sqrt(2)) < 1e-12
        and normal.squares == (1, 1, -1, -1, -1)
    )
    report = {
        "grid": args.grid,
        "tolerances": {"tol": args.tol},
        "checks": checks,
        "discrepancy_notes": notes,
        "pass": ok,
    }
    _finish_report(report, args)
    return 0 if ok else 1


# --- argument parsing -------------------------------------------------------


def _ranged(convert, ok, rule):
    """An argparse ``type``: ``convert`` the text, then require ``ok`` of the value."""

    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:  # also an int past Python's int-to-str digit limit
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")

    return parse


_TOL = _ranged(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
_STEP = _ranged(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_FINITE = _ranged(float, math.isfinite, "a finite number")
_POINT = _ranged(lambda text: tuple(float(v) for v in text.split(",")),
                 lambda v: all(map(math.isfinite, v)), "comma-separated finite numbers")
_COUNT = _ranged(int, lambda v: v >= 0, "an integer >= 0")
_GRID = _ranged(int, lambda v: v >= 1, "an integer >= 1")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="branekit",
        description="verification and exploration of spacefilling brane structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_grid=True):
        p.add_argument(
            "--tol", type=_TOL, default=1e-9,
            help="verification tolerance, a finite number >= 0, in the unit u = |pf(omega)|: "
                 "a residual of degree d in (omega, F) passes when it is at most tol * u^(d/2)",
        )
        if needs_grid:
            p.add_argument("--grid", type=_GRID, default=8, help="grid points per axis")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--no-timestamp", action="store_true", dest="no_timestamp")

    p = sub.add_parser("verify", help="check the brane conditions for a form pair")
    p.add_argument("omega_file")
    p.add_argument("form_file")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("quadric", help="sample the period quadric and reconstruct branes")
    p.add_argument("omega_file")
    p.add_argument("base_file")
    p.add_argument("--samples", type=_COUNT, default=100)
    p.add_argument("--seed", type=_COUNT, default=0)
    common(p, needs_grid=False)
    p.set_defaults(func=cmd_quadric)

    p = sub.add_parser("metric", help="evaluate the induced cylinder metric (CSV)")
    p.add_argument("omega_file")
    p.add_argument("base_file")
    p.add_argument("--space", choices=("t4", "k3"), default="t4")
    p.add_argument("--theta", type=_FINITE, default=None, help="circle coordinate, 0 by default")
    p.add_argument("--ybar", type=_POINT, default=None,
                   help="comma-separated chart coordinates, all finite")
    p.add_argument("--sweep", type=_COUNT, default=0, help="number of random samples")
    p.add_argument("--seed", type=_COUNT, default=0)
    common(p, needs_grid=False)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("nijenhuis", help="integrability diagnostics for a form pair")
    p.add_argument("omega_file")
    p.add_argument("form_file")
    p.add_argument(
        "--h", type=_STEP, default=1e-5,
        help="central-difference step of the identity residual, which uses "
        "max(h, 1e-5); the defect uses exact derivatives",
    )
    common(p)
    p.set_defaults(func=cmd_nijenhuis)

    p = sub.add_parser("example-torus", help="run the bundled torus example")
    common(p)
    p.set_defaults(func=cmd_example_torus)

    return parser


#: one per process: parsing never changes it, and a dropped parser is garbage
#: in reference cycles that only the cyclic collector frees
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # an overflow to inf or NaN reaches a check or the report, and both refuse it
        with np.errstate(all="ignore"):
            return args.func(args)
    except (BranekitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OverflowError as exc:  # an exact number that no float can hold
        print(f"error: a value beyond the float range ({exc})", file=sys.stderr)
    return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
