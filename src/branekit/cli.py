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
  ``[{"k": [1, 0, 0, 0], "cos": 0.0, "sin": 1.0}, ...]``;

* cohomology class (for ``metric --space k3``)::

    {"version": 1, "kind": "class", "space": "k3", "coeffs": [...]}

Exit codes: 0 pass, 1 verification failure, 2 input/usage error.  Reports
are deterministic for fixed inputs and seed once ``--no-timestamp`` is
given.  Nothing is written on exit 2.
"""

import argparse
import csv
import datetime
import io
import json
import math
import sys
from importlib import resources

import numpy as np

from .brane_check import verify_brane
from .cohomology import (
    CohClass,
    class_of_constant_form,
    k3_space,
    torus_space,
)
from .errors import BranekitError, SchemaError
from .exterior4 import Form2
from .period_domain import (
    QuadricSpec,
    affine_normal_form,
    build_chart,
    chart_point,
    metric_at,
    reconstruct_brane,
    torus_quadric_alt_value,
    torus_quadric_coefficients,
    torus_quadric_residuals,
)
from .torus_forms import (
    TrigPolyFn,
    TrigPolyForm2,
    constant_coeffs,
    integrability_identity_residual,
    nijenhuis_defect,
)

_SLOT_KEYS = ("12", "13", "14", "23", "24", "34")

#: point at which the nijenhuis command evaluates the identity residual
_IDENTITY_POINT = (0.5, 1.0, 1.5, 2.0)


# --- input parsing ----------------------------------------------------------


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc


def _require(cond, message):
    if not cond:
        raise SchemaError(message)


def _check_number(value, where):
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{where}: expected a number, got {value!r}")
    # json.load accepts the NaN and Infinity literals; ints are always finite
    _require(isinstance(value, int) or math.isfinite(value),
             f"{where}: expected a finite number, got {value!r}")
    return value


def _parse_form(doc, path):
    _require(isinstance(doc, dict), f"{path}: top level must be an object")
    _require(doc.get("version") == 1, f"{path}: unsupported version {doc.get('version')!r}")
    kind = doc.get("kind")
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
            fn = TrigPolyFn.zero()
            for mode in modes:
                _require(isinstance(mode, dict), f"{path}: mode entries must be objects")
                k = mode.get("k")
                _require(
                    isinstance(k, list) and len(k) == 4 and all(isinstance(i, int) for i in k),
                    f"{path}: mode key 'k' must be a list of 4 integers",
                )
                fn = fn + TrigPolyFn.mode(
                    tuple(k),
                    cos=_check_number(mode.get("cos", 0), f"{path}: cos"),
                    sin=_check_number(mode.get("sin", 0), f"{path}: sin"),
                )
            fns.append(fn)
        return TrigPolyForm2.from_fns(fns)
    raise SchemaError(f"{path}: unknown kind {kind!r}")


def _parse_constant_form(doc, path):
    coeffs = constant_coeffs(_parse_form(doc, path))
    _require(coeffs is not None, f"{path}: a constant2 form is required here")
    return Form2.from_coeffs(coeffs)


def _parse_class(doc, path, space):
    _require(isinstance(doc, dict), f"{path}: top level must be an object")
    _require(doc.get("version") == 1, f"{path}: unsupported version {doc.get('version')!r}")
    _require(doc.get("kind") == "class", f"{path}: expected kind 'class'")
    _require(doc.get("space") == space.name, f"{path}: expected space {space.name!r}")
    coeffs = doc.get("coeffs")
    _require(isinstance(coeffs, list) and len(coeffs) == space.dim,
             f"{path}: coeffs must be a list of {space.dim} numbers")
    return CohClass(space, tuple(_check_number(v, f"{path}: coeffs") for v in coeffs))


# --- report plumbing --------------------------------------------------------


def _num(value):
    return value if isinstance(value, (int, bool)) else float(value)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish_report(report, args):
    if not getattr(args, "no_timestamp", False):
        report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise BranekitError(f"report holds a non-finite number ({exc})") from exc
    _emit(text + "\n", args.out)


def _brane_report_dict(rep):
    return {
        "wedge_square_resid": _num(rep.wedge_square_resid),
        "wedge_orth_resid": _num(rep.wedge_orth_resid),
        "closedness_resid": _num(rep.closedness_resid),
        "i_square_resid": _num(rep.i_square_resid),
        "orientation_ok": rep.orientation_ok,
        "passed": rep.passed,
        "grid_used": rep.grid_used,
    }


# --- commands ---------------------------------------------------------------


def cmd_verify(args):
    omega = _parse_constant_form(_load_json(args.omega_file), args.omega_file)
    form = _parse_form(_load_json(args.form_file), args.form_file)
    sb = verify_brane(omega, form, grid=args.grid, tol=args.tol)
    hs = sb.hol_symp
    report = {
        "version": 1,
        "command": "verify",
        "inputs": {"omega": args.omega_file, "form": args.form_file},
        "grid": args.grid,
        "tolerances": {"tol": args.tol},
        "residuals": {
            "brane": _brane_report_dict(sb),
            "holomorphic_symplectic": {
                "positivity_min": _num(hs.positivity_min),
                "square_resid": _num(hs.square_resid),
                "closedness_resid": _num(hs.closedness_resid),
                "passed": hs.passed,
            },
        },
        "checks_agree": sb.passed == hs.passed,
        "pass": sb.passed,
    }
    _finish_report(report, args)
    return 0 if sb.passed else 1


def cmd_quadric(args):
    omega = _parse_constant_form(_load_json(args.omega_file), args.omega_file)
    base_form = _parse_constant_form(_load_json(args.base_file), args.base_file)
    base_report = verify_brane(omega, base_form, tol=args.tol)
    if not base_report.passed:
        raise SchemaError("base form is not a brane for the given symplectic form")
    space = torus_space()
    q = QuadricSpec(space, class_of_constant_form(omega, space))
    chart = build_chart(q, class_of_constant_form(base_form, space), tol=args.tol)
    rng = np.random.default_rng(args.seed)
    rows = []
    all_pass = True
    for _ in range(args.samples):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        ybar = tuple(float(v) for v in rng.normal(size=len(chart.neg)))
        cls = chart_point(chart, theta, ybar)
        form, rep = reconstruct_brane(q, cls, tol=max(args.tol, 1e-12))
        all_pass = all_pass and rep.passed
        rows.append(
            {
                "theta": theta,
                "ybar": list(ybar),
                "class": [float(v) for v in cls.coeffs],
                "form": {k: float(v) for k, v in zip(_SLOT_KEYS, form.coeffs)},
                "pass": rep.passed,
            }
        )
    report = {
        "version": 1,
        "command": "quadric",
        "inputs": {"omega": args.omega_file, "base": args.base_file},
        "seed": args.seed,
        "tolerances": {"tol": args.tol},
        "samples": rows,
        "pass": all_pass,
    }
    _finish_report(report, args)
    return 0 if all_pass else 1


def _metric_chart(args):
    if args.space == "t4":
        omega = _parse_constant_form(_load_json(args.omega_file), args.omega_file)
        base_form = _parse_constant_form(_load_json(args.base_file), args.base_file)
        if not verify_brane(omega, base_form, tol=args.tol).passed:
            raise SchemaError("base form is not a brane for the given symplectic form")
        space = torus_space()
        omega_class = class_of_constant_form(omega, space)
        base_class = class_of_constant_form(base_form, space)
    else:
        space = k3_space()
        omega_class = _parse_class(_load_json(args.omega_file), args.omega_file, space)
        base_class = _parse_class(_load_json(args.base_file), args.base_file, space)
    q = QuadricSpec(space, omega_class)
    return build_chart(q, base_class, tol=args.tol)


def cmd_metric(args):
    chart = _metric_chart(args)
    k = len(chart.neg)
    if args.sweep:
        rng = np.random.default_rng(args.seed)
        params = [
            (float(rng.uniform(0.0, 2.0 * math.pi)), tuple(float(v) for v in rng.normal(size=k)))
            for _ in range(args.sweep)
        ]
    else:
        ybar = args.ybar if args.ybar is not None else (0.0,) * k
        if len(ybar) != k:
            raise SchemaError(f"--ybar needs {k} comma-separated values")
        params = [(args.theta, ybar)]

    buf = io.StringIO()
    writer = csv.writer(buf)
    header = (
        ["theta"]
        + [f"y{i}" for i in range(4, 4 + k)]
        + ["g_theta_theta", "g_theta_theta_sqrt_form", "circle_ratio"]
        + [f"g_y{i}_y{i}" for i in range(4, 4 + k)]
        + ["off_diag_max", "gamma_resid", "sig_pos", "sig_neg"]
    )
    writer.writerow(header)
    for theta, ybar in params:
        sample = metric_at(chart, theta, ybar)
        writer.writerow(
            [repr(theta)]
            + [repr(y) for y in ybar]
            + [
                repr(sample.g_theta_theta),
                repr(sample.g_theta_theta_sqrt_form),
                repr(sample.g_theta_theta / sample.g_theta_theta_sqrt_form),
            ]
            + [repr(float(sample.g[1 + i, 1 + i])) for i in range(k)]
            + [
                repr(sample.off_diag_max),
                repr(sample.gamma_resid),
                sample.signature[0],
                sample.signature[1],
            ]
        )
    _emit(buf.getvalue(), args.out)
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
    # NaN <= flat_tol is false on both sides, so a NaN would read as consistent
    consistent = (
        math.isfinite(max_defect)
        and math.isfinite(max_df)
        and (max_defect <= flat_tol) == (max_df <= flat_tol)
    )
    report = {
        "version": 1,
        "command": "nijenhuis",
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
    omega = _parse_form(json.loads(_fixture("omega0.json").read_text()), "omega0.json")
    f0 = _parse_form(json.loads(_fixture("f0.json").read_text()), "f0.json")
    kappa = _parse_form(json.loads(_fixture("kappa.json").read_text()), "kappa.json")
    rotation = _parse_form(
        json.loads(_fixture("rotation_k1000.json").read_text()), "rotation_k1000.json"
    )

    checks = {}
    notes = []

    rep_f0 = verify_brane(omega, f0, tol=args.tol)
    rep_kappa = verify_brane(omega, kappa, tol=args.tol)
    rep_rot = verify_brane(omega, rotation, grid=args.grid, tol=args.tol)
    checks["brane_f0"] = _brane_report_dict(rep_f0)
    checks["brane_kappa"] = _brane_report_dict(rep_kappa)
    checks["brane_rotation"] = _brane_report_dict(rep_rot)

    space = torus_space()
    q = QuadricSpec(space, class_of_constant_form(omega, space))
    base = class_of_constant_form(f0, space)
    chart = build_chart(q, base, tol=args.tol)
    checks["chart"] = {
        "b": [_num(v) for v in chart.b.coeffs],
        "neg": [[_num(v) for v in n.coeffs] for n in chart.neg],
        "quadric_dim": chart.dim,
    }

    origin = metric_at(chart, 0.0, (0.0,) * len(chart.neg))
    off_axis = metric_at(chart, 0.0, (1.0,) + (0.0,) * (len(chart.neg) - 1))
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
        rep_f0.passed
        and rep_kappa.passed
        and (not rep_rot.passed)
        and rep_rot.closedness_resid > 0.5
        and residuals == (0, 0)
        and alt == -6
        and abs(ratio - math.sqrt(2)) < 1e-12
        and normal.squares == (1, 1, -1, -1, -1)
    )
    report = {
        "version": 1,
        "command": "example-torus",
        "grid": args.grid,
        "tolerances": {"tol": args.tol},
        "checks": checks,
        "discrepancy_notes": notes,
        "pass": ok,
    }
    _finish_report(report, args)
    return 0 if ok else 1


# --- argument parsing -------------------------------------------------------


def _comma_floats(text):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="branekit",
        description="verification and exploration of spacefilling brane structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_grid=True):
        p.add_argument(
            "--tol", type=float, default=1e-9, help="verification tolerance, a finite number >= 0"
        )
        if needs_grid:
            p.add_argument("--grid", type=int, default=8, help="grid points per axis")
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
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    common(p, needs_grid=False)
    p.set_defaults(func=cmd_quadric)

    p = sub.add_parser("metric", help="evaluate the induced cylinder metric (CSV)")
    p.add_argument("omega_file")
    p.add_argument("base_file")
    p.add_argument("--space", choices=("t4", "k3"), default="t4")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--ybar", type=_comma_floats, default=None,
                   help="comma-separated chart coordinates, all finite")
    p.add_argument("--sweep", type=int, default=0, help="number of random samples")
    p.add_argument("--seed", type=int, default=0)
    common(p, needs_grid=False)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("nijenhuis", help="integrability diagnostics for a form pair")
    p.add_argument("omega_file")
    p.add_argument("form_file")
    p.add_argument(
        "--h", type=float, default=1e-5,
        help="central-difference step of the identity residual, which uses "
        "max(h, 1e-5); the defect uses exact derivatives",
    )
    common(p)
    p.set_defaults(func=cmd_nijenhuis)

    p = sub.add_parser("example-torus", help="run the bundled torus example")
    common(p)
    p.set_defaults(func=cmd_example_torus)

    return parser


#: (option, test, rule) for each numeric option with a restricted range;
#: an option a command does not take is skipped
_OPTION_RULES = (
    ("tol", lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0"),
    ("grid", lambda v: v >= 1, "an integer >= 1"),
    ("h", lambda v: math.isfinite(v) and v > 0, "a finite number > 0"),
    ("samples", lambda v: v >= 0, "an integer >= 0"),
    ("sweep", lambda v: v >= 0, "an integer >= 0"),
    ("seed", lambda v: v >= 0, "an integer >= 0"),
    ("theta", math.isfinite, "a finite number"),
    ("ybar", lambda v: all(map(math.isfinite, v)), "comma-separated finite numbers"),
)


def _validate_options(args):
    for name, ok, rule in _OPTION_RULES:
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            raise SchemaError(f"--{name} must be {rule}, got {value!r}")


#: one per process: parsing never changes it, and a dropped parser is garbage
#: in reference cycles that only the cyclic collector frees
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _validate_options(args)
        return args.func(args)
    except (BranekitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
