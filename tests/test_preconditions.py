"""The preconditions of the checks: omega's non-degeneracy (``check_omega``),
I^2 = -Id (``check_i_square``) and the grid, each decided by one rule before
any verdict, and free of the scale of (omega, F)."""

import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from branekit.brane_check import constant_branes_pass, linearized_deformation_check, verify_brane
from branekit.cli import main
from branekit.errors import (BranekitError, NonDegenerateRequired, NotAlmostComplex,
                             NotPointwiseBrane)
from branekit.exterior4 import Form2, check_omega
from branekit.torus_forms import (
    integrability_identity_residual,
    nijenhuis_defect,
    rotation_family,
    standard_brane,
    standard_symplectic,
)

W0 = standard_symplectic()
F0 = standard_brane()
DATA = Path(str(resources.files("branekit").joinpath("data")))
SCALES = [1e-6, 1e-3, 1.0, 1e3, 1e6]


def _stacked(f, s=3):
    """The six coefficients of f as (s,) float arrays, s copies of one form."""
    return tuple(np.full(s, float(c)) for c in f.coeffs)


def _five_checks(omega, f):
    """Each check that forms omega^{-1}, as a call on (omega, f)."""
    return {
        "verify_brane": lambda: verify_brane(omega, f),
        "constant_branes_pass": lambda: constant_branes_pass(omega, _stacked(f)),
        "linearized_deformation_check": lambda: linearized_deformation_check(omega, f, Form2()),
        "nijenhuis_defect": lambda: nijenhuis_defect(omega, f),
        "integrability_identity_residual":
            lambda: integrability_identity_residual(omega, f, (0.1, 0.2, 0.3, 0.4)),
    }


class TestScaleFree:
    @pytest.mark.parametrize("t", SCALES)
    def test_a_rescaled_standard_pair_passes_every_check(self, t):
        omega, f = t * W0, t * F0
        assert verify_brane(omega, f).passed
        assert linearized_deformation_check(omega, f, Form2())
        assert constant_branes_pass(omega, _stacked(f)).all()
        assert nijenhuis_defect(omega, f) == (0.0, 0.0)

    @given(rho=st.floats(1e-12, 1e-5), sign=st.sampled_from([1.0, -1.0]))
    def test_refused_exactly_when_the_ratio_is_at_most_tol(self, rho, sign):
        omega, tol = Form2(c14=1, c23=sign * rho), 1e-9
        for name, check in _five_checks(omega, F0).items():
            degenerate = False
            try:
                check()
            except NonDegenerateRequired:
                degenerate = True
            except BranekitError:  # any other refusal of a non-degenerate omega
                pass
            assert degenerate == (rho <= tol), name

    def test_the_ratio_takes_the_largest_coefficient(self):
        check_omega(Form2(c14=1e-5, c23=1e-5), 1e-9)
        with pytest.raises(NonDegenerateRequired):
            check_omega(Form2(c14=1e5, c23=1e-5, c12=1.0), 1e-9)
        for omega in (Form2(), Form2(c14=float("nan"), c23=1.0)):
            with pytest.raises(NonDegenerateRequired):
                check_omega(omega, 0.0)


class TestOrder:
    def test_degenerate_omega_is_refused_before_the_closedness_shortcut(self):
        with pytest.raises(NonDegenerateRequired):
            linearized_deformation_check(Form2(c12=1), F0, rotation_family((1, 0, 0, 0)))

    def test_the_refusal_says_by_how_much(self):
        with pytest.raises(NonDegenerateRequired, match=r"2\.000e-10, not above 1\.0e-09"):
            verify_brane(Form2(c14=1, c23=2e-10), F0)

    def test_the_i_square_guard_is_one_error_type(self):
        assert issubclass(NotPointwiseBrane, NotAlmostComplex)
        for check in (lambda: nijenhuis_defect(W0, Form2(c12=1), grid=2),
                      lambda: linearized_deformation_check(W0, Form2(c12=1), Form2())):
            with pytest.raises(NotPointwiseBrane, match=r"> 1\.0e-09"):
                check()

    @pytest.mark.parametrize("grid", [0, -2])
    def test_grid_below_one_is_refused_for_constant_inputs(self, grid):
        with pytest.raises(ValueError):
            verify_brane(W0, F0, grid=grid)


def _constant_file(path, coeffs):
    keys = ("12", "13", "14", "23", "24", "34")
    doc = {"version": 1, "kind": "constant2", "coeffs": dict(zip(keys, coeffs))}
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


class TestCli:
    @pytest.mark.parametrize("grid", [3, 5, 6, 7, 8, 9, 10, 12])
    def test_rounding_in_i_square_passes_at_tol_0(self, grid, capsys):
        argv = ["nijenhuis", str(DATA / "omega0.json"), str(DATA / "rotation_k1000.json"),
                "--tol", "0", "--grid", str(grid), "--no-timestamp"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", [["verify"], ["quadric", "--samples", "5"],
                                         ["metric", "--sweep", "3"]])
    def test_a_small_scaled_pair_is_accepted(self, tmp_path, command, capsys):
        omega = _constant_file(tmp_path / "omega.json", [1e-3 * c for c in W0.coeffs])
        f = _constant_file(tmp_path / "f.json", [1e-3 * c for c in F0.coeffs])
        assert main([command[0], omega, f, *command[1:], "--no-timestamp"]) == 0
        assert capsys.readouterr().err == ""

    def test_a_degenerate_omega_is_one_error_line(self, tmp_path, capsys):
        omega = _constant_file(tmp_path / "omega.json", [0, 0, 1e4, 1e-6, 0, 0])
        f = _constant_file(tmp_path / "f.json", list(F0.coeffs))
        assert main(["verify", omega, f]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: omega is degenerate")
