"""Every verdict at its bound: a residual at (1 - eps), 1 and (1 + eps) times
the bound its site compares it with, at every scale t of ``SCALES``.

Inputs are exact (Fraction multiples of the pair omega = t omega0,
F = t F0) and each is built so that one residual is the chosen multiple of
the float bound and every other residual is zero or far inside its own
bound.  At 1 the residual equals the bound exactly, so a site that compares
with ``<=`` passes there and one that compares with ``>`` fails: swapping
the two is caught, and so is a wrong factor or unit in the bound.  The
bounds are those of the package's one rule, tol * u^(d/2) for a residual
of degree d in the unit u of ``omega_unit``, and the floor max(tol, 1e-9) of
the I^2 = -Id guard; each is written out here by hand, not read from the
package's ``tol_bound``, so the oracle does not check itself.  In the slot
order (12, 13, 14, 23, 24, 34), omega0 = e^14 + e^23 pairs e^14 with e^23,
F0 = e^13 - e^24 pairs e^13 with e^24, and e^12 pairs with e^34 alone, so a
term on e^12 wedges to zero against both.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from branekit import cli
from branekit.brane_check import (
    constant_branes_pass,
    linearized_deformation_check,
    verify_brane,
    verify_holomorphic_symplectic,
)
from branekit.cohomology import class_of_constant_form
from branekit.errors import NonDegenerateRequired, NotPointwiseBrane
from branekit.exterior4 import Form2, check_omega, omega_unit, pfaffian
from branekit.period_domain import QuadricSpec, quadric_contains
from branekit.torus_forms import (
    TrigPolyFn,
    TrigPolyForm2,
    standard_brane,
    standard_symplectic,
)

from test_verdict_scale import SCALES, _constant_doc, _run

W0 = standard_symplectic()
F0 = standard_brane()
TOL = 1e-9
EPS = Fraction(1, 10**6)
#: the multiples of a bound, and the verdicts of a site that passes at <=
RATIOS = (1 - EPS, 1, 1 + EPS)
AT_MOST = (True, True, False)


def _pair(t):
    """(omega, F) = t (omega0, F0), exact, with u = omega_unit(omega) = t^2."""
    t = Fraction(t)
    return t, t * W0, t * F0


def _multiples(bound):
    """The bound, a float, at each of RATIOS, exactly."""
    return [Fraction(bound) * ratio for ratio in RATIOS]


def _sin_x3(coeff, slot=0):
    """coeff sin(x3) on one slot (e^12 by default); d of it is coeff cos(x3)
    e^123 up to sign, of coefficient norm |coeff|."""
    fns = [0] * 6
    fns[slot] = TrigPolyFn.mode((0, 0, 1, 0), sin=coeff)
    return TrigPolyForm2.from_fns(fns)


@pytest.mark.parametrize("t", SCALES)
class TestBraneSites:
    def test_square(self, t):
        # F^F - omega^omega = 2 t b from t e^12 + b e^34; F^omega = 0
        t, omega, f = _pair(t)
        for target, want in zip(_multiples(TOL * omega_unit(omega)), AT_MOST):
            form = f + Form2(c12=t, c34=target / (2 * t))
            report = verify_brane(omega, form)
            assert report.wedge_square_resid == target and report.wedge_orth_resid == 0
            assert report.passed is want
            # the real part re^re - im^im of (F + i omega)^2 meets tol * u too
            assert report.hol_symp.passed is want
            assert verify_holomorphic_symplectic(form, omega).passed is want

    def test_orth(self, t):
        # F^omega = t z from z e^14; F^F is unchanged
        t, omega, f = _pair(t)
        for target, want in zip(_multiples(TOL * omega_unit(omega)), AT_MOST):
            form = f + Form2(c14=target / t)
            report = verify_brane(omega, form)
            assert report.wedge_orth_resid == target and report.wedge_square_resid == 0
            assert report.passed is want
            # the imaginary part 2 F^omega meets 2 tol * u
            assert report.hol_symp.square_resid == 2 * target
            assert report.hol_symp.passed is want
            assert verify_holomorphic_symplectic(form, omega).passed is want

    def test_closedness(self, t):
        # F = t F0 + delta sin(x3) e^12: its wedges vanish at every point, and
        # dF has coefficient norm delta, of degree 1: it meets tol * sqrt(u)
        t, omega, f = _pair(t)
        for target, want in zip(_multiples(TOL * math.sqrt(omega_unit(omega))), AT_MOST):
            form = TrigPolyForm2.from_constant(f) + _sin_x3(target)
            report = verify_brane(omega, form, grid=4)
            assert report.closedness_resid == float(target)  # the grid reports floats
            assert report.wedge_square_resid == report.wedge_orth_resid == 0
            assert report.passed is want
            assert report.hol_symp.passed is want
            assert verify_holomorphic_symplectic(form, omega, grid=4).passed is want

    def test_orientation(self, t):
        # at tol < 2 F^F <= 0 fails the square residual first (it is at
        # least omega^omega = 2u); at tol = 2.5 an omega with
        # |pf| / max|coefficient|^2 = 3 leaves the verdict to F^F > 0
        t = Fraction(t)
        omega = t * Form2(1, 1, 1, 1, -1, 1)
        assert pfaffian(omega) == 3 * t * t
        forms = [t / 1000 * Form2(c12=1, c34=-1), Form2(), t / 1000 * Form2(c12=1, c34=1)]
        for form, want in zip(forms, (False, False, True)):
            report = verify_brane(omega, form, tol=2.5)
            assert report.wedge_square_resid <= 2.5 * omega_unit(omega)
            assert report.orientation_ok is want and report.passed is want
            stacked = tuple(np.full(1, float(c)) for c in form.coeffs)
            assert constant_branes_pass(omega, stacked, tol=2.5).tolist() == [want]


@pytest.mark.parametrize("t", SCALES)
class TestHolomorphicSymplecticPositivity:
    def test_positivity(self, t):
        # (re + i im)^(conjugate) = re^re + im^im must exceed tol * u.  With
        # re^re = im^im it is 4u, so positivity decides a verdict only at
        # tol >= 2; at tol = 4, re = t F0 + t e^12 + b e^34 moves it by 2 t b
        # while re^re - im^im = 2 t b stays far inside 4u
        t, im, re = _pair(t)
        u = float(2 * t * t) / 2  # the unit: peak |im^im| / 2
        for target, want in zip(_multiples(4 * u), (False, False, True)):
            form = re + Form2(c12=t, c34=(target - 4 * t * t) / (2 * t))
            report = verify_holomorphic_symplectic(form, im, tol=4)
            assert report.positivity_min == target
            assert report.passed is want


@pytest.mark.parametrize("t", SCALES)
class TestLinearizedDeformationSites:
    def test_type_part(self, t):
        # alpha = z e^14: alpha^F = 0 and alpha^omega = t z, so the
        # (2,0)+(0,2) part is (z / 2) omega0, of largest coefficient |z| / 2
        t, omega, f = _pair(t)
        for target, want in zip(_multiples(TOL * math.sqrt(omega_unit(omega))), AT_MOST):
            assert linearized_deformation_check(omega, f, Form2(c14=2 * target)) is want

    def test_closedness(self, t):
        # alpha = delta sin(x3) e^12 is of type (1,1) everywhere, and
        # d alpha has coefficient norm delta
        t, omega, f = _pair(t)
        for target, want in zip(_multiples(TOL * math.sqrt(omega_unit(omega))), AT_MOST):
            assert linearized_deformation_check(omega, f, _sin_x3(target)) is want


def _quadric(omega):
    """The period quadric of the torus class of omega."""
    w = class_of_constant_form(omega)
    return QuadricSpec(w.space, w)


@pytest.mark.parametrize("t", SCALES)
class TestQuadricSites:
    """c.omega and c.c - omega.omega against tol * |omega.omega| / 2.  For the
    class of a constant F they are F^omega and F^F - omega^omega, so the
    forms of the brane square and orth sites serve here too."""

    def test_orth_pairing(self, t):
        t, omega, f = _pair(t)
        q = _quadric(omega)
        for target, want in zip(_multiples(TOL * abs(float(q.omega_sq)) / 2), AT_MOST):
            c = class_of_constant_form(f + Form2(c14=target / t))
            assert c.pair(q.omega) == target and c.pair(c) == q.omega_sq
            assert quadric_contains(q, c) is want

    def test_square_pairing(self, t):
        t, omega, f = _pair(t)
        q = _quadric(omega)
        for target, want in zip(_multiples(TOL * abs(float(q.omega_sq)) / 2), AT_MOST):
            c = class_of_constant_form(f + Form2(c12=t, c34=target / (2 * t)))
            assert c.pair(c) - q.omega_sq == target and c.pair(q.omega) == 0
            assert quadric_contains(q, c) is want


def test_orth_at_a_subnormal_bound():
    # omega = 2^-500 omega0 has u = 2^-1000, so tol * u is subnormal and
    # 2 * tol * u is not twice it.  F^omega (the brane check), re^im (half
    # the imaginary part of (F + i omega)^2) and c.omega (the quadric) meet
    # the one bound tol * u alike, so the three verdicts agree at it
    t = Fraction(2) ** -500
    omega, f = t * W0, t * F0
    u = omega_unit(omega)
    assert TOL * u < sys.float_info.min and 2 * TOL * u != 2 * (TOL * u)
    q = _quadric(omega)
    for target, want in zip(_multiples(TOL * u), AT_MOST):
        form = f + Form2(c14=target / t)
        report = verify_brane(omega, form)
        assert report.wedge_orth_resid == target
        assert report.passed is want and report.hol_symp.passed is want
        assert quadric_contains(q, class_of_constant_form(form)) is want


FLAT_TOL = 1e-6  # the nijenhuis command's flat tolerance


@pytest.mark.parametrize("t", SCALES)
class TestNijenhuisFlag:
    """``integrable_iff_closed`` asks that the defect (degree 0) is at most
    flat_tol exactly when max_dF (degree 1) is at most flat_tol * sqrt(u).
    The defect and max_dF are stubbed, one of them at a multiple of its
    bound and the other 0, so the flag is true exactly when that one passes."""

    def _flag(self, monkeypatch, omega, f, defect, max_df):
        monkeypatch.setattr(cli, "nijenhuis_defect", lambda *args, **kw: (defect, max_df))
        code, report = _run("nijenhuis", _constant_doc(omega), _constant_doc(f))
        assert report["max_defect"] == defect and report["max_dF"] == max_df
        assert code == (0 if report["integrable_iff_closed"] else 1)
        return report["integrable_iff_closed"]

    def test_defect(self, t, monkeypatch):
        _, omega, f = _pair(t)
        for target, want in zip(_multiples(FLAT_TOL), AT_MOST):
            assert self._flag(monkeypatch, omega, f, float(target), 0.0) is want

    def test_max_df(self, t, monkeypatch):
        _, omega, f = _pair(t)
        # the command reads omega from its file in floats
        u = omega_unit(Form2(*map(float, omega.coeffs)))
        for target, want in zip(_multiples(FLAT_TOL * math.sqrt(u)), AT_MOST):
            assert self._flag(monkeypatch, omega, f, 0.0, float(target)) is want


def _guard_passes(omega, form, tol):
    """False when the I^2 = -Id guard refuses the pair, else the (true)
    verdict of the linearised check on alpha = 0."""
    try:
        return linearized_deformation_check(omega, form, Form2(), tol=tol)
    except NotPointwiseBrane:
        return False


@pytest.mark.parametrize("t", SCALES)
@pytest.mark.parametrize("tol, bound", [(0.0, 1e-9), (1e-12, 1e-9), (1e-7, 1e-7)])
class TestISquareGuard:
    """max(|2c|, |1 - r|) at most max(tol, 1e-9), with 2c = 2 F^omega /
    omega^omega and r = F^F / omega^omega, both of degree 0."""

    def test_one_minus_r(self, t, tol, bound):
        # F = t (1 - y) e^13 - t e^24 has 1 - r = y and 2c = 0
        t, omega, _ = _pair(t)
        for sign in (1, -1):
            for target, want in zip(_multiples(bound), AT_MOST):
                form = Form2(c13=t * (1 - sign * target), c24=-t)
                assert _guard_passes(omega, form, tol) is want

    def test_two_c(self, t, tol, bound):
        # F = t F0 + z e^14 has 2c = z / t and r = 1
        t, omega, f = _pair(t)
        for sign in (1, -1):
            for target, want in zip(_multiples(bound), AT_MOST):
                assert _guard_passes(omega, f + Form2(c14=sign * t * target), tol) is want

    def test_one_minus_r_on_the_grid(self, t, tol, bound):
        # the same 1 - r = y at every grid point: the e^12 term wedges to
        # zero against F and omega, so only the float rounding of r is left
        t, omega, _ = _pair(t)
        for sign in (1, -1):
            for ratio, want in ((0.999, True), (1.001, False)):
                y = sign * ratio * bound
                form = (TrigPolyForm2.from_constant(Form2(c13=t * (1 - y), c24=-t))
                        + _sin_x3(t, slot=0))
                assert _guard_passes(omega, form, tol) is want


@pytest.mark.parametrize("t", SCALES)
def test_check_omega_at_its_bound(t):
    # omega is refused unless |pf(omega)| / m / m > tol, m = max |coefficient|
    omega = Fraction(t) * Form2(c14=1, c23=Fraction(1, 2))
    m = float(omega.max_abs())
    ratio = abs(float(pfaffian(omega))) / m / m
    for scale, refused in zip(RATIOS, (True, True, False)):
        tol = float(Fraction(ratio) / scale)  # the ratio is at `scale` times tol
        if refused:
            with pytest.raises(NonDegenerateRequired):
                check_omega(omega, tol)
            with pytest.raises(NonDegenerateRequired):
                verify_brane(omega, Form2(c13=1), tol=tol)
        else:
            assert check_omega(omega, tol) == pfaffian(omega)
