"""Verification of the brane and holomorphic-symplectic conditions.

A closed 2-form F is a spacefilling brane structure for a symplectic form
omega exactly when

    (1)  F ^ F = omega ^ omega   (with F ^ F inducing the given orientation),
    (2)  F ^ omega = 0,
    (3)  dF = 0,

equivalently when the complex 2-form F + i*omega is non-degenerate,
isotropic and closed.  The checks below report residuals for the two
formulations; for constant forms everything is evaluated exactly (rational
inputs stay rational), for trigonometric-polynomial forms the wedge
residuals are maximised over a uniform grid while the exterior derivative
is always exact.  Each check states its per-block values and its verdict;
the walk and its reduction are ``torus_forms.fold_walk``'s, and both
reports read the one wedge block of :func:`_wedge_block`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exterior4 import (
    Form2,
    check_omega,
    exact_div,
    half,
    is_exact,
    max_abs,
    omega_unit,
    wedge,
)
from .torus_forms import (check_i_square, exterior_d, fold_walk, i_entries, i_square_terms,
                          walk_points)


@dataclass(frozen=True)
class HolSympReport:
    """Residuals of the holomorphic-symplectic conditions for re + i*im."""

    positivity_min: object  # min over points of (re+i im) ^ conjugate
    square_resid: object  # max norm of (re+i im) ^ (re+i im)
    closedness_resid: object  # exact coefficient norm of d(re), d(im)
    passed: bool
    grid_used: int
    tol: float


@dataclass(frozen=True)
class BraneReport:
    """Residuals of the three brane conditions, plus I^2 + Id reported.

    ``passed`` is true exactly when every condition's residual is at most
    ``tol`` in the unit u = |pf(omega)| of :func:`omega_unit` (the wedge
    residuals at most tol * u, closedness at most tol * sqrt(u)) and F ^ F
    is positive (the orientation content of condition (1)).  The wedges
    decide I^2 = -Id for I = omega^{-1} o F: passing, they bound
    max(|2c|, |1 - r|) of :func:`check_i_square` by tol.  So
    ``i_square_resid``, the largest of the 16 entries of I^2 + Id, is a
    diagnostic only; it depends on the frame and no verdict reads it.
    ``hol_symp`` is the report of F + i*omega, read from the same samples
    and wedges.
    """

    wedge_square_resid: object
    wedge_orth_resid: object
    closedness_resid: object
    i_square_resid: object
    orientation_ok: bool
    passed: bool
    grid_used: int
    tol: float
    hol_symp: HolSympReport


def _closedness_resid(f):
    """Exact coefficient norm of dF; a constant Form2 is closed."""
    return 0 if isinstance(f, Form2) else exterior_d(f).coefficient_norm()


def _wedge_block(rc, ic):
    """One block's values for the report of re + i*im, from the samples
    ``rc`` of re and ``ic`` of im: the peaks of re^re - im^im (the real
    part of (re+i im)^(re+i im), whose imaginary part is 2 re^im), re^im
    and im^im, and the lows of (re+i im)^(conjugate) = re^re + im^im and of
    re^re."""
    w_rr, w_ri, w_ii = wedge(rc, rc), wedge(rc, ic), wedge(ic, ic)
    return [w_rr - w_ii, w_ri, w_ii], [w_rr + w_ii, w_rr]


def _hol_symp_report(peaks, lows, closed, grid_used, tol) -> HolSympReport:
    """The report of re + i*im from the :func:`_wedge_block` values folded
    over a walk and the closedness residuals ``closed`` of re and im.

    The unit is u = peak |im^im| / 2, which is |pf(im)| for a constant im
    (:func:`omega_unit`): the real part meets tol * u and the imaginary
    part 2 re^im meets 2 tol * u, as F^F - omega^omega and F^omega do in
    the brane check; closedness meets tol * sqrt(u), and positivity must
    exceed tol * u everywhere.  A NaN fails."""
    # doubling is exact, so 2 max |re^im| is max |2 re^im| bit for bit
    re_sq, im_sq, u = peaks[0], 2 * peaks[1], float(peaks[2]) / 2
    closed_resid = max_abs(closed)
    passed = (re_sq <= tol * u and im_sq <= 2 * tol * u and closed_resid <= tol * math.sqrt(u)
              and lows[0] > tol * u)
    return HolSympReport(lows[0], max_abs((re_sq, im_sq)), closed_resid, passed, grid_used, tol)


def _brane_passed(r_sq, r_orth, r_closed, orientation_ok, tol, u):
    """The verdict of :class:`BraneReport` from its residuals and the unit
    u of :func:`omega_unit`; elementwise over arrays of residuals.  A NaN
    residual fails."""
    return ((r_sq <= tol * u) & (r_orth <= tol * u) & (r_closed <= tol * math.sqrt(u))
            & orientation_ok)


def verify_brane(omega: Form2, f, grid: int = 8, tol: float = 1e-9) -> BraneReport:
    """Check the three brane conditions for f against omega.

    omega must be a constant non-degenerate 2-form; f may be constant or a
    trig-poly 2-form.  Constant inputs are checked exactly at a single
    fiber; non-constant ones on a uniform grid with ``grid`` points per
    axis (see :func:`fiber_blocks`).  The one walk also gives the
    holomorphic-symplectic report of f + i*omega (``hol_symp``), equal to
    ``verify_holomorphic_symplectic(f, omega, grid, tol)``.  omega must
    pass ``check_omega`` at tol (NonDegenerateRequired otherwise), and tol
    is read in its unit :func:`omega_unit` (see :class:`BraneReport`).
    """
    entries, closed = i_entries(omega, f, tol), _closedness_resid(f)

    def block(fc, oc):
        peaks, lows = _wedge_block(fc, oc)  # F^F - omega^omega, F^omega, omega^omega; F^F last
        terms = i_square_terms(entries(fc), lows[1], peaks[1], peaks[2])
        # dF's norm enters every block, so the fold gives it the walk's type
        return peaks + [terms, [closed]], lows

    peaks, lows = fold_walk(grid, block, f, omega)
    r_sq, r_orth, _, r_i, r_closed = peaks
    oriented, grid_used = bool(lows[1] > 0), walk_points(grid, f)
    passed = _brane_passed(r_sq, r_orth, r_closed, oriented, tol, omega_unit(omega))
    hol_symp = _hol_symp_report(peaks, lows, [closed, _closedness_resid(omega)], grid_used, tol)
    return BraneReport(r_sq, r_orth, r_closed, r_i, oriented, passed, grid_used, tol, hol_symp)


def constant_branes_pass(omega: Form2, fc, tol: float = 1e-9):
    """``verify_brane(omega, F, tol=tol).passed`` for S constant forms F at once.

    ``fc`` holds their six coefficients as (S,) float arrays, one entry per
    form; entry s of the (S,) bool result is form s's verdict, from the
    three wedges of its one-fiber check (a constant form is closed).  omega
    must pass ``check_omega`` at tol (NonDegenerateRequired otherwise).
    """
    check_omega(omega, tol)
    oc = omega.coeffs
    w_ff, w_fo, w_oo = wedge(fc, fc), wedge(fc, oc), wedge(oc, oc)

    def per_form(x):  # an exact omega may leave object arrays of floats
        return np.asarray(x, dtype=float)

    return _brane_passed(np.abs(per_form(w_ff - w_oo)), np.abs(per_form(w_fo)), 0,
                         per_form(w_ff) > 0, tol, omega_unit(omega))


def verify_holomorphic_symplectic(
    re, im, grid: int = 8, tol: float = 1e-9
) -> HolSympReport:
    """Check non-degeneracy, isotropy and closedness of re + i*im.

    The square residual is the max norm of (re+i im)^(re+i im), whose real
    part is re^re - im^im and imaginary part 2 re^im; positivity asks
    (re+i im)^(conjugate) = re^re + im^im to exceed tol everywhere.  tol is
    read in the unit of im, |pf(im)| for a constant im and the walk's peak
    of |im^im| / 2 otherwise (see :func:`_hol_symp_report`).  For
    re + i*omega with a constant omega, ``verify_brane(omega, re).hol_symp``
    gives the same report from the brane check's own walk.
    """
    peaks, lows = fold_walk(grid, _wedge_block, re, im)
    closed = [_closedness_resid(re), _closedness_resid(im)]
    return _hol_symp_report(peaks, lows, closed, walk_points(grid, re, im), tol)


def equivalence_check(omega: Form2, f, grid: int = 8, tol: float = 1e-9) -> bool:
    """True iff the brane check and the holomorphic-symplectic check of
    f + i*omega agree, both read from the one walk of :func:`verify_brane`.

    The two formulations are equivalent, and their wedge tests ask the
    same: F^F - omega^omega and F^omega meet tol * u in the brane check,
    the real and imaginary parts of (F + i omega)^2 meet tol * u and
    2 tol * u; neither reads I^2 + Id.  The one place they can disagree is
    orientation against positivity: the brane check needs F^F > 0 where
    the other needs F^F + omega^omega > tol * u.  Away from tol they agree;
    this is a runnable consistency probe.
    """
    report = verify_brane(omega, f, grid=grid, tol=tol)
    return report.passed == report.hol_symp.passed


def deformation_residuals(omega: Form2, f, alpha, grid: int = 8, tol: float = 1e-9):
    """Residuals of the deformation equations for F -> F + alpha.

    Returns (r_quad, r_orth, r_closed) with
      r_quad   = max | F^alpha + (1/2) alpha^alpha |,
      r_orth   = max | omega^alpha |,
      r_closed = coefficient norm of d(alpha);
    all three vanish exactly when F + alpha is again a brane for omega.
    """
    def block(fc, ac, oc):
        return [wedge(fc, ac) + half(is_exact(*ac)) * wedge(ac, ac), wedge(ac, oc)], []

    return (*fold_walk(grid, block, f, alpha, omega)[0], _closedness_resid(alpha))


def linearized_deformation_check(
    omega: Form2, f, alpha, grid: int = 8, tol: float = 1e-9
) -> bool:
    """True iff alpha is closed and of pure type (1,1) for I = omega^{-1} o F.

    omega must pass ``check_omega`` at tol (NonDegenerateRequired), before
    any verdict, also that of an alpha that is not closed.  Needs I^2 = -Id
    (``check_i_square`` on each block's wedges, else NotPointwiseBrane, a
    NotAlmostComplex): then F + i*omega is of type (2,0), so the
    (2,0)+(0,2) part of alpha is

        ((alpha^F) F + (alpha^omega) omega) / (omega^omega),

    which vanishes exactly when alpha wedges to zero against F and omega.
    Its largest coefficient over the grid, computed block by block (exactly
    at one fiber when F and alpha are constant), and the closedness
    residual of alpha have degree 1 in (omega, F, alpha): both meet
    tol * sqrt(u) in the unit u of :func:`omega_unit`.
    """
    check_omega(omega, tol)
    bound = tol * math.sqrt(omega_unit(omega))
    if _closedness_resid(alpha) > bound:
        return False

    def block(fc, ac, oc):
        vol = wedge(oc, oc)
        check_i_square(wedge(fc, fc), wedge(fc, oc), vol, tol)
        w_f, w_o = wedge(ac, fc), wedge(ac, oc)
        return [exact_div(w_f * x + w_o * y, vol) for x, y in zip(fc, oc)], []

    return bool(max_abs(fold_walk(grid, block, f, alpha, omega)[0]) <= bound)  # NaN fails
