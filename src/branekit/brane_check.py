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
is always exact.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAlmostComplex, NotSkew
from .exterior4 import (
    Form2,
    LinearMap4,
    check_omega,
    exact_div,
    form2_of_matrix,
    half,
    is_almost_complex,
    is_exact,
    matrix_of_form2,
    max_abs,
    omega_unit,
    wedge,
)
from .torus_forms import (check_i_square, constant_coeffs, exterior_d, fiber_blocks,
                          fiber_residuals, i_basis, i_square_peak)


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
    """Residuals of the three brane conditions plus the I^2 = -Id check.

    ``passed`` is true exactly when every residual is at most ``tol`` in
    the unit u = |pf(omega)| of :func:`omega_unit` (the wedge residuals at
    most tol * u, closedness at most tol * sqrt(u), I^2 + Id at most tol)
    and F ^ F is positive (the orientation content of condition (1)).
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


def _peak(x):
    """max |x| over a block: a float on the grid, of x's type at one fiber."""
    return float(np.abs(x).max()) if isinstance(x, np.ndarray) else abs(x)


def _low(x):
    """min x over a block, typed as in :func:`_peak`."""
    return float(x.min()) if isinstance(x, np.ndarray) else x


def _least(values):
    """The smallest value; a NaN anywhere sorts first, so it gives NaN."""
    return min(values, key=lambda v: (v == v, v))


def _hol_symp_block(w_rr, w_ii, w_ri):
    """One block's share of the holomorphic-symplectic report of re + i*im,
    from its wedges re^re, im^im and re^im: the peaks of the real part
    re^re - im^im and of the imaginary part 2 re^im of (re+i im)^(re+i im),
    the least (re+i im)^(conjugate) = re^re + im^im, and the peak of
    im^im."""
    return _peak(w_rr - w_ii), _peak(2 * w_ri), _low(w_rr + w_ii), _peak(w_ii)


def _hol_symp_report(blocks, closed, grid_used, tol) -> HolSympReport:
    """The report of the :func:`_hol_symp_block` quadruples of a walk and
    the closedness residuals ``closed`` of re and im.

    The unit is u = peak |im^im| / 2, which is |pf(im)| for a constant im
    (:func:`omega_unit`): the real part meets tol * u and the imaginary
    part 2 re^im meets 2 tol * u, as F^F - omega^omega and F^omega do in
    the brane check; closedness meets tol * sqrt(u), and positivity must
    exceed tol * u everywhere.  A NaN fails."""
    re_sq, im_sq = (max_abs(block[part] for block in blocks) for part in (0, 1))
    square_resid = max_abs((re_sq, im_sq))
    positivity_min = _least(block[2] for block in blocks)
    closed_resid = max_abs(closed)
    u = float(max_abs(block[3] for block in blocks)) / 2
    passed = (re_sq <= tol * u and im_sq <= 2 * tol * u and closed_resid <= tol * math.sqrt(u)
              and positivity_min > tol * u)
    return HolSympReport(positivity_min, square_resid, closed_resid, passed, grid_used, tol)


def _brane_passed(r_sq, r_orth, r_closed, r_i, orientation_ok, tol, u):
    """The verdict of :class:`BraneReport` from its residuals and the unit
    u of :func:`omega_unit`; elementwise over arrays of residuals.  A NaN
    residual fails."""
    return ((r_sq <= tol * u) & (r_orth <= tol * u) & (r_closed <= tol * math.sqrt(u))
            & (r_i <= tol) & orientation_ok)


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
    basis = None if constant_coeffs(f) is not None else i_basis(omega, tol)
    hs, orth, i_sq, low = [], [], [], []
    for fc, oc in fiber_blocks(grid, f, omega):
        w_ff, w_fo, w_oo, i_terms = fiber_residuals(omega, basis, fc, oc, tol)
        hs.append(_hol_symp_block(w_ff, w_oo, w_fo))
        orth.append(_peak(w_fo))
        i_sq.append(i_square_peak(i_terms))
        low.append(_low(w_ff))
        del fc, w_ff, w_fo, i_terms  # freed before the next block is sampled
    # F^F - omega^omega is the real part of (F + i omega)^(F + i omega)
    r_sq, r_orth, r_i = max_abs(block[0] for block in hs), max_abs(orth), max_abs(i_sq)
    closed = _closedness_resid(f)
    sampled = basis is not None
    r_closed = float(closed) if sampled else closed  # grid: floats
    orientation_ok = bool(_least(low) > 0)
    passed = _brane_passed(r_sq, r_orth, r_closed, r_i, orientation_ok, tol, omega_unit(omega))
    grid_used = grid ** 4 if sampled else 1
    hol_symp = _hol_symp_report(hs, [closed, _closedness_resid(omega)], grid_used, tol)
    return BraneReport(
        r_sq, r_orth, r_closed, r_i, orientation_ok, passed, grid_used, tol, hol_symp
    )


def constant_branes_pass(omega: Form2, fc, tol: float = 1e-9):
    """``verify_brane(omega, F, tol=tol).passed`` for S constant forms F at once.

    ``fc`` holds their six coefficients as (S,) float arrays, one entry per
    form; entry s of the (S,) bool result is form s's verdict, from the
    :func:`fiber_residuals` of its one-fiber check (a constant form is
    closed).  Only the reductions are per entry: the I^2 + Id peak is the
    max over the 16 entries of each form.  omega must pass ``check_omega``
    at tol (NonDegenerateRequired otherwise).
    """
    w_ff, w_fo, w_oo, i_terms = fiber_residuals(omega, None, fc, omega.coeffs, tol)

    def per_form(x):  # an exact omega may leave object arrays of floats
        return np.asarray(x, dtype=float)

    r_i = np.abs(per_form(i_terms)).max(axis=0)  # ndarray.max keeps a NaN
    return _brane_passed(np.abs(per_form(w_ff - w_oo)), np.abs(per_form(w_fo)), 0, r_i,
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
    blocks = []
    for rc, ic in fiber_blocks(grid, re, im):
        w_ri = wedge(rc, ic)  # an array when either part is sampled
        blocks.append(_hol_symp_block(wedge(rc, rc), wedge(ic, ic), w_ri))
    grid_used = grid ** 4 if isinstance(w_ri, np.ndarray) else 1
    closed = [_closedness_resid(re), _closedness_resid(im)]
    return _hol_symp_report(blocks, closed, grid_used, tol)


def equivalence_check(omega: Form2, f, grid: int = 8, tol: float = 1e-9) -> bool:
    """True iff the brane check and the holomorphic-symplectic check of
    f + i*omega agree, both read from the one walk of :func:`verify_brane`.

    The two formulations are equivalent, and their wedge tests ask the
    same: F^F - omega^omega and F^omega meet tol * u in the brane check,
    the real and imaginary parts of (F + i omega)^2 meet tol * u and
    2 tol * u.  They can still disagree near tol where they ask different
    things: the brane check also needs I^2 + Id at most tol, and F^F > 0
    where the other needs F^F + omega^omega > tol * u.  Away from tol they
    agree; this is a runnable consistency probe.
    """
    report = verify_brane(omega, f, grid=grid, tol=tol)
    return report.passed == report.hol_symp.passed


def brane_of_complex_structure(omega: Form2, i: LinearMap4, tol: float = 1e-9) -> Form2:
    """F = omega o I, the brane form of an almost complex structure.

    Requires i to square to -Id and omega(i., .) to be antisymmetric; the
    round trip compose_i(omega, F) recovers i.  Fields of maps are handled
    by applying this pointwise.
    """
    if not is_almost_complex(i, tol):
        raise NotAlmostComplex("I^2 != -Id")
    b_omega = LinearMap4.from_rows(matrix_of_form2(omega))
    b_f = (i.transpose() @ b_omega).m
    sym = max_abs(b_f[a][b] + b_f[b][a] for a in range(4) for b in range(4))
    if not sym <= tol:
        raise NotSkew(f"omega o I has symmetric part {sym}")
    return form2_of_matrix(b_f)


def deformation_residuals(omega: Form2, f, alpha, grid: int = 8, tol: float = 1e-9):
    """Residuals of the deformation equations for F -> F + alpha.

    Returns (r_quad, r_orth, r_closed) with
      r_quad   = max | F^alpha + (1/2) alpha^alpha |,
      r_orth   = max | omega^alpha |,
      r_closed = coefficient norm of d(alpha);
    all three vanish exactly when F + alpha is again a brane for omega.
    """
    quad, orth = [], []
    for fc, ac, oc in fiber_blocks(grid, f, alpha, omega):
        quad.append(_peak(wedge(fc, ac) + half(is_exact(*ac)) * wedge(ac, ac)))
        orth.append(_peak(wedge(ac, oc)))
    return max_abs(quad), max_abs(orth), _closedness_resid(alpha)


def linearized_deformation_check(
    omega: Form2, f, alpha, grid: int = 8, tol: float = 1e-9
) -> bool:
    """True iff alpha is closed and of pure type (1,1) for I = omega^{-1} o F.

    omega must pass ``check_omega`` at tol (NonDegenerateRequired), before
    any verdict, also that of an alpha that is not closed.  Needs I^2 = -Id
    (``check_i_square``, else NotPointwiseBrane, a NotAlmostComplex): then
    F + i*omega is of type (2,0), so the (2,0)+(0,2) part of alpha is

        ((alpha^F) F + (alpha^omega) omega) / (omega^omega),

    which vanishes exactly when alpha wedges to zero against F and omega.
    Its largest coefficient over the grid, computed block by block (exactly
    at one fiber when F and alpha are constant), is compared with tol.
    """
    check_omega(omega, tol)
    if _closedness_resid(alpha) > tol:
        return False
    basis = None if constant_coeffs(f) is not None else i_basis(omega, tol)
    peaks = []
    for fc, ac, oc in fiber_blocks(grid, f, alpha, omega):
        _, _, vol, i_terms = fiber_residuals(omega, basis, fc, oc, tol)
        check_i_square(i_terms, tol)
        w_f, w_o = wedge(ac, fc), wedge(ac, oc)
        peaks += [_peak(exact_div(w_f * x + w_o * y, vol)) for x, y in zip(fc, oc)]
        del fc, ac, i_terms, w_f, w_o  # freed before the next block is sampled
    return bool(max_abs(peaks) <= tol)  # a NaN never passes
