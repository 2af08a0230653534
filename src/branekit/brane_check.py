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

from dataclasses import dataclass

import numpy as np

from .errors import NotAlmostComplex, NotSkew
from .exterior4 import (
    Form2,
    LinearMap4,
    compose_i,
    exact_div,
    form2_of_matrix,
    half,
    is_almost_complex,
    is_exact,
    matrix_of_form2,
    max_abs,
    square_resid,
    wedge,
)
from .torus_forms import check_omega, closed_i_square_resid, exterior_d, fiber_blocks, i_basis


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

    ``passed`` is true exactly when every residual is at most ``tol`` and
    F ^ F is positive (the orientation content of condition (1)).
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
    and the least (re+i im)^(conjugate) = re^re + im^im."""
    return _peak(w_rr - w_ii), _peak(2 * w_ri), _low(w_rr + w_ii)


def _hol_symp_report(blocks, closed, grid_used, tol) -> HolSympReport:
    """The report of the :func:`_hol_symp_block` triples of a walk and the
    closedness residuals ``closed`` of re and im; positivity must exceed
    tol everywhere."""
    square_resid = max_abs(peak for block in blocks for peak in block[:2])
    positivity_min = _least(block[2] for block in blocks)
    closed_resid = max_abs(closed)
    passed = square_resid <= tol and closed_resid <= tol and positivity_min > tol
    return HolSympReport(positivity_min, square_resid, closed_resid, passed, grid_used, tol)


def _i_square_peak(omega, tol):
    """max |I^2 + Id| over a block of F's rows, as a function of the rows and
    the block's wedges F^F, F^omega and omega^omega: exactly by compose_i at
    one fiber; on the grid by the closed form 2c I + (1 - r) Id of
    :func:`closed_i_square_resid`, where the first block builds the one
    i_basis of the call; NonDegenerateRequired when pf(omega)^2 <= tol."""
    basis = None

    def peak(rows, w_ff, w_fo, w_oo):
        nonlocal basis
        if not isinstance(rows, np.ndarray):
            return square_resid(compose_i(omega, Form2.from_coeffs(rows), tol))
        if basis is None:
            basis = i_basis(omega, tol)
        return closed_i_square_resid(basis, rows, w_ff, w_fo, w_oo)

    return peak


def verify_brane(omega: Form2, f, grid: int = 8, tol: float = 1e-9) -> BraneReport:
    """Check the three brane conditions for f against omega.

    omega must be a constant non-degenerate 2-form; f may be constant or a
    trig-poly 2-form.  Constant inputs are checked exactly at a single
    fiber; non-constant ones on a uniform grid with ``grid`` points per
    axis (see :func:`fiber_blocks`).  The one walk also gives the
    holomorphic-symplectic report of f + i*omega (``hol_symp``), equal to
    ``verify_holomorphic_symplectic(f, omega, grid, tol)``.
    """
    check_omega(omega, tol)
    i_square_peak = _i_square_peak(omega, min(tol, 1e-12))
    hs, orth, i_sq, low, grid_used = [], [], [], [], 0
    for fc, oc in fiber_blocks(grid, f, omega):
        w_ff, w_fo, w_oo = wedge(fc, fc), wedge(fc, oc), wedge(oc, oc)
        hs.append(_hol_symp_block(w_ff, w_oo, w_fo))
        orth.append(_peak(w_fo))
        i_sq.append(i_square_peak(fc, w_ff, w_fo, w_oo))
        low.append(_low(w_ff))
        grid_used += np.size(w_ff)
    # F^F - omega^omega is the real part of (F + i omega)^(F + i omega)
    r_sq, r_orth, r_i = max_abs(block[0] for block in hs), max_abs(orth), max_abs(i_sq)
    closed = _closedness_resid(f)
    r_closed = float(closed) if isinstance(w_ff, np.ndarray) else closed  # grid: floats
    orientation_ok = bool(_least(low) > 0)
    passed = (
        r_sq <= tol and r_orth <= tol and r_closed <= tol and r_i <= tol and orientation_ok
    )
    hol_symp = _hol_symp_report(hs, [closed, _closedness_resid(omega)], grid_used, tol)
    return BraneReport(
        r_sq, r_orth, r_closed, r_i, orientation_ok, passed, grid_used, tol, hol_symp
    )


def verify_holomorphic_symplectic(
    re, im, grid: int = 8, tol: float = 1e-9
) -> HolSympReport:
    """Check non-degeneracy, isotropy and closedness of re + i*im.

    The square residual is the max norm of (re+i im)^(re+i im), whose real
    part is re^re - im^im and imaginary part 2 re^im; positivity asks
    (re+i im)^(conjugate) = re^re + im^im to exceed tol everywhere.  For
    re + i*omega with a constant omega, ``verify_brane(omega, re).hol_symp``
    gives the same report from the brane check's own walk.
    """
    blocks, grid_used = [], 0
    for rc, ic in fiber_blocks(grid, re, im):
        w_ri = wedge(rc, ic)  # an array when either part is sampled
        blocks.append(_hol_symp_block(wedge(rc, rc), wedge(ic, ic), w_ri))
        grid_used += np.size(w_ri)
    closed = [_closedness_resid(re), _closedness_resid(im)]
    return _hol_symp_report(blocks, closed, grid_used, tol)


def equivalence_check(omega: Form2, f, grid: int = 8, tol: float = 1e-9) -> bool:
    """True iff the brane check and the holomorphic-symplectic check of
    f + i*omega agree, both read from the one walk of :func:`verify_brane`.

    The two formulations are equivalent, but their verdicts compare
    different residuals with the same absolute tol, so near tol they can
    disagree: F = F0 + 0.4e-9 omega0 passes the brane check at tol 1e-9
    (|F^omega| = 0.8e-9), while its square residual 2|F^omega| = 1.6e-9
    fails the holomorphic-symplectic one.  Away from tol they agree; this
    is a runnable consistency probe.
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

    Needs I^2 = -Id (else NotAlmostComplex, beyond max(tol, 1e-9)): then
    F + i*omega is of type (2,0), so the (2,0)+(0,2) part of alpha is

        ((alpha^F) F + (alpha^omega) omega) / (omega^omega),

    which vanishes exactly when alpha wedges to zero against F and omega.
    Its largest coefficient over the grid, computed block by block (exactly
    at one fiber when F and alpha are constant), is compared with tol.
    """
    if _closedness_resid(alpha) > tol:
        return False
    i_square_peak, peaks = _i_square_peak(omega, 1e-12), []
    for fc, ac, oc in fiber_blocks(grid, f, alpha, omega):
        vol = wedge(oc, oc)
        # raises NonDegenerateRequired for a degenerate omega, whatever F is
        if not i_square_peak(fc, wedge(fc, fc), wedge(fc, oc), vol) <= max(tol, 1e-9):
            raise NotAlmostComplex("type projection needs I*I = -Id")
        w_f, w_o = wedge(ac, fc), wedge(ac, oc)
        peaks += [_peak(exact_div(w_f * x + w_o * y, vol)) for x, y in zip(fc, oc)]
    return bool(max_abs(peaks) <= tol)  # a NaN never passes
