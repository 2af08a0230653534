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
    square_resid,
    wedge,
    wedge22,
)
from .torus_forms import (
    TrigPolyForm2,
    as_trig,
    check_omega,
    exterior_d,
    i_basis,
    i_field,
    i_square_resid,
    uniform_grid,
)


@dataclass(frozen=True)
class BraneReport:
    """Residuals of the three brane conditions plus the I^2 = -Id check.

    ``passed`` is true exactly when every residual is at most ``tol`` and
    F ^ F is positive (the orientation content of condition (1)).
    """

    wedge_square_resid: object
    wedge_orth_resid: object
    closedness_resid: object
    i_square_resid: object
    orientation_ok: bool
    passed: bool
    grid_used: int
    tol: float


@dataclass(frozen=True)
class HolSympReport:
    """Residuals of the holomorphic-symplectic conditions for re + i*im."""

    positivity_min: object  # min over points of (re+i im) ^ conjugate
    square_resid: object  # max norm of (re+i im) ^ (re+i im)
    closedness_resid: object  # exact coefficient norm of d(re), d(im)
    passed: bool
    grid_used: int
    tol: float


def _closedness_resid(f: TrigPolyForm2):
    df = exterior_d(f)
    return df.coefficient_norm()


def verify_brane(omega: Form2, f, grid: int = 8, tol: float = 1e-9) -> BraneReport:
    """Check the three brane conditions for f against omega.

    omega must be a constant non-degenerate 2-form; f may be constant or a
    trig-poly 2-form.  Constant inputs are checked exactly at a single
    fiber; non-constant ones on a uniform grid with ``grid`` points per
    axis.
    """
    check_omega(omega, tol)
    f = as_trig(f)
    target = wedge22(omega, omega).v

    if f.is_constant:
        fc = f.constant_part()
        w_ff = wedge22(fc, fc).v
        r_sq = abs(w_ff - target)
        r_orth = abs(wedge22(fc, omega).v)
        r_closed = 0
        r_i = square_resid(compose_i(omega, fc, tol=min(tol, 1e-12)))
        orientation_ok = w_ff > 0
        grid_used = 1
    else:
        pts = uniform_grid(grid)
        coeff = f.eval_grid(pts)
        w_ff = wedge(coeff.T, coeff.T)
        w_fo = wedge(coeff.T, [float(v) for v in omega.coeffs])
        r_sq = float(np.abs(w_ff - float(target)).max())
        r_orth = float(np.abs(w_fo).max())
        r_closed = float(_closedness_resid(f))
        r_i = i_square_resid(i_field(i_basis(omega), coeff))
        orientation_ok = bool(w_ff.min() > 0)
        grid_used = len(pts)

    passed = (
        r_sq <= tol and r_orth <= tol and r_closed <= tol and r_i <= tol and orientation_ok
    )
    return BraneReport(r_sq, r_orth, r_closed, r_i, orientation_ok, passed, grid_used, tol)


def verify_holomorphic_symplectic(
    re, im, grid: int = 8, tol: float = 1e-9
) -> HolSympReport:
    """Check non-degeneracy, isotropy and closedness of re + i*im.

    The square residual is the max norm of (re+i im)^(re+i im), whose real
    part is re^re - im^im and imaginary part 2 re^im; positivity asks
    (re+i im)^(conjugate) = re^re + im^im to exceed tol everywhere.
    """
    re, im = as_trig(re), as_trig(im)
    if re.is_constant and im.is_constant:
        rc, ic = re.constant_part(), im.constant_part()
        w_rr = wedge22(rc, rc).v
        w_ii = wedge22(ic, ic).v
        w_ri = wedge22(rc, ic).v
        square_resid = max(abs(w_rr - w_ii), abs(2 * w_ri))
        positivity_min = w_rr + w_ii
        grid_used = 1
    else:
        pts = uniform_grid(grid)
        rc = re.eval_grid(pts).T
        ic = im.eval_grid(pts).T
        w_rr = wedge(rc, rc)
        w_ii = wedge(ic, ic)
        w_ri = wedge(rc, ic)
        square_resid = float(
            np.maximum(np.abs(w_rr - w_ii), np.abs(2 * w_ri)).max()
        )
        positivity_min = float((w_rr + w_ii).min())
        grid_used = len(pts)
    closed_resid = max(_closedness_resid(re), _closedness_resid(im))
    passed = square_resid <= tol and closed_resid <= tol and positivity_min > tol
    return HolSympReport(positivity_min, square_resid, closed_resid, passed, grid_used, tol)


def equivalence_check(omega: Form2, f, grid: int = 8, tol: float = 1e-9) -> bool:
    """True iff the brane check and the holomorphic-symplectic check agree.

    The two formulations are equivalent, so this always returns True; it
    exists as a runnable consistency probe.
    """
    sb = verify_brane(omega, f, grid=grid, tol=tol)
    hs = verify_holomorphic_symplectic(f, omega, grid=grid, tol=tol)
    return sb.passed == hs.passed


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
    sym = max(
        abs(b_f[a][b] + b_f[b][a]) for a in range(4) for b in range(4)
    )
    if sym > tol:
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
    f, alpha = as_trig(f), as_trig(alpha)
    if f.is_constant and alpha.is_constant:
        fc, ac = f.constant_part(), alpha.constant_part()
        h = half(is_exact(*ac.coeffs))
        r_quad = abs(wedge22(fc, ac).v + h * wedge22(ac, ac).v)
        r_orth = abs(wedge22(omega, ac).v)
    else:
        pts = uniform_grid(grid)
        fc = f.eval_grid(pts).T
        ac = alpha.eval_grid(pts).T
        oc = [float(v) for v in omega.coeffs]
        r_quad = float(np.abs(wedge(fc, ac) + 0.5 * wedge(ac, ac)).max())
        r_orth = float(np.abs(wedge(ac, oc)).max())
    r_closed = _closedness_resid(alpha)
    return r_quad, r_orth, r_closed


def linearized_deformation_check(
    omega: Form2, f, alpha, grid: int = 8, tol: float = 1e-9
) -> bool:
    """True iff alpha is closed and of pure type (1,1) for I = omega^{-1} o F.

    Needs I^2 = -Id (else NotAlmostComplex, beyond max(tol, 1e-9)): then
    F + i*omega is of type (2,0), so the (2,0)+(0,2) part of alpha is

        ((alpha^F) F + (alpha^omega) omega) / (omega^omega),

    which vanishes exactly when alpha wedges to zero against F and omega.
    Its largest coefficient over the grid, computed in one batch (exactly
    at one fiber when F and alpha are constant), is compared with tol.
    """
    f, alpha = as_trig(f), as_trig(alpha)
    if _closedness_resid(alpha) > tol:
        return False
    # compose_i raises NonDegenerateRequired for a degenerate omega, whatever F is
    i_const = compose_i(omega, f.constant_part())
    if f.is_constant and alpha.is_constant:
        fc, ac, oc = f.constant_part().coeffs, alpha.constant_part().coeffs, omega.coeffs
    else:
        pts = uniform_grid(grid)
        fc, ac = f.eval_grid(pts).T, alpha.eval_grid(pts).T
        oc = [float(v) for v in omega.coeffs]
    if f.is_constant:
        resid = square_resid(i_const)
    else:
        resid = i_square_resid(i_field(i_basis(omega), fc.T))
    if not resid <= max(tol, 1e-9):
        raise NotAlmostComplex("type projection needs I*I = -Id")
    w_f, w_o, vol = wedge(ac, fc), wedge(ac, oc), wedge(oc, oc)
    p2002 = np.array([exact_div(w_f * x + w_o * y, vol) for x, y in zip(fc, oc)])
    return bool(np.abs(p2002).max() <= tol)  # a NaN never passes
