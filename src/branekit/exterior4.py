"""Exact pointwise multilinear algebra on a 4-dimensional real fiber.

Conventions, fixed once and relied on by every downstream module:

* coordinates (x1, y1, x2, y2) are numbered 1..4, the coframe is
  e1 = dx1, e2 = dy1, e3 = dx2, e4 = dy2;
* a 2-form is stored by its six coefficients on e^{ab} = e^a wedge e^b
  with a < b, in slot order (12, 13, 14, 23, 24, 34);
* the interior product is (i_v s)_j = s(v, e_j), and the bundle map of a
  2-form sends v to i_v s;
* ``compose_i(omega, f)`` returns the unique linear map I with
  omega(I u, .) = f(u, .), i.e. I = omega^{-1} o f under the convention
  above;
* B_omega^{-1} is the closed form -B_{*omega} / pf(omega) of
  :func:`inverse_times`, the only inverse of omega in the package, and
  :func:`check_omega`, which it runs first, is the one rule for when omega
  is non-degenerate;
* :func:`omega_unit`, u = |pf(omega)|, is the one scale of every verdict,
  and :func:`tol_bound` is the one place that scales tol by it: a verdict
  site states its residual's degree, so rescaling (omega, F) leaves every
  verdict alone.

All formulas are plain arithmetic on the stored scalars, so every
operation works identically over floats and over exact ``int`` /
``fractions.Fraction`` inputs.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonDegenerateRequired, NotAlmostComplex

#: bivector slot order used by Form2 (1-based index pairs a < b)
BIVECTOR_SLOTS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def is_exact(*values):
    """True when every value is an int or a Fraction, so arithmetic stays exact.

    int, Fraction and float are told by their type alone; only other types
    pay ``isinstance``, whose Fraction test is an ABC check.
    """
    for v in values:
        t = type(v)
        if t is int or t is Fraction:
            continue
        if t is float or not isinstance(v, (int, Fraction)):
            return False
    return True


def half(exact):
    """1/2 as a Fraction on the exact path, as a float otherwise."""
    return Fraction(1, 2) if exact else 0.5


def exact_div(num, den):
    """num / den, staying in Fractions when both operands are exact."""
    if is_exact(num, den):
        return Fraction(num) / Fraction(den)
    return num / den


def max_abs(values):
    """The largest |v|, of the values' own scalar type; a NaN anywhere gives
    NaN (the builtin ``max`` keeps a NaN only when it comes first)."""
    it = iter(values)
    out = abs(next(it))
    for v in it:
        a = abs(v)
        if a > out or a != a:
            out = a
    return out


@dataclass(frozen=True)
class Form1:
    """A 1-form, coefficients on (dx1, dy1, dx2, dy2)."""

    c: tuple


@dataclass(frozen=True)
class Form2:
    """A 2-form, coefficients on e^{12}, e^{13}, e^{14}, e^{23}, e^{24}, e^{34}."""

    c12: object = 0
    c13: object = 0
    c14: object = 0
    c23: object = 0
    c24: object = 0
    c34: object = 0

    @property
    def coeffs(self):
        return (self.c12, self.c13, self.c14, self.c23, self.c24, self.c34)

    @classmethod
    def from_coeffs(cls, coeffs):
        return cls(*coeffs)

    def __add__(self, other):
        return Form2.from_coeffs(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return Form2.from_coeffs(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return Form2.from_coeffs(tuple(-a for a in self.coeffs))

    def __rmul__(self, s):
        return Form2.from_coeffs(tuple(s * a for a in self.coeffs))

    __mul__ = __rmul__

    def max_abs(self):
        return max_abs(self.coeffs)


@dataclass(frozen=True)
class Form4:
    """A 4-form, single coefficient on e^{1234}."""

    v: object = 0


@dataclass(frozen=True)
class LinearMap4:
    """A linear map on tangent coefficients in the basis (dx1_dual..dy2_dual).

    ``m`` is a 4-tuple of 4-tuples of scalars; (M v)_k = sum_i m[k][i] v_i.
    """

    m: tuple

    @classmethod
    def from_rows(cls, rows):
        return cls(tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls):
        return cls.from_rows([[1 if i == j else 0 for j in range(4)] for i in range(4)])

    def __matmul__(self, other):
        rows = [
            [sum(self.m[i][k] * other.m[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        return LinearMap4.from_rows(rows)

    def transpose(self):
        return LinearMap4.from_rows(tuple(zip(*self.m)))

    def max_abs(self):
        return max_abs(e for row in self.m for e in row)


def matrix_of_form2(f: Form2):
    """Full antisymmetric 4x4 matrix B with B[a][b] = f(e_{a+1}, e_{b+1})."""
    (c12, c13, c14, c23, c24, c34) = f.coeffs
    z = 0 * c12  # keeps the scalar type of the input
    return (
        (z, c12, c13, c14),
        (-c12, z, c23, c24),
        (-c13, -c23, z, c34),
        (-c14, -c24, -c34, z),
    )


def form2_of_matrix(b):
    """Inverse of :func:`matrix_of_form2`; reads the strict upper triangle."""
    return Form2(
        c12=b[0][1], c13=b[0][2], c14=b[0][3], c23=b[1][2], c24=b[1][3], c34=b[2][3]
    )


def wedge(a, b):
    """Coefficient on e^{1234} of a wedge b, for 6-sequences in slot order.

    Plain ring arithmetic, so the entries may be exact scalars, numpy
    arrays (the rows ``coeff.T`` of an (N, 6) grid evaluation) or
    trig polynomials alike.  Symmetric and bilinear.
    """
    a12, a13, a14, a23, a24, a34 = a
    b12, b13, b14, b23, b24, b34 = b
    return a12 * b34 + a34 * b12 - a13 * b24 - a24 * b13 + a14 * b23 + a23 * b14


def wedge22(a: Form2, b: Form2) -> Form4:
    """Wedge product of two 2-forms; wedge22(a, a) vanishes for decomposable a."""
    return Form4(wedge(a.coeffs, b.coeffs))


def pfaffian(f: Form2):
    """Pfaffian of the matrix of f; its square is the determinant."""
    return f.c12 * f.c34 - f.c13 * f.c24 + f.c14 * f.c23


def interior(v, s: Form2) -> Form1:
    """Interior product (i_v s)_j = s(v, e_j) for tangent coefficients v."""
    b = matrix_of_form2(s)
    return Form1(tuple(sum(v[a] * b[a][j] for a in range(4)) for j in range(4)))


def check_omega(omega: Form2, tol):
    """Raise NonDegenerateRequired unless |pf(omega)| / m / m > tol, with m
    the largest |coefficient| of omega (the ratio is :func:`omega_unit` / m^2):
    the one non-degeneracy rule of the package, unchanged when omega is
    rescaled.  m = 0 and NaN are degenerate.  Computed in floats, so an
    exact pf beyond the float range raises OverflowError.  Returns
    pf(omega), of omega's own scalar type.
    """
    pf, m = pfaffian(omega), float(omega.max_abs())
    ratio = abs(float(pf)) / m / m if m else 0.0
    if not ratio > tol:
        raise NonDegenerateRequired(
            f"omega is degenerate: |pf| / max|coefficient|^2 is {ratio:.3e}, not above {tol:.1e}")
    return pf


def omega_unit(omega: Form2) -> float:
    """u = |pf(omega)| as a float, the scale every verdict reads tol
    against (omega ^ omega = 2 pf(omega) e^{1234}): a residual of degree d
    in (omega, F) passes when it is at most ``tol_bound(tol, u, d)``.  The
    wedges F^F - omega^omega and F^omega have degree 2, dF degree 1, and
    I^2 + Id and the Nijenhuis defect degree 0 (I is free of scale).
    """
    return abs(float(pfaffian(omega)))


def tol_bound(tol, u, degree):
    """The bound tol * u**(degree/2) that a residual of degree 0, 1 or 2 in
    (omega, F) is compared with, in the unit u of :func:`omega_unit`: tol,
    tol * sqrt(u) or tol * u.  A ceiling compares with <= and a floor with
    >, so a NaN residual fails either way, and so does every residual at
    degree 1 or 2 against a NaN u.  The square root is ``math.sqrt``,
    correctly rounded, which ``u ** 0.5`` is not always.
    """
    return {0: tol, 1: tol * math.sqrt(u), 2: tol * u}[degree]


def inverse_times(omega: Form2, b, tol: float = 1e-12):
    """B_omega^{-1} b for a 4x4 matrix b (rows), by the closed form

        B_omega^{-1} = -B_{*omega} / pf(omega),
        *omega = (c34, -c24, c23, c14, -c13, c12),

    which holds because B_omega B_{*omega} = -pf(omega) Id for every 2-form.
    Exact over exact inputs.  Omega must first pass :func:`check_omega` at
    tol (else NonDegenerateRequired).
    """
    pf = check_omega(omega, tol)
    c12, c13, c14, c23, c24, c34 = omega.coeffs
    star = matrix_of_form2(Form2(c34, -c24, c23, c14, -c13, c12))
    return tuple(
        tuple(
            exact_div(-(s[0] * b[0][j] + s[1] * b[1][j] + s[2] * b[2][j] + s[3] * b[3][j]), pf)
            for j in range(4)
        )
        for s in star
    )


def compose_i(omega: Form2, f: Form2, tol: float = 1e-12) -> LinearMap4:
    """The unique map I = B_omega^{-1} B_f with omega(I u, v) = f(u, v) for
    all u, v (see :func:`inverse_times`).  Exact over rational inputs.
    NonDegenerateRequired when omega fails :func:`check_omega` at tol.
    """
    return LinearMap4.from_rows(inverse_times(omega, matrix_of_form2(f), tol))


def square_resid(i: LinearMap4):
    """Max-norm of i@i + Id; exact over exact entries."""
    sq = i @ i
    return max_abs(sq.m[a][b] + (1 if a == b else 0) for a in range(4) for b in range(4))


def is_almost_complex(i: LinearMap4, tol: float = 1e-9) -> bool:
    """True iff the max-norm of i@i + Id is at most tol."""
    return square_resid(i) <= tol


def pullback_form2(p: LinearMap4, f: Form2) -> Form2:
    """(p^* f)(u, v) = f(p u, p v); matrix P^T B P."""
    b = matrix_of_form2(f)
    pt = p.transpose()
    rows = (pt @ LinearMap4.from_rows(b) @ p).m
    return form2_of_matrix(rows)


def type_projectors(i: LinearMap4, beta: Form2, tol: float = 1e-9):
    """Split beta into its (1,1) and (2,0)+(0,2) parts for the structure i.

    Returns (p11, p2002) with p11 = (beta + beta(i., i.))/2 and
    p2002 = (beta - beta(i., i.))/2; the two parts sum to beta and are
    orthogonal for the wedge pairing.
    """
    if not is_almost_complex(i, tol):
        raise NotAlmostComplex("type projectors need i*i = -Id")
    invol = pullback_form2(i, beta)
    h = half(is_exact(*beta.coeffs, *(e for row in i.m for e in row)))
    p11 = h * (beta + invol)
    p2002 = h * (beta - invol)
    return p11, p2002
