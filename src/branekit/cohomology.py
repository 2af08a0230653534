"""Models of the degree-2 cohomology of the torus and the K3 manifold with
their wedge pairings.

The torus model is 6-dimensional with basis

    B1 = [dx1^dy1], B2 = [dx2^dy2], B3 = [dx1^dx2],
    B4 = -[dy1^dy2], B5 = [dx1^dy2], B6 = [dy1^dx2],

whose pairing consists of three hyperbolic planes (B1.B2 = B3.B4 = B5.B6 = 1),
split signature (3, 3).  The minus sign on B4 makes the coefficients of the
standard brane forms come out as plain sums of basis vectors.  The K3 model
is the abstract 22-dimensional space diag(+1, +1, +1, -1 x 19); no complex
geometry of K3 is computed.

Taking the class of a constant form is an isometry between constant 2-forms
on the torus and the 6-dimensional model, with the volume class of
dx1^dy1^dx2^dy2 normalised to 1.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import (
    DegenerateSubspace,
    NonFiniteMatrix,
    SignatureMismatch,
    SpaceMismatch,
    WrongSpace,
)
from .exterior4 import Form2, exact_div, is_exact, max_abs, wedge22


@dataclass(frozen=True)
class IntersectionSpace:
    """A finite-dimensional real inner-product space (possibly indefinite).

    ``sparse_rows[i]`` holds the nonzero entries ``(j, pairing[i][j])`` of
    row i in column order.  It is derived from ``pairing`` once, here, and
    takes no part in equality, hashing or the repr.
    """

    name: str
    dim: int
    pairing: tuple  # dim x dim symmetric, exact integer entries
    sparse_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple((j, p) for j, p in enumerate(row) if p != 0) for row in self.pairing)
        object.__setattr__(self, "sparse_rows", rows)


@dataclass(frozen=True)
class CohClass:
    """A vector in an intersection space."""

    space: IntersectionSpace
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.space.dim:
            raise SpaceMismatch(
                f"{len(self.coeffs)} coefficients for dim {self.space.dim}"
            )

    def pair(self, other: "CohClass"):
        """The pairing sum of x_i * (p_ij * y_j) over the nonzero entries p_ij.

        A term is skipped when x_i and y_j are both exact (``int`` or
        ``Fraction``) and one of them is zero: it is an exact zero, and adding
        it changes neither the value nor, for a float sum, the sign of zero.
        A float meeting an exact zero is still multiplied, so NaN and inf
        propagate and the sum stays a float.  When a skipped term was a
        Fraction and the rest sum to an int, the sum is returned as a Fraction,
        the type the unskipped sum has.
        """
        if self.space != other.space:
            raise SpaceMismatch("classes live in different spaces")
        y = other.coeffs
        terms = []
        fraction_skipped = False
        # only the nonzero entries: bit-identical to the dense sum when every
        # row has at most one, and exact for exact inputs in any case
        for xi, row in zip(self.coeffs, self.space.sparse_rows):
            tx = type(xi)
            x_exact = tx is int or tx is Fraction
            for j, p in row:
                yj = y[j]
                if x_exact and not (xi and yj):
                    ty = type(yj)
                    if ty is int or ty is Fraction:
                        fraction_skipped = fraction_skipped or tx is Fraction or ty is Fraction
                        continue
                terms.append(xi * (p * yj))
        total = sum(terms)
        if fraction_skipped and type(total) is int:
            return Fraction(total)
        return total

    def __add__(self, other):
        if self.space != other.space:
            raise SpaceMismatch("classes live in different spaces")
        return CohClass(self.space, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if self.space != other.space:
            raise SpaceMismatch("classes live in different spaces")
        return CohClass(self.space, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CohClass(self.space, tuple(-a for a in self.coeffs))

    def __rmul__(self, s):
        return CohClass(self.space, tuple(s * a for a in self.coeffs))

    __mul__ = __rmul__

    def array(self):
        return np.asarray([float(v) for v in self.coeffs])

    def max_abs(self):
        return max_abs(self.coeffs)


# the six basis representatives, in the order B1..B6
_TORUS_REPRESENTATIVES = (
    Form2(c12=1),
    Form2(c34=1),
    Form2(c13=1),
    Form2(c24=-1),
    Form2(c14=1),
    Form2(c23=1),
)


def torus_space() -> IntersectionSpace:
    """The 6-dimensional torus model, pairing computed from the wedge of
    the basis representatives (three hyperbolic planes)."""
    reps = _TORUS_REPRESENTATIVES
    pairing = tuple(tuple(wedge22(a, b).v for b in reps) for a in reps)
    return IntersectionSpace("t4", 6, pairing)


def k3_space() -> IntersectionSpace:
    """The diagonal signature (3, 19) model of the K3 second cohomology."""
    diag = [1, 1, 1] + [-1] * 19
    pairing = tuple(
        tuple(diag[i] if i == j else 0 for j in range(22)) for i in range(22)
    )
    return IntersectionSpace("k3", 22, pairing)


def class_of_constant_form(f: Form2, space: IntersectionSpace | None = None) -> CohClass:
    """Coefficients of a constant 2-form in the torus basis B1..B6.

    Multiplicative: pair(class(a), class(b)) = wedge22(a, b) for all a, b.
    """
    space = space or torus_space()
    if space.name != "t4":
        raise WrongSpace("constant-form classes exist only in the torus model")
    return CohClass(space, (f.c12, f.c34, f.c13, -f.c24, f.c14, f.c23))


def constant_form_of_class(c: CohClass) -> Form2:
    """Two-sided inverse of class_of_constant_form; torus classes only."""
    if c.space.name != "t4":
        raise WrongSpace("no constant-form model for this space")
    x1, x2, x3, x4, x5, x6 = c.coeffs
    return Form2(c12=x1, c34=x2, c13=x3, c24=-x4, c14=x5, c23=x6)


def signature(space_or_matrix, tol: float = 1e-9):
    """(positive, negative) eigenvalue counts of a symmetric pairing.

    Raises NonFiniteMatrix when an entry is NaN or inf: such a matrix has no
    signature, and a NaN would otherwise count as neither sign.
    """
    if isinstance(space_or_matrix, IntersectionSpace):
        mat = np.array(space_or_matrix.pairing, dtype=float)
    else:
        mat = np.asarray(space_or_matrix, dtype=float)
    if not np.isfinite(mat).all():
        raise NonFiniteMatrix("signature of a matrix with a NaN or infinite entry")
    eig = np.linalg.eigvalsh(mat)
    scale = max(1.0, float(np.abs(eig).max()))
    pos = int((eig > tol * scale).sum())
    neg = int((eig < -tol * scale).sum())
    return pos, neg


def _exact_sqrt(q: Fraction):
    """Square root of a positive rational if it is rational, else None."""
    if q.numerator < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _scale_to(v: CohClass, ratio):
    """Multiply v by sqrt(ratio); stays exact when the root is rational."""
    if ratio == 1:
        return v
    if is_exact(ratio, *v.coeffs):
        root = _exact_sqrt(Fraction(ratio))
        if root is not None:
            return root * v
    return float(np.sqrt(float(ratio))) * v


def indefinite_gram_schmidt(vectors, target_squares, tol: float = 1e-9):
    """Orthogonalise ``vectors`` against the (indefinite) pairing and scale
    each output to the prescribed square.

    Sequential Gram-Schmidt, deterministic in the input order.  Raises
    DegenerateSubspace when a pivot square is not above tol in magnitude
    (a NaN square included) and SignatureMismatch when a pivot square has
    the wrong sign for its requested target.
    """
    if len(vectors) != len(target_squares):
        raise ValueError("need one target square per vector")
    out = []
    for v, target in zip(vectors, target_squares):
        u = v
        for w in out:
            coef = u.pair(w)
            if coef == 0:
                continue
            u = u - exact_div(coef, w.pair(w)) * w
        sq = u.pair(u)
        if not abs(sq) > tol:  # a NaN square is degenerate too
            raise DegenerateSubspace(f"pivot square {sq} below tolerance")
        if (sq > 0) != (target > 0):
            raise SignatureMismatch(
                f"pivot square {sq} cannot be scaled to target {target}"
            )
        out.append(_scale_to(u, exact_div(target, sq)))
    return out


def standard_basis(space: IntersectionSpace):
    """The coordinate basis of an intersection space as classes."""
    return tuple(
        CohClass(space, tuple(1 if j == i else 0 for j in range(space.dim)))
        for i in range(space.dim)
    )


def nullspace_exact(rows, dim):
    """Basis of the exact rational kernel of the linear functionals ``rows``.

    ``rows`` is a list of coefficient tuples; returns a list of coefficient
    tuples.  Used for the cohomological type splitting, where exact rank
    counts matter.
    """
    m = [[Fraction(e) for e in row] for row in rows]
    pivots = []
    r = 0
    for col in range(dim):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [e / m[r][col] for e in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                m[i] = [a - m[i][col] * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * dim
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -m[ri][fc]
        basis.append(tuple(vec))
    return basis
