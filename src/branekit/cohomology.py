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
from functools import cache, cached_property
from itertools import chain, combinations, tee
from math import gcd, isfinite, isqrt, lcm
from typing import NamedTuple

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
    takes no part in equality, hashing or the repr; nor do the
    ``candidates``, which belong to this one space object.
    """

    name: str
    dim: int
    pairing: tuple  # dim x dim symmetric, exact integer entries
    sparse_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple((j, p) for j, p in enumerate(row) if p != 0) for row in self.pairing)
        object.__setattr__(self, "sparse_rows", rows)

    @cached_property
    def candidates(self):
        """The standard candidates of the chart search, as int classes:
        basis vectors, then pairwise sums, then pairwise differences.

        An iterator that is never advanced: every ``copy`` of it yields the
        candidates from the first, and each is made once per space, when a
        copy first reaches it (the copies share one ``tee`` buffer, so two
        threads may not advance copies at once).
        """
        singles = standard_basis(self)
        pairs = list(combinations(range(self.dim), 2))
        return tee(chain(singles, (singles[i] + singles[j] for i, j in pairs),
                         (singles[i] - singles[j] for i, j in pairs)), 1)[0]


class _Rational(NamedTuple):
    """An exact class as integer numerators over one positive denominator.

    ``support`` holds the (i, numerator) pairs with a nonzero numerator.
    ``fraction`` tells whether a pairing with the class is a Fraction: it is
    when a coefficient on a nonzero pairing row is one.
    """

    nums: tuple
    den: int
    support: tuple
    fraction: bool

    @classmethod
    def of(cls, nums, den, fraction):
        return cls(nums, den, tuple((i, n) for i, n in enumerate(nums) if n), fraction)


def _pair_numerator(x: _Rational, y: _Rational, rows):
    """x.y times x.den * y.den, over x's nonzero entries."""
    ny = y.nums
    total = 0  # a plain loop: faster than sum() over the few terms of a class
    for i, xi in x.support:
        for j, p in rows[i]:
            total += xi * p * ny[j]
    return total


def _minus_projection(v: _Rational, w: _Rational, w_sq, rows):
    """v - (v.w / w_sq) w in integer numerators; v itself when v.w = 0.

    With v = N/D, w = M/E, v.w = k/(D E) and w_sq = a/b this is
    (N E^2 a - k b M) / (D E^2 a), brought to lowest terms.  Every
    coefficient of the result stands for a Fraction, as v - c*w with a
    Fraction c gives.
    """
    k = _pair_numerator(v, w, rows)
    if not k:
        return v
    a, b = w_sq.numerator, w_sq.denominator
    if not a:
        raise ZeroDivisionError(f"Fraction({k}, 0)")
    scale = w.den * w.den * a
    kb = k * b
    nums = [n * scale - kb * m for n, m in zip(v.nums, w.nums)]
    den = v.den * scale
    g = gcd(*nums, den)
    if den < 0:
        g = -g
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    return _Rational.of(tuple(nums), den, True)


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

        When both classes are exact (``int`` or ``Fraction``) the sum runs on
        their integer numerators and visits only x's nonzero entries; it is a
        Fraction when a coefficient on a nonzero pairing row is one, else an
        int, the type the term-by-term sum has.  Every other pair is that
        term-by-term sum in plain arithmetic, so NaN and inf propagate.  The
        builtin sum starts at int 0 and so never holds -0.0: an exact zero
        term leaves the bits of a float sum as they are.
        """
        if self.space != other.space:
            raise SpaceMismatch("classes live in different spaces")
        rx = self._rational
        if rx is not None:
            ry = other._rational
            if ry is not None:
                num = _pair_numerator(rx, ry, self.space.sparse_rows)
                den = rx.den * ry.den
                return Fraction(num, den) if rx.fraction or ry.fraction else num // den
        y = other.coeffs
        return sum(xi * (p * y[j]) for xi, row in zip(self.coeffs, self.space.sparse_rows)
                   for j, p in row)

    @cached_property
    def _rational(self):
        """The class as a ``_Rational`` when every coefficient is an int or a
        Fraction, else None; worked out on first use, not on construction."""
        nums = self.coeffs
        den = 1
        all_int = True
        fraction = False
        for v, row in zip(nums, self.space.sparse_rows):
            t = type(v)
            if t is Fraction:
                den = lcm(den, v.denominator)
                all_int = False
                fraction = fraction or bool(row)
            elif t is not int:
                return None
        if not all_int:
            nums = tuple(v.numerator * (den // v.denominator) for v in nums)
        return _Rational.of(nums, den, fraction)

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


@cache
def torus_space() -> IntersectionSpace:
    """The 6-dimensional torus model, pairing computed from the wedge of
    the basis representatives (three hyperbolic planes); one object per
    process, built on the first call."""
    reps = _TORUS_REPRESENTATIVES
    pairing = tuple(tuple(wedge22(a, b).v for b in reps) for a in reps)
    return IntersectionSpace("t4", 6, pairing)


@cache
def k3_space() -> IntersectionSpace:
    """The diagonal signature (3, 19) model of the K3 second cohomology; one
    object per process, built on the first call."""
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
    """(positive, negative) eigenvalue counts of a symmetric pairing g; for
    a stack of matrices, shape (S, n, n), the list of the S pairs.

    The counts are taken on D g D with D = diag(|g_ii|^(-1/2)), and 1 where
    g_ii = 0: by Sylvester's law of inertia that congruence keeps them, and
    it brings every nonzero diagonal entry to +-1, so rescaling one
    coordinate does not change them.  An eigenvalue of D g D counts when
    its modulus exceeds tol * max(1, largest modulus).

    Raises NonFiniteMatrix when an entry is NaN or inf: such a matrix has no
    signature, and a NaN would otherwise count as neither sign.
    """
    if isinstance(space_or_matrix, IntersectionSpace):
        mat = np.array(space_or_matrix.pairing, dtype=float)
    else:
        mat = np.asarray(space_or_matrix, dtype=float)
    if not np.isfinite(mat).all():
        raise NonFiniteMatrix("signature of a matrix with a NaN or infinite entry")
    diag = np.abs(np.diagonal(mat, axis1=-2, axis2=-1))
    d = 1 / np.sqrt(np.where(diag > 0, diag, 1.0))
    eig = np.linalg.eigvalsh(d[..., :, None] * mat * d[..., None, :])
    bound = tol * np.maximum(1.0, np.abs(eig).max(axis=-1, keepdims=True))
    pos = (eig > bound).sum(axis=-1)
    neg = (eig < -bound).sum(axis=-1)
    if mat.ndim == 2:
        return int(pos), int(neg)
    return [(int(p), int(n)) for p, n in zip(pos, neg)]


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


def project_off(v: CohClass, basis):
    """Remove the components of v along pairwise-orthogonal (w, w.w) pairs.

    While v, w and w.w are exact the steps run on integer numerators over
    one denominator, and the Fractions of the result are made once, at the
    end.  Every other step is plain arithmetic, on v's Fractions while v is
    exact: ``Fraction op float`` computes ``float(q) op float``, and
    ``float(q)`` is q correctly rounded.
    """
    return _Projection(v).extend(basis).cls()


class _Projection:
    """The state of :func:`project_off` between its steps, so a projection
    can be extended by more pairs later: ``exact`` is the value while it
    stays exact, else None, and the class ``v`` lags behind it until
    :meth:`cls` is asked."""

    __slots__ = ("v", "exact")

    def __init__(self, v: CohClass):
        self.v, self.exact = v, v._rational

    def extend(self, basis):
        """Take the steps of project_off along ``basis``; returns self."""
        space = self.v.space
        for w, w_sq in basis:
            if self.exact is not None and w._rational is not None and is_exact(w_sq):
                if w.space is not space and w.space != space:
                    raise SpaceMismatch("classes live in different spaces")
                self.exact = _minus_projection(self.exact, w._rational, w_sq, space.sparse_rows)
                continue
            coef = self.cls().pair(w)
            if coef != 0:
                self.v = self.v - exact_div(coef, w_sq) * w
                self.exact = self.v._rational
        return self

    def square_sign(self, bound) -> int:
        """The sign of u.u - bound for the projection u, as its pairing
        compares with the float ``bound``.  While u is exact it is decided
        on the numerators, as Python compares a Fraction with a float:
        exactly when bound is finite, as 0.0 against it when not."""
        exact = self.exact
        if exact is None:
            sq = self.v.pair(self.v)
        elif isfinite(bound):
            p, q = bound.as_integer_ratio()
            sq = _pair_numerator(exact, exact, self.v.space.sparse_rows) * q
            bound = p * exact.den * exact.den
        else:
            sq = 0.0
        return (sq > bound) - (sq < bound)

    def cls(self) -> CohClass:
        """The projection as a class: v itself while v is up to date, else
        a class of Fraction coefficients made from the numerators, once."""
        self.v = _class_of(self.v, self.exact)
        return self.v


def _class_of(v: CohClass, exact):
    """v brought up to date with its exact value ``exact``: a class of
    Fraction coefficients unless ``exact`` is None or already v's own."""
    if exact is None or exact is v._rational:
        return v
    out = CohClass(v.space, tuple(Fraction(n, exact.den) for n in exact.nums))
    out.__dict__["_rational"] = exact
    return out


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
        u = project_off(v, [(w, w.pair(w)) for w in out])
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
