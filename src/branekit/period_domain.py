"""The brane period quadric in second cohomology, its cylinder chart and
Lorentzian metric.

For a fixed class w = [omega] with w.w > 0, the quadric consists of the
classes c with c.w = 0 and c.c = w.w.  Around a base point [F] it carries
a chart

    (theta, ybar) |-> sqrt(1 + r^2) (cos(theta) [F] + sin(theta) b) + sum_i y_i n_i,

where b has square w.w and the n_i square -w.w, all mutually orthogonal
and orthogonal to [F] and w; r^2 = |ybar|^2.  The ambient pairing restricts
to a Lorentzian metric of signature (1, b2 - 3) whose ground truth here is
always the pushforward computation: pair the exact parameter derivatives of
the chart map.  Closed-form expressions are evaluated alongside and
compared against it.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .brane_check import verify_brane
from .cohomology import (
    CohClass,
    IntersectionSpace,
    constant_form_of_class,
    indefinite_gram_schmidt,
    nullspace_exact,
    signature,
    standard_basis,
    torus_space,
)
from .errors import (
    DegenerateQuadric,
    NonFiniteMatrix,
    NonPositiveSquare,
    NotInQuadric,
    SignatureMismatch,
    SpaceMismatch,
    TargetOutsideSpan,
)
from .exterior4 import exact_div, half, is_exact


@dataclass(frozen=True)
class QuadricSpec:
    """An intersection space together with a positive-square reference class."""

    space: IntersectionSpace
    omega: CohClass

    def __post_init__(self):
        if self.omega.space != self.space:
            raise SpaceMismatch("omega class lives in a different space")
        if not self.omega.pair(self.omega) > 0:
            raise NonPositiveSquare("omega class must have positive square")

    @property
    def omega_sq(self):
        return self.omega.pair(self.omega)


def quadric_contains(q: QuadricSpec, c: CohClass, tol: float = 1e-9) -> bool:
    """Membership test: c.omega = 0 and c.c = omega.omega, within tol."""
    if c.space != q.space:
        raise SpaceMismatch("class lives in a different space")
    return (
        abs(c.pair(q.omega)) <= tol
        and abs(c.pair(c) - q.omega_sq) <= tol
    )


@dataclass(frozen=True)
class QuadricChart:
    """Adapted orthogonal basis (base, b, neg...) for the quadric.

    Gram matrix is diag(s, s, -s, ..., -s) with s = omega^2, and every
    member is orthogonal to the omega class.  The float arrays ``vectors``
    (base, b, neg...) and ``pairing`` are derived once, outside eq and repr.
    """

    spec: QuadricSpec
    base: CohClass
    b: CohClass
    neg: tuple
    omega_sq: object
    vectors: np.ndarray = field(init=False, repr=False, compare=False)
    pairing: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.stack([c.array() for c in (self.base, self.b) + tuple(self.neg)])
        object.__setattr__(self, "vectors", rows)
        object.__setattr__(self, "pairing", np.array(self.spec.space.pairing, dtype=float))

    @property
    def dim(self) -> int:
        """Dimension of the quadric: 1 + len(neg) = b2 - 2."""
        return 1 + len(self.neg)


def _standard_candidates(space: IntersectionSpace):
    """Deterministic candidates, built lazily: basis vectors, then pairwise
    sums, then pairwise differences."""
    singles = standard_basis(space)
    yield from singles
    for i, j in combinations(range(space.dim), 2):
        yield singles[i] + singles[j]
    for i, j in combinations(range(space.dim), 2):
        yield singles[i] - singles[j]


def _project_off(v: CohClass, basis):
    """Remove the components of v along pairwise-orthogonal basis members."""
    for w, w_sq in basis:
        coef = v.pair(w)
        if coef == 0:
            continue
        v = v - exact_div(coef, w_sq) * w
    return v


def _positive_direction(q, accepted, candidates, tol_eff):
    """The positive direction of the orthocomplement of ``accepted``.

    The candidate projections span the orthocomplement, whose restricted
    pairing has exactly one positive eigenvalue; extract a spanning basis
    greedily (deterministic) and return the positive eigenvector of its
    Gram matrix, with a fixed sign convention.
    """
    dim = q.space.dim
    basis = []
    coords = np.zeros((0, dim))
    for cand in candidates:
        if len(basis) == dim - 2:
            break
        u = _project_off(cand, accepted)
        arr = u.array()
        stacked = np.vstack([coords, arr])
        if np.linalg.matrix_rank(stacked, tol=1e-9) > len(basis):
            basis.append(u)
            coords = stacked
    gram = np.array([[float(x.pair(y)) for y in basis] for x in basis])
    eig, vecs = np.linalg.eigh(gram)
    if eig[-1] <= tol_eff:
        raise SignatureMismatch("no positive direction orthogonal to base and omega")
    weights = vecs[:, -1]
    out = CohClass(q.space, tuple(0 for _ in range(dim)))
    for w, vec in zip(weights, basis):
        out = out + float(w) * vec
    lead = next(v for v in out.coeffs if abs(v) > 1e-12)
    if lead < 0:
        out = -out
    return out


def build_chart(q: QuadricSpec, base: CohClass, tol: float = 1e-9) -> QuadricChart:
    """Construct the cylinder chart at a quadric point.

    The partner b and the negative directions are drawn greedily from a
    fixed ordered candidate list (standard basis vectors, pairwise sums,
    pairwise differences), projected orthogonal to everything accepted so
    far, and scaled to square +-omega^2.  When no listed candidate projects
    to a positive square the positive direction is taken from the Gram
    eigendecomposition of the projected candidates instead.  Either path is
    deterministic, so charts are reproducible.
    """
    if not quadric_contains(q, base, tol):
        raise NotInQuadric("chart base must lie on the quadric")
    s = q.omega_sq
    tol_eff = tol * max(1.0, abs(float(s)))
    accepted = [(base, s), (q.omega, s)]

    b = None
    for cand in _standard_candidates(q.space):
        u = _project_off(cand, accepted)
        u_sq = u.pair(u)
        if u_sq > tol_eff:
            b = indefinite_gram_schmidt([u], [s], tol=tol_eff)[0]
            break
    if b is None:
        u = _positive_direction(q, accepted, _standard_candidates(q.space), tol_eff)
        b = indefinite_gram_schmidt([u], [s], tol=tol_eff)[0]
    accepted.append((b, s))

    neg = []
    want = q.space.dim - 3
    for cand in _standard_candidates(q.space):
        if len(neg) == want:
            break
        u = _project_off(cand, accepted)
        u_sq = u.pair(u)
        if u_sq < -tol_eff:
            n = indefinite_gram_schmidt([u], [-s], tol=tol_eff)[0]
            neg.append(n)
            accepted.append((n, -s))
    if len(neg) != want:
        raise SignatureMismatch(
            f"found {len(neg)} negative directions, expected {want}"
        )
    return QuadricChart(q, base, b, tuple(neg), s)


def chart_point(chart: QuadricChart, theta: float, ybar) -> CohClass:
    """Evaluate the cylinder chart; the result always lies on the quadric."""
    ybar = tuple(ybar)
    if len(ybar) != len(chart.neg):
        raise ValueError(f"ybar must have length {len(chart.neg)}")
    stretch = math.sqrt(1.0 + sum(float(y) ** 2 for y in ybar))
    out = (stretch * math.cos(theta)) * chart.base + (stretch * math.sin(theta)) * chart.b
    for y, n in zip(ybar, chart.neg):
        out = out + y * n
    return out


@dataclass(frozen=True)
class MetricSample:
    """The induced metric at one chart point.

    ``g`` is ordered (theta, y_1, ..., y_{b2-3}) and comes from pairing the
    exact parameter derivatives of the chart map in the ambient space.  The
    closed-form block Gamma_ij = (y_i y_j / (1+r^2) - delta_ij) omega^2 and
    the vanishing of the off-diagonal block are evaluated and compared.
    ``g_theta_theta_sqrt_form`` records sqrt(1+r^2) omega^2, a closed form
    for the circle coefficient that agrees with the pushforward value
    (1+r^2) omega^2 only at ybar = 0; both are reported so the discrepancy
    stays visible.
    """

    theta: float
    ybar: tuple
    g: np.ndarray
    signature: tuple
    off_diag_max: float
    gamma_resid: float
    g_theta_theta: float
    g_theta_theta_sqrt_form: float


def metric_at(chart: QuadricChart, theta: float, ybar) -> MetricSample:
    """Induced metric from exact differentiation of the chart map.

    Raises NonFiniteMatrix when the metric is not finite: before any array
    work when 1 + |ybar|^2 overflows, else when the product does.
    """
    ybar = tuple(float(y) for y in ybar)
    k = len(chart.neg)
    if len(ybar) != k:
        raise ValueError(f"ybar must have length {k}")
    m = 1.0 + sum(y * y for y in ybar)
    if not math.isfinite(m):
        raise NonFiniteMatrix(f"metric is not finite: 1 + |ybar|^2 = {m}")
    root = math.sqrt(m)
    cos_t, sin_t = math.cos(theta), math.sin(theta)

    base_a, b_a, neg_a = chart.vectors[0], chart.vectors[1], chart.vectors[2:]
    y = np.asarray(ybar)

    # exact parameter derivatives of the chart map; row 1 + i is
    # (y_i / root) * (cos_t base + sin_t b) + n_i, all rows in one broadcast
    tangents = np.empty((1 + k, len(base_a)))
    tangents[0] = root * (-sin_t * base_a + cos_t * b_a)
    np.add(np.multiply.outer(y / root, cos_t * base_a + sin_t * b_a), neg_a, out=tangents[1:])

    g = tangents @ chart.pairing @ tangents.T
    g = 0.5 * (g + g.T)

    s = float(chart.omega_sq)
    gamma_expected = (np.outer(y, y) / m - np.eye(k)) * s
    gamma_resid = float(np.abs(g[1:, 1:] - gamma_expected).max()) if k else 0.0
    off_diag_max = float(np.abs(g[0, 1:]).max()) if k else 0.0
    return MetricSample(
        theta=float(theta),
        ybar=ybar,
        g=g,
        signature=signature(g),
        off_diag_max=off_diag_max,
        gamma_resid=gamma_resid,
        g_theta_theta=float(g[0, 0]),
        g_theta_theta_sqrt_form=root * s,
    )


def deformation_residual(q: QuadricSpec, base: CohClass, alpha: CohClass):
    """Residuals (omega.alpha, base.alpha + alpha.alpha/2) of the
    deformation equations; both vanish iff base + alpha lies on the quadric."""
    if alpha.space != q.space:
        raise SpaceMismatch("alpha lives in a different space")
    r1 = q.omega.pair(alpha)
    r2 = base.pair(alpha) + half(is_exact(*alpha.coeffs)) * alpha.pair(alpha)
    return r1, r2


def _standard_torus_classes():
    space = torus_space()
    f_class = CohClass(space, (0, 0, 1, 1, 0, 0))
    omega_class = CohClass(space, (0, 0, 0, 0, 1, 1))
    return space, f_class, omega_class


def torus_quadric_residuals(f1, f2, g1, g2, h1, h2):
    """Deformation residuals of the standard torus brane pair in the basis
    B1..B6 (note B4 = -[dy1^dy2], so g2 multiplies -[dy1]^[dy2]).

    alpha = f1 B1 + f2 B2 + g1 B3 + g2 B4 + h1 B5 + h2 B6; returns
    (omega residual, quadric residual) = (h1 + h2,
    (g1 + g2) + (f1 f2 + g1 g2 + h1 h2)); the pair (0, 0) characterises
    deformation classes.
    """
    space, f_class, omega_class = _standard_torus_classes()
    alpha = CohClass(space, (f1, f2, g1, g2, h1, h2))
    q = QuadricSpec(space, omega_class)
    return deformation_residual(q, f_class, alpha)


def torus_quadric_alt_value(f1, f2, g1, g2, h1, h2):
    """Alternate quadratic form -2(g1 g2 + f1 f2 + h1 h2) + (g1 + g2).

    This rescaled-cross-term variant defines a *different* quadric from
    the wedge-derived one: e.g. it evaluates to -6 on the solution
    (1, 1, -1, -1, 0, 0).  It is computed only so reports can display the
    two side by side.
    """
    return -2 * (g1 * g2 + f1 * f2 + h1 * h2) + (g1 + g2)


@dataclass(frozen=True)
class AffineNormalForm:
    """Affine change of variables carrying a quadric to sum(+-x_i^2) = 1."""

    shift: np.ndarray  # centre of the quadric
    basis: np.ndarray  # columns map normal coordinates to centred ones
    squares: tuple  # +-1 signs, positives first

    @property
    def inertia(self):
        pos = sum(1 for s in self.squares if s > 0)
        return pos, len(self.squares) - pos

    def map_point(self, x_normal):
        return self.shift + self.basis @ np.asarray(x_normal, dtype=float)


def affine_normal_form(a, b, c, tol: float = 1e-9) -> AffineNormalForm:
    """Normal form of the quadric x^T A x + b^T x + c = 0.

    Completes the square and diagonalises; requires the quadratic part to
    be non-degenerate and the completed constant to be nonzero (otherwise
    no affine image of sum(+-x_i^2) = 1 exists).
    """
    a = np.asarray(a, dtype=float)
    a = 0.5 * (a + a.T)
    b = np.asarray(b, dtype=float)
    eig, vecs = np.linalg.eigh(a)
    scale = max(1.0, float(np.abs(eig).max()))
    if np.abs(eig).min() <= tol * scale:
        raise DegenerateQuadric("quadratic part is degenerate")
    centre = np.linalg.solve(a, -0.5 * b)
    rho = -(centre @ a @ centre + b @ centre + c)  # z^T A z = rho on the quadric
    if abs(rho) <= tol * scale:
        raise DegenerateQuadric("quadric degenerates to a cone")
    lam = eig / rho
    order = np.argsort(-lam)
    lam = lam[order]
    vecs = vecs[:, order]
    squares = tuple(1 if v > 0 else -1 for v in lam)
    basis = vecs @ np.diag(1.0 / np.sqrt(np.abs(lam)))
    return AffineNormalForm(shift=centre, basis=basis, squares=squares)


def torus_quadric_coefficients():
    """(A, b, c) of the standard torus deformation quadric in the five
    variables (f1, f2, g1, g2, h1), after eliminating h2 = -h1."""
    a = np.array(
        [
            [0.0, 0.5, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.5, 0.0],
            [0.0, 0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, -1.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0, 1.0, 0.0])
    return a, b, 0.0


def scalar_with_imaginary_part(
    f_class: CohClass, omega_class: CohClass, target: CohClass, tol: float = 1e-9
):
    """The unique (a, b) with b*[F] + a*[omega] = target.

    These are the real and imaginary parts of the complex scalar whose
    multiple of F + i*omega has imaginary part ``target`` in cohomology.
    Exact over rational inputs; raises TargetOutsideSpan when no such
    scalar exists.
    """
    b_coef = exact_div(target.pair(f_class), f_class.pair(f_class))
    a_coef = exact_div(target.pair(omega_class), omega_class.pair(omega_class))
    resid = target - b_coef * f_class - a_coef * omega_class
    if not resid.max_abs() <= tol:  # a NaN residual is outside the span too
        raise TargetOutsideSpan(
            f"target is not a combination of the two classes (residual {resid.max_abs()})"
        )
    return a_coef, b_coef


def hodge_splitting(q: QuadricSpec, base: CohClass):
    """Split the space into span{base, omega} and its pairing-orthocomplement.

    The plane span{base, omega} is positive definite (it models the real
    classes of pure bidegree (2,0)+(0,2)); the orthocomplement models the
    real (1,1) classes and carries signature (1, b2-3).  Exact over
    rational inputs.
    """
    if not quadric_contains(q, base):
        raise NotInQuadric("base must lie on the quadric")
    pos_plane = (base, q.omega)
    dim = q.space.dim

    def functional(cls):
        # c -> pairing @ c over the nonzero entries (the pairing is symmetric)
        return tuple(sum(p * cls.coeffs[i] for i, p in row) for row in q.space.sparse_rows)

    rows = [functional(base), functional(q.omega)]
    if is_exact(*base.coeffs, *q.omega.coeffs):
        kernel = nullspace_exact(rows, dim)
    else:
        mat = np.asarray(rows, dtype=float)
        _, s, vh = np.linalg.svd(mat)
        rank = int((s > 1e-12 * s[0]).sum())
        kernel = [tuple(v) for v in vh[rank:]]
    h11 = tuple(CohClass(q.space, vec) for vec in kernel)
    return pos_plane, h11


def reconstruct_brane(q: QuadricSpec, c: CohClass, tol: float = 1e-9):
    """Constant-form representative of a torus quadric class, with its
    brane report (which passes: membership makes the wedge conditions hold
    and constant forms are closed)."""
    if not quadric_contains(q, c, tol):
        raise NotInQuadric("class fails the quadric conditions")
    omega_form = constant_form_of_class(q.omega)
    form = constant_form_of_class(c)
    report = verify_brane(omega_form, form, tol=tol)
    return form, report
