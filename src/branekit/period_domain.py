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
from copy import copy
from dataclasses import dataclass, field

import numpy as np

from .brane_check import constant_branes_pass, verify_brane
from .cohomology import (
    CohClass,
    IntersectionSpace,
    _Projection,
    constant_form_of_class,
    indefinite_gram_schmidt,
    nullspace_exact,
    signature,
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
from .exterior4 import Form2, exact_div, half, is_exact, tol_bound


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


def quadric_contains(q: QuadricSpec, c: CohClass, tol: float = 1e-9):
    """Membership test: c.omega = 0 and c.c = omega.omega, both of degree 2
    (:func:`~branekit.exterior4.tol_bound`) in the unit u = |omega.omega| / 2
    (|pf| of a torus class, as in :func:`~branekit.exterior4.omega_unit`),
    so rescaling (omega, c) keeps the verdict; on a class of (S,)
    coefficient columns, the (S,) bool array of the per-class verdicts.  A
    NaN pairing fails, silently as in Python floats."""
    if c.space != q.space:
        raise SpaceMismatch("class lives in a different space")
    s = q.omega_sq
    bound = tol_bound(tol, abs(float(s)) / 2, 2)
    with np.errstate(invalid="ignore", over="ignore"):
        return (abs(c.pair(q.omega)) <= bound) & (abs(c.pair(c) - s) <= bound)


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
    """Deterministic candidates, made lazily and once per space: basis
    vectors, then pairwise sums, then pairwise differences."""
    return copy(space.candidates)


class _Projections:
    """The standard candidates, each projected off the accepted (w, w.w)
    pairs as the list stands when the candidate is reached.

    Every pass (``iter``) starts again at the first candidate and yields
    each as a ``_Projection``.  A candidate keeps its partial projection
    and is extended only by the vectors accepted since, with the steps
    project_off(c, A + B) runs, so every coefficient keeps its value, type
    and bits while no candidate is projected off a vector twice.  While a
    candidate and every accepted vector are exact it stays on integer
    numerators; its Fractions are made only when its class is asked for.
    """

    def __init__(self, space: IntersectionSpace, accepted: list):
        self._source = _standard_candidates(space)
        self._done = []  # [projection off accepted[:count], count]
        self._accepted = accepted

    def __iter__(self):
        accepted = self._accepted
        i = 0
        while True:
            if i == len(self._done):
                cand = next(self._source, None)
                if cand is None:
                    return
                self._done.append([_Projection(cand), 0])
            entry = self._done[i]
            if entry[1] < len(accepted):
                entry[0].extend(accepted[entry[1]:])
                entry[1] = len(accepted)
            yield entry[0]
            i += 1


def _positive_direction(q, projections, tol_eff):
    """The positive direction of the orthocomplement of the accepted vectors.

    The candidate projections span the orthocomplement, whose restricted
    pairing has exactly one positive eigenvalue; extract a spanning basis
    greedily (deterministic) and return the positive eigenvector of its
    Gram matrix, with a fixed sign convention.
    """
    dim = q.space.dim
    basis = []
    coords = np.zeros((0, dim))
    passes = iter(projections)
    while len(basis) < dim - 2:
        u = next(passes, None)
        if u is None:
            break
        u = u.cls()
        stacked = np.vstack([coords, u.array()])
        if not np.isfinite(stacked).all():  # LAPACK fails on NaN or inf
            raise NonFiniteMatrix("a chart candidate is beyond the float range")
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
    projections = _Projections(q.space, accepted)

    b = None
    for u in projections:
        if u.square_sign(tol_eff) > 0:
            b = indefinite_gram_schmidt([u.cls()], [s], tol=tol_eff)[0]
            break
    if b is None:
        u = _positive_direction(q, projections, tol_eff)
        b = indefinite_gram_schmidt([u], [s], tol=tol_eff)[0]
    accepted.append((b, s))

    neg = []
    want = q.space.dim - 3
    passes = iter(projections)
    while len(neg) < want:
        u = next(passes, None)
        if u is None:
            break
        if u.square_sign(-tol_eff) < 0:
            n = indefinite_gram_schmidt([u.cls()], [-s], tol=tol_eff)[0]
            neg.append(n)
            accepted.append((n, -s))
    if len(neg) != want:
        raise SignatureMismatch(
            f"found {len(neg)} negative directions, expected {want}"
        )
    return QuadricChart(q, base, b, tuple(neg), s)


def _float_params(chart: QuadricChart, params):
    """(thetas, ybars): every (theta, ybar) of ``params`` read as floats;
    ValueError when a ybar has not one entry per negative direction."""
    k = len(chart.neg)
    thetas, ybars = [], []
    for theta, ybar in params:
        ybar = tuple(float(y) for y in ybar)
        if len(ybar) != k:
            raise ValueError(f"ybar must have length {k}")
        thetas.append(float(theta))
        ybars.append(ybar)
    return thetas, ybars


def _chart_classes(chart: QuadricChart, thetas, ybars) -> np.ndarray:
    """The chart points of float samples as an (S, dim) array, row s the
    coefficients of sample s: its stretch sqrt(1 + |ybar|^2) and cos, sin
    of theta in Python floats, then the sums over the float chart vectors
    in the order base, b, neg.  An overflowing y^2 raises OverflowError."""
    base_a, b_a, neg_a = chart.vectors[0], chart.vectors[1], chart.vectors[2:]
    # y ** 2 (pow) and metric_sweep's y * y can differ in the last bit: each keeps its bits
    stretch = [math.sqrt(1.0 + sum(y ** 2 for y in ybar)) for ybar in ybars]
    cos_part = np.array([r * math.cos(t) for r, t in zip(stretch, thetas)])[:, None]
    sin_part = np.array([r * math.sin(t) for r, t in zip(stretch, thetas)])[:, None]
    # an infinite stretch gives NaN classes, silently as in Python floats
    with np.errstate(invalid="ignore", over="ignore"):
        coords = cos_part * base_a + sin_part * b_a
        y = np.array(ybars).reshape(len(thetas), len(neg_a))
        for j, n in enumerate(neg_a):
            coords = coords + y[:, j, None] * n
    return coords


def chart_point(chart: QuadricChart, theta: float, ybar) -> CohClass:
    """Evaluate the cylinder chart, with (theta, ybar) read as floats: the
    one-sample case of the classes of ``quadric_sweep``.  The result lies
    on the quadric."""
    coords = _chart_classes(chart, *_float_params(chart, [(theta, ybar)]))
    return CohClass(chart.spec.space, tuple(coords[0].tolist()))


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
    """Induced metric from exact differentiation of the chart map: the
    one-sample case of ``metric_sweep``."""
    return metric_sweep(chart, [(theta, ybar)])[0]


def metric_sweep(chart: QuadricChart, params) -> list:
    """The induced metric at every (theta, ybar) of ``params``, in one pass
    over stacked arrays; a list of MetricSample in the order of ``params``.

    Every entry comes from the same floating-point operations as in a pass
    over that sample alone, so a sample does not depend on the others.
    Every sample is checked before any array work: first every ybar's
    length (ValueError), then 1 + |ybar|^2 (NonFiniteMatrix when it
    overflows).  A sweep whose product overflows raises NonFiniteMatrix too.
    """
    k = len(chart.neg)
    thetas, ybars = _float_params(chart, params)
    ms = [1.0 + sum(y * y for y in ybar) for ybar in ybars]
    for m in ms:
        if not math.isfinite(m):
            raise NonFiniteMatrix(f"metric is not finite: 1 + |ybar|^2 = {m}")
    if not thetas:
        return []
    roots = [math.sqrt(m) for m in ms]
    root = np.array(roots)[:, None]
    cos_t = np.array([math.cos(t) for t in thetas])[:, None]
    sin_t = np.array([math.sin(t) for t in thetas])[:, None]
    y = np.array(ybars).reshape(len(thetas), k)

    base_a, b_a, neg_a = chart.vectors[0], chart.vectors[1], chart.vectors[2:]
    # exact parameter derivatives of the chart map; row 1 + i of a sample is
    # (y_i / root) * (cos_t base + sin_t b) + n_i
    tangents = np.empty((len(thetas), 1 + k, len(base_a)))
    tangents[:, 0] = root * (-sin_t * base_a + cos_t * b_a)
    circle = cos_t * base_a + sin_t * b_a
    np.add((y / root)[:, :, None] * circle[:, None, :], neg_a, out=tangents[:, 1:])

    g = tangents @ chart.pairing @ tangents.transpose(0, 2, 1)
    g = 0.5 * (g + g.transpose(0, 2, 1))
    signatures = signature(g)

    s = float(chart.omega_sq)
    if k:
        m = np.array(ms)[:, None, None]
        gamma_expected = (y[:, :, None] * y[:, None, :] / m - np.eye(k)) * s
        gamma_resid = np.abs(g[:, 1:, 1:] - gamma_expected).max(axis=(1, 2))
        off_diag_max = np.abs(g[:, 0, 1:]).max(axis=1)
    else:
        gamma_resid = off_diag_max = np.zeros(len(thetas))
    return [
        MetricSample(
            theta=theta,
            ybar=ybar,
            g=gi,
            signature=sig,
            off_diag_max=float(off),
            gamma_resid=float(resid),
            g_theta_theta=float(gi[0, 0]),
            g_theta_theta_sqrt_form=r * s,
        )
        for theta, ybar, gi, sig, off, resid, r in zip(
            thetas, ybars, g, signatures, off_diag_max, gamma_resid, roots
        )
    ]


@dataclass(frozen=True)
class QuadricSample:
    """One chart point of :func:`quadric_sweep`: its class, the class's
    constant-form representative and whether that form is a brane, as
    ``chart_point`` and ``reconstruct_brane`` give them."""

    theta: float
    ybar: tuple
    cls: CohClass
    form: Form2
    passed: bool


def quadric_sweep(chart: QuadricChart, params, tol: float = 1e-9) -> list:
    """``reconstruct_brane(chart.spec, chart_point(chart, theta, ybar), tol)``
    at every (theta, ybar) of ``params``, in one pass over stacked arrays;
    a list of QuadricSample in the order of ``params``.

    Every value comes from the same floating-point operations as for that
    sample alone: its class from the rows of the chart classes, as
    ``chart_point`` gives it, membership by ``quadric_contains`` on the
    stacked class and the verdict by ``constant_branes_pass`` on the
    stacked forms of ``constant_form_of_class``.  Every ybar is checked
    before any sample is evaluated: ValueError when one has the wrong
    length; NotInQuadric when a sample misses the quadric.
    """
    thetas, ybars = _float_params(chart, params)
    if not thetas:
        return []
    q = chart.spec
    coords = _chart_classes(chart, thetas, ybars)
    stack = CohClass(q.space, tuple(coords.T))  # one (S,) column per coefficient
    if not quadric_contains(q, stack, tol).all():
        raise NotInQuadric("class fails the quadric conditions")
    forms = constant_form_of_class(stack)
    passed = constant_branes_pass(constant_form_of_class(q.omega), forms.coeffs, tol)
    return [
        QuadricSample(theta, ybar, CohClass(q.space, tuple(c)), Form2.from_coeffs(f), ok)
        for theta, ybar, c, f, ok in zip(thetas, ybars, coords.tolist(),
                                          np.stack(forms.coeffs, axis=1).tolist(), passed.tolist())
    ]


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
