"""The chart search against its pre-change implementation.

``build_chart``, ``_positive_direction``, ``project_off`` and
``CohClass.pair`` below are the implementations from before the chart
search kept partial projections and projected exact candidates in integer
numerators; they are kept verbatim as the oracle.  The oracle runs with
``CohClass.pair`` and ``cohomology.project_off`` swapped for these copies,
so everything it calls, ``indefinite_gram_schmidt`` included, pairs and
projects the old way.  Exact coefficients must match it in value and type,
float coefficients in their ``repr``, and a refusal in its exception type.
"""

from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from branekit import cohomology, period_domain
from branekit.cohomology import (
    CohClass,
    IntersectionSpace,
    class_of_constant_form,
    indefinite_gram_schmidt,
    k3_space,
    torus_space,
)
from branekit.errors import NotInQuadric, SignatureMismatch, SpaceMismatch
from branekit.exterior4 import LinearMap4, exact_div, pullback_form2
from branekit.period_domain import QuadricChart, QuadricSpec, _standard_candidates, quadric_contains
from branekit.torus_forms import standard_brane, standard_symplectic

SPACE = torus_space()
K3 = k3_space()


# --- the pre-change implementation, verbatim ----------------------------------


def pre_change_pair(self, other: "CohClass"):
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


def project_off(v: CohClass, basis):
    """Remove the components of v along pairwise-orthogonal (w, w.w) pairs."""
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
        u = project_off(cand, accepted)
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
        u = project_off(cand, accepted)
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
        u = project_off(cand, accepted)
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


# --- comparison ----------------------------------------------------------------


@contextmanager
def pre_change_arithmetic():
    with mock.patch.object(CohClass, "pair", pre_change_pair), \
            mock.patch.object(cohomology, "project_off", project_off):
        yield


def same_coeff(got, want):
    """Exact coefficients equal in value and type, floats equal in repr."""
    if type(want) in (int, Fraction):
        return type(got) is type(want) and got == want
    return type(got) is type(want) and repr(got) == repr(want)


def assert_same_chart(q, base):
    try:
        with pre_change_arithmetic():
            want = build_chart(q, base)
    except Exception as exc:  # noqa: BLE001 - any refusal must be matched
        with pytest.raises(type(exc)):
            period_domain.build_chart(q, base)
        return
    got = period_domain.build_chart(q, base)
    assert same_coeff(got.omega_sq, want.omega_sq)
    assert len(got.neg) == len(want.neg)
    for g, w in zip((got.base, got.b) + got.neg, (want.base, want.b) + want.neg):
        assert all(same_coeff(x, y) for x, y in zip(g.coeffs, w.coeffs)), (g, w)
    assert got.vectors.tobytes() == want.vectors.tobytes()


# --- input families ------------------------------------------------------------

W0C = class_of_constant_form(standard_symplectic())
F0C = class_of_constant_form(standard_brane())

#: integer Lorentz boost preserving x^2 + y^2 - z^2
BOOST = ((1, -2, 2), (2, -1, 2), (2, -2, 3))


def boosted_k3_pair(coords):
    """The axis pair (e1, e2) with BOOST acting on ``coords``, as the
    deform-period workload builds it."""
    out = []
    for axis in (0, 1):
        v = [0] * 22
        v[axis] = 1
        moved = list(v)
        for r, cr in enumerate(coords):
            moved[cr] = sum(BOOST[r][c] * v[cc] for c, cc in enumerate(coords))
        out.append(tuple(moved))
    return out


def t4_pair(rows):
    p = LinearMap4.from_rows(rows)
    omega = class_of_constant_form(pullback_form2(p, standard_symplectic()), SPACE)
    base = class_of_constant_form(pullback_form2(p, standard_brane()), SPACE)
    return omega.coeffs, base.coeffs


def scaled(space, coeffs, t):
    return CohClass(space, tuple(t * c for c in coeffs))


scales = st.one_of(
    st.integers(min_value=-3, max_value=3).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool),
    st.sampled_from([1.0, 0.5, -2.0, 1 / 3, 1.7, 1e-3, 1e3]),
)
entries = st.integers(min_value=-2, max_value=2)
int_maps = st.lists(st.lists(entries, min_size=4, max_size=4), min_size=4, max_size=4).filter(
    lambda rows: round(np.linalg.det(np.array(rows, dtype=float))) > 0
)

#: a pair whose chart takes the positive-direction path
POSITIVE_DIRECTION_PAIR = ((1, 4, 1, 1, -3, 1), (-1, 0, 1, 1, -1, -1))


class TestChartOracle:
    @given(int_maps, scales)
    @example([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], Fraction(1, 3))
    def test_t4_pullbacks(self, rows, t):
        omega, base = t4_pair(rows)
        assert_same_chart(QuadricSpec(SPACE, scaled(SPACE, omega, t)), scaled(SPACE, base, t))

    @pytest.mark.parametrize("t", [1, 3, Fraction(2, 3), 1.0, 0.7])
    def test_positive_direction_pair(self, t):
        omega, base = POSITIVE_DIRECTION_PAIR
        spy = mock.Mock(wraps=_positive_direction)
        with mock.patch.dict(globals(), {"_positive_direction": spy}):
            assert_same_chart(QuadricSpec(SPACE, scaled(SPACE, omega, t)), scaled(SPACE, base, t))
        assert spy.called

    @given(int_maps, st.integers(min_value=1, max_value=3))
    def test_float_base_against_exact_omega(self, rows, t):
        omega, base = t4_pair(rows)
        assert_same_chart(QuadricSpec(SPACE, scaled(SPACE, omega, t)), scaled(SPACE, base, float(t)))

    @given(st.sampled_from([(0, 1), (1, 0)]), st.integers(min_value=3, max_value=21), scales)
    def test_boosted_k3_pairs(self, plane, n, t):
        omega, base = boosted_k3_pair(plane + (n,))
        assert_same_chart(QuadricSpec(K3, scaled(K3, omega, t)), scaled(K3, base, t))

    def test_refusals_match(self):
        with pytest.raises(NotInQuadric):
            period_domain.build_chart(QuadricSpec(SPACE, W0C), scaled(SPACE, F0C.coeffs, 2))
        assert_same_chart(QuadricSpec(SPACE, W0C), scaled(SPACE, F0C.coeffs, 2))
        # the orthocomplement of (base, omega) is negative definite here
        space = IntersectionSpace("minus", 4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)))
        q = QuadricSpec(space, CohClass(space, (1, 0, 0, 0)))
        with pytest.raises(SignatureMismatch):
            period_domain.build_chart(q, CohClass(space, (0, 1, 0, 0)))
        assert_same_chart(q, CohClass(space, (0, 1, 0, 0)))


# --- projections on their own ----------------------------------------------------

CUSTOM = IntersectionSpace("custom", 4, ((0, 1, 0, 0), (1, 0, 2, 0), (0, 2, -1, 3), (0, 0, 3, 0)))
ZERO_ROW = IntersectionSpace("zero_row", 3, ((1, 0, 0), (0, 0, 0), (0, 0, -1)))

exact_scalars = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
#: NaN, inf and 1e300 (whose products overflow) besides the finite range
floats = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 1e300]),
)
#: exact classes, float classes and classes that mix the two
kinds = st.sampled_from([exact_scalars, floats, st.one_of(exact_scalars, floats)])
squares = st.one_of(
    st.integers(min_value=-5, max_value=5).filter(bool),
    st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool),
    st.sampled_from([2.0, -0.5, 3.25]),
)


@st.composite
def projection_inputs(draw):
    space = draw(st.sampled_from([SPACE, K3, CUSTOM, ZERO_ROW]))

    def vec():
        entries = st.lists(draw(kinds), min_size=space.dim, max_size=space.dim)
        return CohClass(space, tuple(draw(entries)))

    v = vec()
    basis = [(vec(), draw(squares)) for _ in range(draw(st.integers(min_value=0, max_value=4)))]
    return v, basis


class TestProjectOffOracle:
    @given(projection_inputs())
    def test_matches_pre_change_projection_and_pairing(self, inputs):
        v, basis = inputs
        with pre_change_arithmetic():
            want = project_off(v, basis)
            want_pairs = [v.pair(w) for w, _ in basis]
        got = cohomology.project_off(v, basis)
        assert all(same_coeff(x, y) for x, y in zip(got.coeffs, want.coeffs)), (got, want)
        assert all(same_coeff(v.pair(w), p) for (w, _), p in zip(basis, want_pairs))

    @pytest.mark.parametrize("w", [(1,) + (0,) * 21, (1.0,) + (0.0,) * 21])
    def test_space_mismatch_is_refused(self, w):
        v = CohClass(SPACE, (1, 0, 0, 0, 0, 0))
        with pytest.raises(SpaceMismatch):
            cohomology.project_off(v, [(CohClass(K3, w), 1)])
