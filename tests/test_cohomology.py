"""Intersection-space models, the constant-form isomorphism, signatures
and indefinite Gram-Schmidt."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from branekit import period_domain
from branekit.cohomology import (
    CohClass,
    IntersectionSpace,
    _Projection,
    class_of_constant_form,
    constant_form_of_class,
    indefinite_gram_schmidt,
    k3_space,
    nullspace_exact,
    project_off,
    signature,
    standard_basis,
    torus_space,
)
from branekit.errors import (
    BranekitError,
    DegenerateSubspace,
    SignatureMismatch,
    SpaceMismatch,
    WrongSpace,
)
from branekit.exterior4 import Form2, wedge22
from branekit.torus_forms import standard_brane, standard_kahler, standard_symplectic

SPACE = torus_space()
K3 = k3_space()
B = standard_basis(SPACE)
E = standard_basis(K3)

ints = st.integers(min_value=-4, max_value=4)
form2s = st.builds(lambda *c: Form2.from_coeffs(c), *([ints] * 6))

# symmetric, rows with several nonzero entries, an entry other than +-1
CUSTOM = IntersectionSpace(
    "custom", 4, ((0, 1, 0, 0), (1, 0, 2, 0), (0, 2, -1, 3), (0, 0, 3, 0))
)


def dense_pair(x: CohClass, y: CohClass):
    """The dense triple loop over the whole pairing matrix: the oracle."""
    p = x.space.pairing
    return sum(
        xi * sum(p[i][j] * y.coeffs[j] for j in range(len(y.coeffs)))
        for i, xi in enumerate(x.coeffs)
    )


def _classes(space, scalars):
    vec = st.lists(scalars, min_size=space.dim, max_size=space.dim)
    return st.tuples(vec, vec).map(
        lambda xy: (CohClass(space, tuple(xy[0])), CohClass(space, tuple(xy[1])))
    )


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
exact_scalars = st.one_of(st.integers(min_value=-50, max_value=50), fractions)
finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
spaces = st.sampled_from([SPACE, K3, CUSTOM])

# exact zeros about a third of the time, as in the chart vectors, next to
# the values whose product with an exact zero must not be skipped
pair_scalars = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.integers(min_value=-50, max_value=50),
    fractions,
    finite_floats,
)


@st.composite
def dense_spaces(draw):
    """A random symmetric 5x5 integer pairing, mostly nonzero entries."""
    rows = [[0] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i, 5):
            rows[i][j] = rows[j][i] = draw(st.integers(min_value=-3, max_value=3))
    return IntersectionSpace("dense", 5, tuple(tuple(r) for r in rows))


def unskipped_pair(x: CohClass, y: CohClass):
    """Every term over the nonzero pairing entries, exact zeros included."""
    yc = y.coeffs
    return sum(xi * (p * yc[j]) for xi, row in zip(x.coeffs, x.space.sparse_rows) for j, p in row)


def same_scalar(a, b):
    """Equal in value and type, floats also in the sign of zero; NaN matches NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b and (not isinstance(a, float) or math.copysign(1, a) == math.copysign(1, b))


class TestSpaces:
    def test_torus_pairing_is_three_hyperbolic_planes(self):
        expected = (
            (0, 1, 0, 0, 0, 0),
            (1, 0, 0, 0, 0, 0),
            (0, 0, 0, 1, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 0, 0, 1),
            (0, 0, 0, 0, 1, 0),
        )
        assert SPACE.pairing == expected
        assert SPACE.dim == 6

    def test_signatures(self):
        assert signature(SPACE) == (3, 3)
        assert signature(K3) == (3, 19)
        assert K3.dim == 22

    def test_k3_diagonal_values(self):
        assert E[0].pair(E[0]) == 1
        assert E[3].pair(E[3]) == -1
        assert E[0].pair(E[3]) == 0

    def test_standard_class_pairings(self):
        w0 = class_of_constant_form(standard_symplectic())
        f0 = class_of_constant_form(standard_brane())
        assert w0.pair(w0) == 2
        assert f0.pair(w0) == 0
        assert f0.pair(f0) == 2

    def test_signature_is_congruence_invariant(self):
        rng = np.random.default_rng(2)
        mat = np.array(SPACE.pairing, float)
        for _ in range(10):
            while True:
                q = rng.integers(-2, 3, size=(6, 6))
                if abs(np.linalg.det(q)) > 0.5:
                    break
            assert signature(q.T @ mat @ q) == (3, 3)

    def test_signature_does_not_depend_on_the_diagonal_scale(self):
        # the chart metric of omega0, f0 at ybar (1e5, 0, 0), rounded: a
        # tol scaled by the largest eigenvalue (2e10) dropped all three -2s
        assert signature(np.diag([2e10, -2e-10, -2.0, -2.0])) == (1, 3)
        # any diagonal congruence of a matrix with nonzero diagonal
        rng = np.random.default_rng(5)
        mat = np.diag([1.0, 1.0, -1.0, -1.0, -1.0]) + 0.1 * np.ones((5, 5))
        for _ in range(10):
            d = 10.0 ** rng.uniform(-6, 6, size=5)
            assert signature(d[:, None] * mat * d) == signature(mat) == (2, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_matrix_has_no_signature(self, bad):
        # a NaN eigenvalue counts as neither sign, so it read as (0, 0)
        with pytest.raises(BranekitError):
            signature([[bad, 0.0], [0.0, 1.0]])
        big = np.diag([1.0] * 3 + [-1.0] * 19)
        big[4, 7] = big[7, 4] = bad
        with pytest.raises(BranekitError):  # numpy's LinAlgError leaked here
            signature(big)

    def test_space_mismatch_raises(self):
        with pytest.raises(SpaceMismatch):
            B[0].pair(E[0])


class TestConstantFormIsomorphism:
    def test_standard_coefficients(self):
        assert class_of_constant_form(standard_brane()).coeffs == (0, 0, 1, 1, 0, 0)
        assert class_of_constant_form(standard_symplectic()).coeffs == (0, 0, 0, 0, 1, 1)
        assert class_of_constant_form(standard_kahler()).coeffs == (1, 1, 0, 0, 0, 0)

    @given(form2s, form2s)
    def test_isometry(self, a, b):
        assert class_of_constant_form(a).pair(class_of_constant_form(b)) == wedge22(a, b).v

    @given(form2s)
    def test_round_trip(self, f):
        assert constant_form_of_class(class_of_constant_form(f)) == f

    def test_round_trip_from_class_side(self):
        c = CohClass(SPACE, (3, -1, 2, 5, 0, Fraction(1, 2)))
        assert class_of_constant_form(constant_form_of_class(c)) == c

    def test_zero(self):
        assert constant_form_of_class(CohClass(SPACE, (0,) * 6)) == Form2()

    def test_k3_class_has_no_form_model(self):
        with pytest.raises(WrongSpace):
            constant_form_of_class(E[0])


class TestGramSchmidt:
    def test_hyperbolic_pair_already_orthogonal(self):
        v1, v2 = B[0] + B[1], B[0] - B[1]
        out = indefinite_gram_schmidt([v1, v2], [2, -2])
        assert out[0] == v1 and out[1] == v2

    def test_k3_diagonal_vectors_unchanged(self):
        out = indefinite_gram_schmidt([E[0], E[3]], [1, -1])
        assert out[0] == E[0] and out[1] == E[3]

    def test_wrong_sign_is_rejected(self):
        with pytest.raises(SignatureMismatch):
            indefinite_gram_schmidt([B[0] + B[1]], [-2])

    def test_null_vector_is_degenerate(self):
        with pytest.raises(DegenerateSubspace):
            indefinite_gram_schmidt([B[0]], [2])

    @pytest.mark.parametrize("target", [1, -1])
    def test_nan_pivot_square_is_degenerate(self, target):
        # NaN <= tol is false, so a NaN square used to pass as a pivot
        v = CohClass(K3, (0,) * 5 + (math.nan,) + (0,) * 16)
        with pytest.raises(DegenerateSubspace):
            indefinite_gram_schmidt([v], [target])

    def test_exact_scaling_by_rational_root(self):
        # (B1 - B2) has square -2; scaling to -8 needs the exact factor 2
        out = indefinite_gram_schmidt([B[0] - B[1]], [-8])
        assert out[0].coeffs == (2, -2, 0, 0, 0, 0)

    def test_output_gram_matches_targets(self):
        rng = np.random.default_rng(17)
        basis = [B[0] + B[1], B[0] - B[1], B[2] - B[3], B[4] - B[5]]
        targets = [2, -2, -2, -2]
        for _ in range(15):
            # unit lower-triangular mixing keeps all pivots alive
            m = np.tril(rng.integers(-3, 4, size=(4, 4)), k=-1) + np.eye(4, dtype=int)
            vectors = [
                sum((int(m[i, j]) * basis[j] for j in range(i)), int(m[i, i]) * basis[i])
                for i in range(4)
            ]
            out = indefinite_gram_schmidt(vectors, targets)
            for i, u in enumerate(out):
                for j, v in enumerate(out):
                    expected = targets[i] if i == j else 0
                    assert abs(float(u.pair(v)) - expected) <= 1e-10


class TestNullspace:
    def test_kernel_of_standard_functionals(self):
        rows = [(0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)]
        basis = nullspace_exact(rows, 6)
        assert len(basis) == 4
        for vec in basis:
            for row in rows:
                assert sum(r * v for r, v in zip(row, vec)) == 0

    def test_full_rank_gives_empty_kernel(self):
        rows = [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
        assert nullspace_exact(rows, 4) == []

    def test_dependent_rows_are_handled(self):
        rows = [(1, 2, 0), (2, 4, 0)]
        basis = nullspace_exact(rows, 3)
        assert len(basis) == 2


class TestSparsePairing:
    @given(spaces.flatmap(lambda sp: _classes(sp, exact_scalars)))
    def test_exact_inputs_match_dense_oracle_exactly(self, xy):
        x, y = xy
        value = x.pair(y)
        assert value == dense_pair(x, y)
        assert isinstance(value, (int, Fraction))

    @given(st.sampled_from([SPACE, K3]).flatmap(lambda sp: _classes(sp, finite_floats)))
    def test_floats_bit_equal_on_bundled_spaces(self, xy):
        x, y = xy
        assert repr(x.pair(y)) == repr(dense_pair(x, y))

    @given(_classes(CUSTOM, finite_floats))
    def test_floats_close_on_non_diagonal_space(self, xy):
        x, y = xy
        scale = sum(
            abs(xi * p * y.coeffs[j])
            for xi, row in zip(x.coeffs, CUSTOM.pairing)
            for j, p in enumerate(row)
        )
        assert abs(x.pair(y) - dense_pair(x, y)) <= 1e-12 * scale

    @pytest.mark.parametrize("space", [SPACE, K3, CUSTOM], ids=lambda sp: sp.name)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_gives_non_finite_pair(self, space, bad):
        rng = np.random.default_rng(5)
        for k in range(space.dim):
            finite = CohClass(space, tuple(float(v) for v in rng.normal(size=space.dim)))
            coeffs = list(finite.coeffs)
            coeffs[k] = bad
            broken = CohClass(space, tuple(coeffs))
            assert not math.isfinite(broken.pair(finite))
            assert not math.isfinite(finite.pair(broken))
            assert not math.isfinite(broken.pair(broken))

    @given(st.one_of(st.sampled_from([SPACE, K3]), dense_spaces()).flatmap(
        lambda sp: _classes(sp, pair_scalars)))
    def test_zero_skipping_matches_unskipped_sum(self, xy):
        x, y = xy
        assert same_scalar(x.pair(y), unskipped_pair(x, y))

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_skipped_fraction_keeps_the_fraction_type(self, zero):
        x = CohClass(K3, (Fraction(3, 2), 2) + (0,) * 20)
        y = CohClass(K3, (zero, 5) + (0,) * 20)
        assert same_scalar(x.pair(y), Fraction(10))  # the term 3/2 * 0 is skipped
        assert same_scalar(y.pair(x), Fraction(10))  # and 0 * 3/2
        assert same_scalar(y.pair(y), Fraction(25) if type(zero) is Fraction else 25)

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_float_times_exact_zero_is_not_skipped(self, zero, bad):
        x = CohClass(SPACE, (zero, 1, 0, 0, 0, 0))
        y = CohClass(SPACE, (0, bad, 0, 0, 0, 0))
        assert math.isnan(x.pair(y))  # nan * 0 and inf * 0 are both NaN
        assert same_scalar(x.pair(CohClass(SPACE, (0, -0.0, 0, 0, 0, 0))), 0.0)

    def test_sparse_rows_hold_the_nonzero_entries(self):
        assert SPACE.sparse_rows == (
            ((1, 1),), ((0, 1),), ((3, 1),), ((2, 1),), ((5, 1),), ((4, 1),)
        )
        assert K3.sparse_rows == tuple(((i, 1 if i < 3 else -1),) for i in range(22))
        assert CUSTOM.sparse_rows[2] == ((1, 2), (2, -1), (3, 3))

    def test_rows_are_not_part_of_identity(self):
        assert k3_space() == k3_space()
        assert hash(k3_space()) == hash(k3_space())
        assert len({k3_space(), k3_space(), torus_space()}) == 2
        assert k3_space() != torus_space()
        assert "sparse_rows" not in repr(K3)
        assert repr(k3_space()) == repr(K3)

    def test_k3_chart_unchanged_under_dense_oracle(self, monkeypatch):
        # the boosted classes of the K3 golden report; an axis-aligned pair
        # would not exercise the projections
        omega = CohClass(K3, (1, 2, 0, 0, 0, 2) + (0,) * 16)
        base = CohClass(K3, (-2, -1, 0, 0, 0, -2) + (0,) * 16)
        q = period_domain.QuadricSpec(K3, omega)
        sparse = period_domain.build_chart(q, base)
        monkeypatch.setattr(CohClass, "pair", dense_pair)
        dense = period_domain.build_chart(q, base)
        for a, b in [(sparse.b, dense.b), *zip(sparse.neg, dense.neg)]:
            assert [repr(v) for v in a.coeffs] == [repr(v) for v in b.coeffs]
        assert len(sparse.neg) == len(dense.neg) == 19


# any float, zeros and the smallest subnormal included
bounds = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))


class TestExactSquareSign:
    """An exact projection decides the sign of u.u against a float bound on
    its integer numerators, as the pairing of its class compares with it."""

    @given(st.one_of(spaces, dense_spaces()).flatmap(lambda sp: _classes(sp, exact_scalars)),
           bounds, st.sampled_from([None, -1, 0, 1]))
    def test_matches_the_pairing_of_the_projected_class(self, vw, bound, near):
        v, w = vw
        w_sq = w.pair(w)
        basis = [(w, w_sq)] if w_sq else []
        u = project_off(v, basis)
        sq = u.pair(u)
        if near is not None:  # the float of the square, or a neighbour of it
            bound = math.nextafter(float(sq), near * math.inf) if near else float(sq)
        projection = _Projection(v).extend(basis)
        assert projection.exact is not None
        for b in (bound, math.inf, -math.inf, math.nan):
            assert projection.square_sign(b) == (sq > b) - (sq < b)
