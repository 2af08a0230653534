"""Pointwise algebra: wedge, interior product, complex-structure
construction, type projectors, complex kernels."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branekit.brane_check import constant_branes_pass
from branekit.cohomology import class_of_constant_form
from branekit.errors import NonDegenerateRequired, NotAlmostComplex
from branekit.exterior4 import (
    BIVECTOR_SLOTS,
    Form2,
    LinearMap4,
    compose_i,
    exact_div,
    form2_of_matrix,
    interior,
    inverse_times,
    is_almost_complex,
    is_exact,
    matrix_of_form2,
    max_abs,
    pfaffian,
    pullback_form2,
    square_resid,
    tol_bound,
    type_projectors,
    wedge,
    wedge22,
)
from branekit.period_domain import QuadricSpec, quadric_contains
from branekit.torus_forms import (
    TrigPolyFn,
    TrigPolyForm2,
    eval_at,
    standard_brane,
    standard_kahler,
    standard_symplectic,
    uniform_grid,
)

from conftest import random_brane_pair, random_form2

W0 = standard_symplectic()
F0 = standard_brane()
KAPPA = standard_kahler()

J_BLOCK = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))

ints = st.integers(min_value=-4, max_value=4)
form2s = st.builds(lambda *c: Form2.from_coeffs(c), *([ints] * 6))


def _parity(perm):
    inv = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def wedge_oracle(a: Form2, b: Form2):
    """Brute-force (a^b)(e1, e2, e3, e4) over all permutations of S4."""
    ma, mb = matrix_of_form2(a), matrix_of_form2(b)
    total = 0
    for perm in itertools.permutations(range(4)):
        total += _parity(perm) * ma[perm[0]][perm[1]] * mb[perm[2]][perm[3]]
    return Fraction(total, 4)


def interior_oracle(v, s: Form2):
    """s(v, e_j) straight from the bilinear-form definition."""
    out = [0, 0, 0, 0]
    for (a, b), c in zip(BIVECTOR_SLOTS, s.coeffs):
        for j in range(4):
            out[j] += c * (v[a - 1] * (1 if j == b - 1 else 0) - v[b - 1] * (1 if j == a - 1 else 0))
    return tuple(out)


class TestWedge:
    def test_standard_values(self):
        assert wedge22(W0, W0).v == 2
        assert wedge22(F0, F0).v == 2
        assert wedge22(F0, W0).v == 0
        assert wedge22(KAPPA, KAPPA).v == 2
        assert wedge22(KAPPA, W0).v == 0
        assert wedge22(KAPPA, F0).v == 0

    def test_decomposable_squares_vanish(self):
        for slot in range(6):
            e = Form2.from_coeffs(tuple(1 if i == slot else 0 for i in range(6)))
            assert wedge22(e, e).v == 0

    @given(form2s, form2s)
    def test_matches_bruteforce_oracle(self, a, b):
        assert wedge22(a, b).v == wedge_oracle(a, b)
        # the same kernel on grid rows and on trig polynomials
        ta = TrigPolyFn.mode((1, 0, 2, 0), cos=1) * TrigPolyForm2.from_constant(a)
        tb = TrigPolyForm2.from_constant(b) + TrigPolyFn.mode((0, 1, 0, -1), sin=2) * (
            TrigPolyForm2.from_constant(a)
        )
        pts = uniform_grid(3)
        rows = wedge(ta.eval_grid(pts).T, tb.eval_grid(pts).T)
        pointwise = [wedge22(eval_at(ta, x), eval_at(tb, x)).v for x in pts]
        assert np.allclose(rows, pointwise, rtol=1e-12, atol=1e-12)
        density = wedge(ta.c, tb.c)
        assert np.allclose(density.eval_grid(pts), rows, rtol=1e-12, atol=1e-12)

    @given(form2s, form2s, form2s, ints)
    def test_symmetric_and_bilinear(self, a, b, c, s):
        assert wedge22(a, b).v == wedge22(b, a).v
        assert wedge22(a + s * b, c).v == wedge22(a, c).v + s * wedge22(b, c).v


class TestInterior:
    def test_basis_contractions(self):
        assert interior((1, 0, 0, 0), Form2(c12=1)).c == (0, 1, 0, 0)
        assert interior((0, 1, 0, 0), Form2(c12=1)).c == (-1, 0, 0, 0)
        assert interior((1, 0, 0, 0), W0).c == (0, 0, 0, 1)

    @given(form2s, *([ints] * 4))
    def test_matches_definition(self, s, v1, v2, v3, v4):
        v = (v1, v2, v3, v4)
        assert interior(v, s).c == interior_oracle(v, s)


class TestComposeI:
    def test_standard_brane_gives_block_rotation(self):
        i = compose_i(W0, F0)
        assert i.m == tuple(tuple(Fraction(e) for e in row) for row in J_BLOCK)
        sq = i @ i
        assert sq.m == LinearMap4.from_rows(
            [[-Fraction(1) if a == b else Fraction(0) for b in range(4)] for a in range(4)]
        ).m

    def test_omega_with_itself_is_identity(self):
        i = compose_i(W0, W0)
        assert all(i.m[a][b] == (1 if a == b else 0) for a in range(4) for b in range(4))

    def test_kahler_partner_squares_to_minus_id(self):
        i = compose_i(W0, KAPPA)
        assert is_almost_complex(i, tol=0)
        expected = ((0, 0, 1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, 1, 0, 0))
        assert i.m == tuple(tuple(Fraction(e) for e in row) for row in expected)

    def test_degenerate_omega_rejected(self):
        with pytest.raises(NonDegenerateRequired):
            compose_i(Form2(c12=1), F0)

    @given(form2s, form2s)
    def test_defining_property_exact(self, omega, f):
        if wedge22(omega, omega).v == 0:
            with pytest.raises(NonDegenerateRequired):
                compose_i(omega, f)
            return
        i = compose_i(omega, f)
        basis = [tuple(1 if k == j else 0 for k in range(4)) for j in range(4)]
        for u in basis:
            iu = tuple(sum(row[k] * u[k] for k in range(4)) for row in i.m)  # I u, exact
            lhs = interior(iu, omega).c
            rhs = interior(u, f).c
            assert lhs == rhs

    def test_defining_property_floats(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            omega = Form2.from_coeffs(tuple(rng.normal(size=6)))
            if abs(wedge22(omega, omega).v) < 1e-2:
                continue
            f = Form2.from_coeffs(tuple(rng.normal(size=6)))
            i = compose_i(omega, f)
            for j in range(4):
                u = tuple(1 if k == j else 0 for k in range(4))
                iu = tuple(sum(row[k] * u[k] for k in range(4)) for row in i.m)
                lhs = interior(iu, omega).c
                rhs = interior(u, f).c
                assert max(abs(a - b) for a, b in zip(lhs, rhs)) <= 1e-12


class TestInverseTimes:
    @settings(max_examples=2000)
    @given(form2s)
    def test_closed_form_inverts_integer_omega_exactly(self, omega):
        b_omega = matrix_of_form2(omega)
        if pfaffian(omega) == 0:
            with pytest.raises(NonDegenerateRequired):
                inverse_times(omega, b_omega)
            return
        product = inverse_times(omega, b_omega)
        assert product == tuple(tuple(int(a == b) for b in range(4)) for a in range(4))
        assert all(isinstance(e, Fraction) for row in product for e in row)


class TestIsAlmostComplex:
    def test_block_rotation(self):
        assert is_almost_complex(LinearMap4.from_rows(J_BLOCK))

    def test_identity_is_not(self):
        assert not is_almost_complex(LinearMap4.identity())

    def test_degenerate_candidate_is_not(self):
        assert not is_almost_complex(compose_i(W0, Form2(c12=1)))

    def test_nan_entry_is_not(self):
        # the NaN sits past the first entries of i@i + Id, which are 0
        rows = [list(r) for r in J_BLOCK]
        rows[3][3] = float("nan")
        j = LinearMap4.from_rows(rows)
        assert math.isnan(square_resid(j))
        assert not is_almost_complex(j)


class TestMaxAbs:
    @pytest.mark.parametrize("k", range(4))
    def test_nan_anywhere_propagates(self, k):
        values = [1.0, -3.0, 2.0, 0.5]
        values[k] = float("nan")
        assert math.isnan(max_abs(values))
        assert math.isnan(Form2.from_coeffs([0, 0] + values).max_abs())
        assert math.isnan(LinearMap4.from_rows([values] * 4).max_abs())

    def test_matches_builtin_max_and_keeps_exact_type(self):
        values = (Fraction(-7, 2), 3, Fraction(1, 3))
        assert max_abs(values) == Fraction(7, 2)
        assert isinstance(max_abs(values), Fraction)
        assert max_abs([0, 0.0]) == 0 and isinstance(max_abs([0, 0.0]), int)
        assert max_abs(iter([-1.5, 1.5, -2.5])) == 2.5


SCALARS = (
    3, True, Fraction(2, 3), 1.5, np.float64(2.0), np.int64(4), 1 + 2j, np.array(2.0),
)


class TestIsExact:
    @pytest.mark.parametrize("value", SCALARS, ids=lambda v: type(v).__name__)
    def test_agrees_with_isinstance(self, value):
        assert is_exact(value) is isinstance(value, (int, Fraction))

    def test_every_value_must_be_exact(self):
        for values in itertools.product(SCALARS, repeat=2):
            assert is_exact(*values) is all(isinstance(v, (int, Fraction)) for v in values)
        assert is_exact()
        assert exact_div(1, 3) == Fraction(1, 3) and exact_div(1.0, 4) == 0.25


class TestTypeProjectors:
    def test_kahler_form_is_pure_11(self):
        i0 = compose_i(W0, F0)
        p11, p2002 = type_projectors(i0, KAPPA)
        assert p11 == Form2(c12=Fraction(1), c34=Fraction(1))
        assert all(v == 0 for v in p2002.coeffs)

    def test_symplectic_form_is_pure_2002(self):
        i0 = compose_i(W0, F0)
        p11, p2002 = type_projectors(i0, W0)
        assert all(v == 0 for v in p11.coeffs)
        assert p2002 == Form2(c14=Fraction(1), c23=Fraction(1))

    def test_zero_form(self):
        i0 = compose_i(W0, F0)
        p11, p2002 = type_projectors(i0, Form2())
        assert all(v == 0 for v in p11.coeffs) and all(v == 0 for v in p2002.coeffs)

    def test_rejects_non_complex_structure(self):
        with pytest.raises(NotAlmostComplex):
            type_projectors(LinearMap4.identity(), KAPPA)

    @given(form2s, form2s, st.integers(min_value=0, max_value=10**6))
    def test_projector_identities(self, beta, gamma, seed):
        omega, f, _ = random_brane_pair(np.random.default_rng(seed))
        i = compose_i(omega, f)
        p11, p2002 = type_projectors(i, beta)
        # complementary
        assert p11 + p2002 == Form2.from_coeffs(tuple(Fraction(c) for c in beta.coeffs))
        # idempotent
        assert type_projectors(i, p11)[0] == p11
        assert type_projectors(i, p2002)[1] == p2002
        # wedge-orthogonal across types
        q11, q2002 = type_projectors(i, gamma)
        assert wedge22(p11, q2002).v == 0
        assert wedge22(q11, p2002).v == 0

    @given(st.integers(min_value=0, max_value=10**6))
    def test_brane_forms_live_in_2002_part(self, seed):
        omega, f, _ = random_brane_pair(np.random.default_rng(seed))
        i = compose_i(omega, f)
        assert all(v == 0 for v in type_projectors(i, omega)[0].coeffs)
        assert all(v == 0 for v in type_projectors(i, f)[0].coeffs)

    @given(form2s, st.integers(min_value=0, max_value=10**6))
    def test_orthogonality_to_brane_pair_detects_type(self, beta, seed):
        # beta wedges to zero against both F and omega exactly when its
        # (2,0)+(0,2) part vanishes
        omega, f, _ = random_brane_pair(np.random.default_rng(seed))
        i = compose_i(omega, f)
        p11, p2002 = type_projectors(i, beta)
        assert wedge22(p11, f).v == 0
        assert wedge22(p11, omega).v == 0
        w_f, w_o = wedge22(beta, f).v, wedge22(beta, omega).v
        if w_f == 0 and w_o == 0:
            assert all(v == 0 for v in p2002.coeffs)
        else:
            assert any(v != 0 for v in p2002.coeffs)


class TestPullback:
    @given(form2s, form2s, st.integers(min_value=0, max_value=10**6))
    def test_pullback_scales_wedge_by_determinant(self, a, b, seed):
        from conftest import random_int_gl4

        p = random_int_gl4(np.random.default_rng(seed))
        det = round(np.linalg.det(np.array(p.m, float)))
        assert wedge22(pullback_form2(p, a), pullback_form2(p, b)).v == det * wedge22(a, b).v

    def test_matrix_roundtrip(self):
        f = random_form2(np.random.default_rng(5))
        assert form2_of_matrix(matrix_of_form2(f)) == f


class TestTolBound:
    #: u ** 0.5 is one ulp above math.sqrt(u) here, and so is 1e-9 times it
    POW_MISS = 1.8982890960112404

    def _units(self):
        rng = np.random.default_rng(27)
        return [self.POW_MISS, 0.0, 1.0, *np.exp(rng.uniform(-60.0, 60.0, 4000)).tolist()]

    def test_is_tol_times_the_root_of_the_degree_bit_for_bit(self):
        for tol in (1e-9, 0.0, 2.5):
            for u in self._units():
                assert tol_bound(tol, u, 0) == tol
                assert tol_bound(tol, u, 1) == tol * math.sqrt(u)
                assert tol_bound(tol, u, 2) == tol * u

    def test_the_sample_tells_sqrt_from_pow(self):
        assert self.POW_MISS ** 0.5 != math.sqrt(self.POW_MISS)
        assert tol_bound(1e-9, self.POW_MISS, 1) != 1e-9 * self.POW_MISS ** 0.5

    def test_a_nan_unit_fails_every_ceiling_and_floor(self):
        for degree in (1, 2):
            bound = tol_bound(1e-9, math.nan, degree)
            for value in (0.0, -1.0, 1e-300, 1.0, math.inf, Fraction(1, 3)):
                assert not value <= bound and not value > bound

    def test_a_degree_outside_0_1_2_is_refused(self):
        for degree in (-1, 3, 0.5):
            with pytest.raises(KeyError):
                tol_bound(1e-9, 4.0, degree)

    def test_reads_elementwise_against_stacked_residuals(self):
        # omega = 2 omega0 has u = 4, and F = 2 F0 + e^12 + b e^34 has
        # F^F - omega^omega = 2b, exactly in floats: at 2b = (1 - 2^-20) tol u,
        # tol u and (1 + 2^-20) tol u the verdicts are pass, pass, fail
        tol, omega = 2.0 ** -30, 2 * W0
        u = float(pfaffian(omega))
        resid = np.array([1 - 2.0 ** -20, 1.0, 1 + 2.0 ** -20]) * tol * u
        want = [True, True, False]
        assert (resid <= tol_bound(tol, u, 2)).tolist() == want
        assert (resid > tol_bound(tol, math.nan, 2)).tolist() == [False] * 3
        zero, one = np.zeros(3), np.ones(3)
        fc = (one, 2 * one, zero, zero, -2 * one, resid / 2)
        assert (wedge(fc, fc) - wedge22(omega, omega).v).tolist() == resid.tolist()
        assert constant_branes_pass(omega, fc, tol=tol).tolist() == want
        stacked = class_of_constant_form(Form2.from_coeffs(fc))
        q = QuadricSpec(stacked.space, class_of_constant_form(omega))
        assert quadric_contains(q, stacked, tol).tolist() == want
