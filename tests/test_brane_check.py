"""Brane-condition verification, the holomorphic-symplectic equivalence,
and the deformation equations."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from branekit import brane_check, exterior4, torus_forms
from branekit.brane_check import (
    deformation_residuals,
    equivalence_check,
    linearized_deformation_check,
    verify_brane,
    verify_holomorphic_symplectic,
)
from branekit.cohomology import class_of_constant_form, constant_form_of_class, torus_space
from branekit.errors import BranekitError, NonDegenerateRequired, NotAlmostComplex
from branekit.exterior4 import (
    Form2,
    LinearMap4,
    compose_i,
    is_exact,
    max_abs,
    pfaffian,
    pullback_form2,
    square_resid,
    type_projectors,
    wedge,
    wedge22,
)
from branekit.period_domain import QuadricSpec, build_chart, chart_point
from branekit.torus_forms import (
    TrigPolyFn,
    TrigPolyForm1,
    TrigPolyForm2,
    eval_at,
    exterior_d,
    i_basis,
    i_square_terms,
    nijenhuis_defect,
    rotation_family,
    standard_brane,
    standard_kahler,
    standard_symplectic,
    uniform_grid,
)

from conftest import (
    R_234,
    brane_field,
    random_brane_field,
    random_brane_pair,
    random_form2,
    random_int_gl4,
    trig_polys,
)

W0 = standard_symplectic()
F0 = standard_brane()
KAPPA = standard_kahler()


class TestVerifyBrane:
    def test_standard_pair_exact_zero_residuals(self):
        rep = verify_brane(W0, F0)
        assert rep.passed
        assert rep.wedge_square_resid == 0
        assert rep.wedge_orth_resid == 0
        assert rep.closedness_resid == 0
        assert rep.i_square_resid == 0
        assert rep.orientation_ok

    def test_kahler_partner_is_a_brane(self):
        assert verify_brane(W0, KAPPA).passed

    def test_rotation_family_fails_only_closedness(self):
        rep = verify_brane(W0, rotation_family((1, 0, 0, 0)))
        assert not rep.passed
        assert rep.closedness_resid > 0.5
        assert rep.wedge_square_resid <= 1e-12
        assert rep.wedge_orth_resid <= 1e-12
        assert rep.i_square_resid <= 1e-12

    def test_degenerate_omega_rejected(self):
        with pytest.raises(NonDegenerateRequired):
            verify_brane(Form2(c12=1), F0)

    def test_orientation_reversal_fails(self):
        # -F0 wedge -F0 is still positive, so flip one factor instead:
        # e^{13} + e^{24} squares to -2
        rep = verify_brane(W0, Form2(c13=1, c24=1))
        assert not rep.passed
        assert not rep.orientation_ok

    def test_random_exact_brane_pairs_pass(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            omega, f, _ = random_brane_pair(rng)
            rep = verify_brane(omega, f)
            assert rep.passed
            assert rep.wedge_square_resid == 0
            assert rep.i_square_resid == 0


class TestVerifyHolomorphicSymplectic:
    def test_standard_form_passes_with_positivity_four(self):
        rep = verify_holomorphic_symplectic(F0, W0)
        assert rep.passed
        assert rep.positivity_min == 4  # = 2 * omega^omega
        assert rep.square_resid == 0

    def test_equal_parts_fail_isotropy(self):
        rep = verify_holomorphic_symplectic(W0, W0)
        assert not rep.passed
        assert rep.square_resid == 4  # |2i * 2|

    def test_vanishing_real_part_fails_isotropy(self):
        rep = verify_holomorphic_symplectic(Form2(), W0)
        assert not rep.passed
        assert rep.square_resid == 2


class TestEquivalence:
    def test_standard_pair(self):
        assert equivalence_check(W0, F0)

    def test_rotation_family(self):
        assert equivalence_check(W0, rotation_family((1, 0, 0, 0)))

    def test_decomposable_form(self):
        assert equivalence_check(W0, Form2(c12=1))

    def test_randomised_pairs_always_agree(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 60:
            omega = random_form2(rng)
            if wedge22(omega, omega).v == 0:
                continue
            f = random_form2(rng)
            assert equivalence_check(omega, f)
            checked += 1


def _quadric_solution_alphas(count, seed):
    """Constant deformation directions F0 -> F0 + alpha staying on the
    quadric, produced by the cylinder chart."""
    space = torus_space()
    q = QuadricSpec(space, class_of_constant_form(W0, space))
    chart = build_chart(q, class_of_constant_form(F0, space))
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        theta = rng.uniform(0, 2 * math.pi)
        ybar = rng.normal(size=3)
        cls = chart_point(chart, theta, ybar)
        out.append(constant_form_of_class(cls) - F0)
    return out


class TestDeformation:
    def test_kahler_direction_is_exact_solution(self):
        assert deformation_residuals(W0, F0, KAPPA - F0) == (0, 0, 0)

    def test_quadratic_obstruction_of_linear_direction(self):
        t = Fraction(3, 10)
        alpha = t * Form2(c12=1, c34=-1)
        res = deformation_residuals(W0, F0, alpha)
        assert res == (Fraction(9, 100), 0, 0)

    def test_zero_deformation(self):
        assert deformation_residuals(W0, F0, Form2()) == (0, 0, 0)

    def test_residuals_vanish_iff_deformed_form_is_brane(self):
        rng = np.random.default_rng(5)
        solutions = _quadric_solution_alphas(15, seed=9)
        generic = [random_form2(rng) for _ in range(15)]
        for alpha in solutions + generic:
            res = deformation_residuals(W0, F0, alpha)
            all_zero = all(abs(float(r)) <= 1e-9 for r in res)
            assert all_zero == verify_brane(W0, F0 + alpha, tol=1e-9).passed

    def test_scaling_isotropic_11_directions_stays_brane(self):
        # closed (1,1) directions with vanishing square solve the equations
        # for every scaling
        alpha = Form2(c12=1)  # wedge-isotropic, orthogonal to F0 and W0
        assert wedge22(alpha, alpha).v == 0
        for t in (-3, Fraction(1, 7), 2, 10):
            assert deformation_residuals(W0, F0, t * alpha) == (0, 0, 0)
            assert verify_brane(W0, F0 + t * alpha).passed


class TestLinearizedDeformation:
    def test_examples(self):
        assert linearized_deformation_check(W0, F0, Form2(c12=1, c34=-1))
        assert linearized_deformation_check(W0, F0, KAPPA)
        assert not linearized_deformation_check(W0, F0, W0)

    def test_equivalent_to_pointwise_wedge_conditions(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            alpha = random_form2(rng)
            expected = (
                wedge22(alpha, F0).v == 0 and wedge22(alpha, W0).v == 0
            )  # constant forms are closed
            assert linearized_deformation_check(W0, F0, alpha) == expected

    def test_nonclosed_form_fails(self):
        # cos(x3) e^{12}: pointwise (1,1) everywhere but not closed
        alpha = TrigPolyForm2.from_fns(
            [TrigPolyFn.mode((0, 0, 1, 0), cos=1), 0, 0, 0, 0, 0]
        )
        assert exterior_d(alpha).coefficient_norm() > 0
        assert not linearized_deformation_check(W0, F0, alpha)

    def test_agrees_with_pointwise_type_projectors(self):
        rng = np.random.default_rng(31)
        p_omega, p_f, p_kahler = random_brane_pair(rng)
        k = (1, 0, -1, 2)
        pulled_back = TrigPolyFn.mode(k, cos=1) * TrigPolyForm2.from_constant(
            p_f
        ) + TrigPolyFn.mode(k, sin=1) * TrigPolyForm2.from_constant(p_kahler)
        verdicts = []
        for omega, f in ((W0, rotation_family((1, 0, 0, 0))), (p_omega, pulled_back)):
            for _ in range(6):
                alpha = Form2.from_coeffs(tuple(float(v) for v in rng.normal(size=6)))
                for scale in (1, 1e-8, 1e-10):
                    got = linearized_deformation_check(omega, f, scale * alpha, grid=4)
                    assert got == _pointwise_type_check(omega, f, scale * alpha, grid=4)
                    verdicts.append(got)
        assert set(verdicts) == {True, False}

    def test_non_brane_field_is_not_almost_complex(self):
        # cos<k,x> F0 + sin<k,x> omega gives I = cos I0 + sin Id, so I^2 != -Id
        k = (0, 1, 0, 0)
        f = TrigPolyFn.mode(k, cos=1) * TrigPolyForm2.from_constant(
            F0
        ) + TrigPolyFn.mode(k, sin=1) * TrigPolyForm2.from_constant(W0)
        with pytest.raises(NotAlmostComplex):
            linearized_deformation_check(W0, f, Form2(), grid=4)

    def test_degenerate_omega_rejected(self):
        for f in (F0, rotation_family((1, 0, 0, 0))):
            with pytest.raises(NonDegenerateRequired):
                linearized_deformation_check(Form2(c12=1), f, Form2(c34=1), grid=2)


def _pointwise_type_check(omega, f, alpha, grid, tol=1e-9):
    """The (2,0)+(0,2) part of a constant alpha from type_projectors at every
    grid point; True iff it is at most tol * sqrt(u) everywhere, u = |pf(omega)|
    (the part has degree 1 in omega, F and alpha)."""
    bound = tol * math.sqrt(abs(pfaffian(omega)))
    for x in uniform_grid(grid):
        i = compose_i(omega, eval_at(f, x))
        _, p2002 = type_projectors(i, alpha, tol=tol)
        if p2002.max_abs() > bound:
            return False
    return True


class TestBraneCircle:
    def test_rotation_circle_consists_of_branes(self):
        for j in range(64):
            theta = 2 * math.pi * j / 64
            f = math.cos(theta) * F0 + math.sin(theta) * KAPPA
            assert verify_brane(W0, f).passed


def _bumped(form):
    """(1 + sin x1) form: its residuals peak at x1 = pi/2, the third of the 8
    points walked on the grid of 8 points per axis."""
    bump = TrigPolyFn.constant(1) + TrigPolyFn.mode((1, 0, 0, 0), sin=1)
    return bump * TrigPolyForm2.from_constant(form)


def _closed_11(phi, i=None):
    """d(I^* d phi) for the rows i of I = omega^{-1} o F (by default those of
    omega0 and F0): closed and of type (1,1)."""
    i = compose_i(W0, F0).m if i is None else i
    dphi = [phi.derivative(a) for a in range(4)]
    return exterior_d(TrigPolyForm1.from_fns(
        [sum((i[a][j] * dphi[a] for a in range(4)), TrigPolyFn.zero()) for j in range(4)]
    ))


class TestFiberWalk:
    def test_reports_do_not_depend_on_chunk_size(self, monkeypatch):
        phi = TrigPolyFn.mode((1, 0, 2, 0), cos=1) + TrigPolyFn.mode((0, 1, 0, 1), sin=2)
        alpha_11 = _closed_11(phi)
        # d(sin(x1) e^3) = cos(x1) e^13, whose (2,0)+(0,2) part is not zero
        sin_x1 = TrigPolyFn.mode((1, 0, 0, 0), sin=1)
        alpha_20 = exterior_d(TrigPolyForm1.from_fns([0, 0, sin_x1, 0]))
        bumped = _bumped(F0)

        def reports():
            return (
                verify_brane(W0, bumped),
                verify_brane(W0, rotation_family((1, 0, 0, 0))),
                verify_holomorphic_symplectic(bumped, W0),
                verify_holomorphic_symplectic(W0, bumped),
                deformation_residuals(W0, F0, _bumped(Form2(c12=1, c34=-1))),
                deformation_residuals(W0, bumped, alpha_11),
                linearized_deformation_check(W0, F0, alpha_11),
                linearized_deformation_check(W0, F0, alpha_20),
            )

        whole = reports()
        assert whole[-2:] == (True, False)
        assert whole[0].wedge_square_resid > 1
        monkeypatch.setattr(torus_forms, "CHUNK_POINTS", 2)  # the peak is in block 2
        assert reports() == whole

    def test_i_basis_is_built_once_per_gridded_call(self, monkeypatch):
        built, i_basis_ = [], torus_forms.i_basis

        def counted(*args):
            built.append(args)
            return i_basis_(*args)

        monkeypatch.setattr(torus_forms, "i_basis", counted)
        monkeypatch.setattr(torus_forms, "CHUNK_POINTS", 1000)
        _, rot = brane_field((1, 0, 0, 0), R_234)  # frequency rank 4
        alpha = _closed_11(TrigPolyFn.mode((1, 0, 2, 0), cos=1))
        verify_brane(W0, rot)  # 5 blocks
        linearized_deformation_check(W0, rot, alpha)  # its guard reads the wedges
        assert len(built) == 1
        # one fiber: exact compose_i, no basis
        built.clear()
        assert verify_brane(W0, F0).i_square_resid == 0
        assert linearized_deformation_check(W0, F0, TrigPolyForm2.from_constant(KAPPA))
        assert built == []

    def test_nan_mode_reads_as_nan_closedness(self):
        # d of the NaN mode has component norms [0, 0, nan, nan]: a NaN that
        # is not the first entry
        nan_mode = TrigPolyForm2.from_fns(
            [0, 0, 0, 0, 0, TrigPolyFn.mode((1, 0, 0, 0), cos=float("nan"))]
        )
        f = TrigPolyForm2.from_constant(F0) + nan_mode
        brane = verify_brane(W0, f)
        hs = verify_holomorphic_symplectic(f, W0)
        assert math.isnan(brane.closedness_resid) and not brane.passed
        assert math.isnan(hs.closedness_resid) and not hs.passed

    @pytest.mark.parametrize("check", [
        lambda f: verify_brane(W0, f, grid=24),
        lambda f: verify_holomorphic_symplectic(f, W0, grid=24),
    ])
    def test_peak_memory_is_bounded_at_grid_24(self, check):
        _, rot = brane_field((1, 0, 0, 0), R_234)  # frequency rank 4: all 24^4 points
        check(rotation_family((0, 1, 0, 0)))  # first-call allocations
        tracemalloc.start()
        try:
            check(rot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the points of the grid take 10.1 MiB, the blocks the rest
        assert peak <= 16 * 2**20


#: phi of a deformation whose frequencies span Z^4, three of them with
#: several components, so its walk is the whole grid
PHI_RANK_4 = (TrigPolyFn.mode((1, 2, 0, 0), cos=1) + TrigPolyFn.mode((0, 1, -1, 1), sin=2)
              + TrigPolyFn.mode((0, 0, 1, 0), cos=-1) + TrigPolyFn.mode((2, -1, 1, 1), sin=1))


def _deformed_pair(seed, phi):
    """(omega, F, alpha) as the deformation benchmark builds them: (omega0,
    F0) pulled back by a det-1 integer map and the closed (1,1) deformation
    alpha = d(I^* d phi) for I = omega^{-1} o F."""
    rng = np.random.default_rng(seed)
    p = random_int_gl4(rng, bound=1)
    while round(np.linalg.det(np.array(p.m, dtype=float))) != 1:
        p = random_int_gl4(rng, bound=1)
    omega, f = pullback_form2(p, W0), pullback_form2(p, F0)
    i = [[int(v) for v in row] for row in compose_i(omega, f).m]  # p^-1 I0 p, integer
    return omega, f, _closed_11(phi, i)


class TestRankFourWalk:
    """The gridded checks on F + alpha of :func:`_deformed_pair`, whose walk
    is the whole grid, against the same maxima taken point by point."""

    @pytest.mark.parametrize("grid", [4, 5, 8])
    def test_checks_match_pointwise_maxima(self, grid):
        omega, f, alpha = _deformed_pair(7, PHI_RANK_4)
        deformed = TrigPolyForm2.from_constant(f) + alpha
        freqs = {k for fn in deformed.c for k, _, _ in fn.modes}
        assert torus_forms._frequency_lattice(sorted(freqs))[1] == 4
        # closed, but with a (2,0)+(0,2) part
        beta = alpha + exterior_d(
            TrigPolyForm1.from_fns([0, 0, TrigPolyFn.mode((1, 1, 0, 0), sin=1), 0]))
        # integer I, and a float omega for I at each point: quick exact-free arithmetic
        i = LinearMap4.from_rows([[int(v) for v in row] for row in compose_i(omega, f).m])
        omega_f = Form2.from_coeffs([float(v) for v in omega.coeffs])
        w_oo = wedge22(omega, omega).v
        sq = orth = i_sq = quad = a_orth = 0.0
        low, types = math.inf, [0.0, 0.0]
        for x in uniform_grid(grid):  # TrigPolyFn.eval at every grid point
            d, a = eval_at(deformed, x), eval_at(alpha, x)
            w_dd = wedge22(d, d).v
            sq, orth = max(sq, abs(w_dd - w_oo)), max(orth, abs(wedge22(d, omega).v))
            low = min(low, w_dd)
            i_sq = max(i_sq, square_resid(compose_i(omega_f, d)))
            quad = max(quad, abs(wedge22(f, a).v + wedge22(a, a).v / 2))
            a_orth = max(a_orth, abs(wedge22(a, omega).v))
            for j, form in enumerate((alpha, beta)):
                types[j] = max(types[j], type_projectors(i, eval_at(form, x))[1].max_abs())

        def close(got, want):
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)

        report = verify_brane(omega, deformed, grid=grid)
        close(report.wedge_square_resid, sq)
        close(report.wedge_orth_resid, orth)
        close(report.i_square_resid, i_sq)
        close(report.hol_symp.positivity_min, low + w_oo)
        assert report.orientation_ok == (low > 0) and report.grid_used == grid ** 4
        assert sq > 1  # alpha ^ alpha: F + alpha is a brane only to first order
        r_quad, r_orth, r_closed = deformation_residuals(omega, f, alpha, grid=grid)
        close(r_quad, quad)
        close(r_orth, a_orth)
        assert r_closed == 0
        assert types[0] <= 1e-9 < types[1]
        for form, peak in zip((alpha, beta), types):
            assert linearized_deformation_check(omega, f, form, grid=grid) == (peak <= 1e-9)

    def test_peak_memory_follows_the_block(self):
        omega, f, alpha = _deformed_pair(7, PHI_RANK_4)
        deformed = TrigPolyForm2.from_constant(f) + alpha
        verify_brane(omega, deformed, grid=4)  # first-call allocations
        peaks = []
        for grid in (8, 24):  # 8^4 points are one block, 24^4 are 81
            tracemalloc.start()
            try:
                verify_brane(omega, deformed, grid=grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**20


floats = st.floats(-3, 3)
seeds = st.integers(0, 2**32 - 1)
ks = st.sampled_from([(1, 0, 0, 0), (0, 1, -1, 0), (1, 2, 0, -1)])


def _assert_same_report(got, want):
    """Field by field equal in value and type, NaN matching NaN."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        assert a == b or (a != a and b != b), field.name


class TestOneWalk:
    """verify_brane(omega, f).hol_symp is verify_holomorphic_symplectic(f, omega)."""

    @given(seed=seeds, scale=st.sampled_from([0, 1, Fraction(1, 3)]))
    def test_constant_pairs(self, seed, scale):
        rng = np.random.default_rng(seed)
        omega, f, _ = random_brane_pair(rng)
        f = f + scale * random_form2(rng)  # scale 0 keeps the brane
        _assert_same_report(verify_brane(omega, f).hol_symp,
                            verify_holomorphic_symplectic(f, omega))

    @given(seed=seeds, k=ks, r=trig_polys, eps=st.sampled_from([0.0, 1e-3, 1.0]),
           nan_slot=st.sampled_from([None, 0, 5]))
    def test_trig_poly_fields(self, seed, k, r, eps, nan_slot):
        omega, field = random_brane_field(np.random.default_rng(seed), k, r)
        field = field + eps * r * TrigPolyForm2.from_constant(Form2(c12=1, c13=2))
        if nan_slot is not None:
            fns = [0] * 6
            fns[nan_slot] = TrigPolyFn.mode(k, sin=float("nan"))
            field = field + TrigPolyForm2.from_fns(fns)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(torus_forms, "CHUNK_POINTS", 37)  # divides no grid^4 here
            got = verify_brane(omega, field, grid=4).hol_symp
            want = verify_holomorphic_symplectic(field, omega, grid=4)
        _assert_same_report(got, want)
        if nan_slot is not None:
            assert math.isnan(got.square_resid) and not got.passed


def _float_omega(coeffs):
    omega = Form2.from_coeffs(tuple(coeffs))
    assume(abs(pfaffian(omega)) >= 0.25)
    return omega


def _assert_closed_form_matches_compose_i(omega, cols):
    """The closed form over the columns of a (6, n) block against the largest
    square_resid(compose_i) of its columns, within 1e-12 of 1 + max |I|^2."""
    rows = np.array(cols, dtype=float).T
    o = [float(v) for v in omega.coeffs]
    got = float(np.abs(i_square_terms(
        i_basis(omega).T @ rows, wedge(rows, rows), wedge(rows, o), wedge(o, o)
    )).max())
    maps = [compose_i(omega, Form2.from_coeffs(tuple(col))) for col in rows.T]
    want = max_abs(square_resid(i) for i in maps)
    scale = 1 + max(i.max_abs() for i in maps) ** 2
    assert abs(got - want) <= 1e-12 * scale


class TestClosedFormISquare:
    """I^2 + Id = 2c I + (1 - r) Id against square_resid(compose_i)."""

    @given(omega=st.lists(floats, min_size=6, max_size=6),
           cols=st.lists(st.lists(floats, min_size=6, max_size=6), min_size=1, max_size=5))
    def test_float_forms(self, omega, cols):
        _assert_closed_form_matches_compose_i(_float_omega(omega), cols)

    @given(seed=seeds, k=ks, r=trig_polys, scale=st.floats(1e-3, 1e3),
           eps=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]))
    def test_pulled_back_branes_and_perturbations(self, seed, k, r, scale, eps):
        omega, field = random_brane_field(np.random.default_rng(seed), k, r)
        omega = scale * Form2.from_coeffs(tuple(float(v) for v in omega.coeffs))
        cols = [[scale * v + eps * (i + 1) for i, v in enumerate(eval_at(field, x).coeffs)]
                for x in uniform_grid(2)[::3]]
        _assert_closed_form_matches_compose_i(omega, cols)

    @given(omega=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
           f=st.lists(st.integers(-3, 3), min_size=6, max_size=6))
    def test_integer_forms_are_exact(self, omega, f):
        omega, f = Form2.from_coeffs(tuple(omega)), Form2.from_coeffs(tuple(f))
        assume(pfaffian(omega) != 0)
        i = compose_i(omega, f)
        c = Fraction(wedge(f.coeffs, omega.coeffs), wedge(omega.coeffs, omega.coeffs))
        r = Fraction(wedge(f.coeffs, f.coeffs), wedge(omega.coeffs, omega.coeffs))
        closed = max_abs(2 * c * i.m[a][b] + (1 - r) * (a == b)
                         for a in range(4) for b in range(4))
        assert closed == square_resid(i)
        # the one-fiber report keeps the exact value and type
        got = verify_brane(omega, f).i_square_resid
        assert is_exact(got) and got == square_resid(i)

    @given(seed=seeds, k=ks, r=trig_polys, eps=st.sampled_from([0.0, 1e-3, 1.0]))
    def test_grid_report_matches_pointwise_compose_i(self, seed, k, r, eps):
        omega, field = random_brane_field(np.random.default_rng(seed), k, r)
        # eps > 0 leaves the pointwise branes
        field = field + eps * r * TrigPolyForm2.from_constant(Form2(c12=1, c13=2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(torus_forms, "CHUNK_POINTS", 37)  # divides no grid^4 here
            got = verify_brane(omega, field, grid=3).i_square_resid
        maps = [compose_i(omega, eval_at(field, x)) for x in uniform_grid(3)]
        want = max_abs(square_resid(i) for i in maps)
        assert abs(got - want) <= 1e-12 * (1 + max(i.max_abs() for i in maps) ** 2)

    def test_nan_mode_never_passes(self):
        nan_mode = TrigPolyFn.mode((1, 0, 0, 0), cos=float("nan"))
        f = TrigPolyForm2.from_constant(F0) + TrigPolyForm2.from_fns([0] * 5 + [nan_mode])
        rep = verify_brane(W0, f)
        assert math.isnan(rep.i_square_resid) and not rep.passed
        alpha = TrigPolyForm2.from_constant(KAPPA)
        with pytest.raises(NotAlmostComplex):
            linearized_deformation_check(W0, f, alpha)

    def test_no_per_point_i_field_on_the_grid(self, monkeypatch):
        shapes = []

        class ShapeSpy(np.ndarray):
            """Records the shape of every array derived from the basis."""

            def __array_finalize__(self, obj):
                shapes.append(self.shape)

        i_basis_ = torus_forms.i_basis

        def spied(*args):
            return i_basis_(*args).view(ShapeSpy)

        monkeypatch.setattr(torus_forms, "i_basis", spied)
        monkeypatch.setattr(torus_forms, "CHUNK_POINTS", 1000)
        _, rot = brane_field((1, 0, 0, 0), R_234)  # frequency rank 4
        verify_brane(W0, rot)  # 5 blocks
        linearized_deformation_check(W0, rot, _closed_11(TrigPolyFn.mode((1, 0, 2, 0), cos=1)))
        assert (16, 1000) in shapes
        assert not [s for s in shapes if len(s) == 3 and s[1:] == (4, 4)]


#: generators of frequency lattices of rank 1 to 4; (2, 0, 0, 0), (0, 2, 0, 2)
#: and (0, 0, 2, 0) share the factor 2 with the even grids
LATTICES = [
    [(1, 2, 0, -1)],
    [(2, 0, 0, 0)],
    [(1, 0, 0, 0), (0, 1, -1, 0)],
    [(1, 1, 0, 0), (0, 2, 0, 2)],
    [(1, 0, 0, 0), (0, 1, -1, 0), (0, 0, 1, 1)],
    [(0, 3, 1, 0), (1, 0, 0, 2), (2, 1, 1, -1)],
    [(1, -1, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
    [(2, 0, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0), (1, 0, 0, 3)],
]


fractions = st.fractions(-3, 3, max_denominator=4)


class TestOneFiberISquare:
    """At one fiber I^2 + Id comes from the closed form over compose_i's
    entries, with no I @ I."""

    @given(omega=st.lists(fractions, min_size=6, max_size=6),
           f=st.lists(fractions, min_size=6, max_size=6))
    def test_rational_pairs_give_the_exact_fraction(self, omega, f):
        omega, f = Form2.from_coeffs(tuple(omega)), Form2.from_coeffs(tuple(f))
        assume(pfaffian(omega) != 0)
        got = verify_brane(omega, f).i_square_resid
        assert isinstance(got, Fraction)
        assert got == square_resid(compose_i(omega, f))

    @given(omega=st.lists(floats, min_size=6, max_size=6),
           f=st.lists(floats, min_size=6, max_size=6))
    def test_float_pairs_match_compose_i(self, omega, f):
        omega, f = _float_omega(omega), Form2.from_coeffs(tuple(f))
        i = compose_i(omega, f)
        got = verify_brane(omega, f).i_square_resid
        assert abs(got - square_resid(i)) <= 1e-12 * (1 + i.max_abs() ** 2)

    def test_square_resid_is_never_reached(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("square_resid was called")

        monkeypatch.setattr(exterior4, "square_resid", unreachable)
        monkeypatch.setattr(brane_check, "square_resid", unreachable, raising=False)
        _, rot = brane_field((1, 0, 0, 0), R_234)
        alpha = _closed_11(TrigPolyFn.mode((1, 0, 2, 0), cos=1))
        assert verify_brane(W0, F0).i_square_resid == 0
        assert verify_brane(W0, Form2(c13=0.5, c24=-2.0)).i_square_resid <= 1e-15
        assert linearized_deformation_check(W0, F0, TrigPolyForm2.from_constant(KAPPA))
        linearized_deformation_check(W0, F0, alpha)  # constant F, gridded alpha
        linearized_deformation_check(W0, rot, alpha)


def _gridded_reports(omega, field, alpha, grid):
    """Every gridded check on (omega, field, alpha); an error raised by one
    stands for its result."""
    def outcome(check, *args):
        try:
            return check(*args, grid=grid)
        except BranekitError as exc:
            return type(exc)

    return [
        outcome(verify_brane, omega, field),
        outcome(verify_holomorphic_symplectic, field, omega),
        outcome(verify_holomorphic_symplectic, alpha, field),
        outcome(nijenhuis_defect, omega, field),
        outcome(deformation_residuals, omega, field, alpha),
        outcome(linearized_deformation_check, omega, field, alpha),
    ]


def _assert_close(got, want, scale):
    """Equal in type; floats within 1e-12 * scale, NaN matching NaN; the
    rest (verdicts, grid_used, errors) equal."""
    assert type(got) is type(want)
    if dataclasses.is_dataclass(want):
        for field in dataclasses.fields(want):
            _assert_close(getattr(got, field.name), getattr(want, field.name), scale)
    elif isinstance(want, tuple):
        for a, b in zip(got, want, strict=True):
            _assert_close(a, b, scale)
    elif isinstance(want, float):
        assert (got != got and want != want) or abs(got - want) <= 1e-12 * scale
    else:
        assert got == want


class TestQuotientWalk:
    """Each gridded check on the walk of grid^r points against the same
    check walked over the whole grid."""

    @given(seed=seeds, gens=st.sampled_from(LATTICES), grid=st.integers(2, 5),
           coeffs=st.lists(floats, min_size=8, max_size=8),
           eps=st.sampled_from([0.0, 1e-3, 1.0]), nan_slot=st.sampled_from([None, 0, 5]))
    def test_matches_the_whole_grid(self, seed, gens, grid, coeffs, eps, nan_slot):
        k0, k1 = gens[0], gens[-1]
        r = sum((TrigPolyFn.mode(k, cos=a, sin=b)
                 for k, a, b in zip(gens, coeffs[::2], coeffs[1::2])), TrigPolyFn.zero())
        r = r + TrigPolyFn.mode(tuple(a + b for a, b in zip(k0, k1)), cos=coeffs[-1])
        omega, field = random_brane_field(np.random.default_rng(seed), k0, r)
        field = field + eps * r * TrigPolyForm2.from_constant(Form2(c12=1, c13=2))
        alpha = exterior_d(TrigPolyForm1.from_fns(
            [TrigPolyFn.mode(k1, cos=coeffs[0]), 0, TrigPolyFn.mode(k0, sin=coeffs[1]), 0]))
        norm = max(fn.coefficient_norm() for fn in field.c + alpha.c)
        scale = (1 + norm) ** 2 * (1 + 4 * norm) * (1 + np.abs(i_basis(omega)).max()) ** 2
        if nan_slot is not None:
            fns = [0] * 6
            fns[nan_slot] = TrigPolyFn.mode(k1, sin=float("nan"))
            field = field + TrigPolyForm2.from_fns(fns)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(torus_forms, "CHUNK_POINTS", 37)  # divides no grid^4 here
            got = _gridded_reports(omega, field, alpha, grid)
            mp.setattr(torus_forms, "_walk_points", lambda grid, freqs: np.array(freqs) % grid)
            want = _gridded_reports(omega, field, alpha, grid)
        for a, b in zip(got, want, strict=True):
            _assert_close(a, b, scale)
