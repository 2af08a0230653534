"""Trig-poly forms: exact calculus, integration, and the integrability
diagnostics with their finite-difference cross-checks."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from branekit import torus_forms
from branekit.errors import NotPointwiseBrane, WalkTooLarge
from branekit.exterior4 import Form2, matrix_of_form2, pfaffian
from branekit.torus_forms import (
    TRIVECTOR_SLOTS,
    TrigPolyFn,
    TrigPolyForm1,
    TrigPolyForm2,
    constant_coeffs,
    eval_at,
    exterior_d,
    fiber_blocks,
    i_basis,
    integrability_identity_residual,
    integrate,
    nijenhuis_defect,
    rotation_family,
    standard_brane,
    standard_kahler,
    standard_symplectic,
    uniform_grid,
    wedge_density,
)

from conftest import R_234, brane_field, random_brane_field, trig_polys

W0 = standard_symplectic()
F0 = standard_brane()
KAPPA = standard_kahler()

small_k = st.tuples(*([st.integers(min_value=-2, max_value=2)] * 4))
coef = st.integers(min_value=-3, max_value=3)
fns = st.builds(
    lambda k1, a1, b1, k2, a2, b2: TrigPolyFn.mode(k1, cos=a1, sin=b1)
    + TrigPolyFn.mode(k2, cos=a2, sin=b2),
    small_k, coef, coef, small_k, coef, coef,
)
form1s = st.builds(lambda *f: TrigPolyForm1.from_fns(f), *([fns] * 4))
form2s = st.builds(lambda *f: TrigPolyForm2.from_fns(f), *([fns] * 6))

POINTS = [
    (0.3, 1.1, 2.0, 4.4),
    (5.0, 0.2, 3.3, 1.7),
    (2.2, 2.2, 0.1, 6.0),
]


class TestTrigPolyFn:
    def test_canonical_sign_flip(self):
        assert TrigPolyFn.mode((-1, 0, 2, 0), cos=2, sin=3) == TrigPolyFn.mode(
            (1, 0, -2, 0), cos=2, sin=-3
        )

    def test_zero_mode_has_no_sine(self):
        assert TrigPolyFn.mode((0, 0, 0, 0), cos=4, sin=9) == TrigPolyFn.constant(4)

    def test_merging(self):
        f = TrigPolyFn.mode((1, 0, 0, 0), cos=1) + TrigPolyFn.mode((1, 0, 0, 0), cos=2, sin=1)
        assert f == TrigPolyFn.mode((1, 0, 0, 0), cos=3, sin=1)

    @given(fns, fns)
    def test_product_matches_pointwise(self, f, g):
        h = f * g
        for x in POINTS:
            assert abs(h.eval(x) - f.eval(x) * g.eval(x)) <= 1e-9

    @given(fns)
    def test_derivative_matches_finite_differences(self, f):
        h = 1e-5
        for i in range(4):
            df = f.derivative(i)
            for x in POINTS:
                xp = list(x)
                xm = list(x)
                xp[i] += h
                xm[i] -= h
                fd = (f.eval(xp) - f.eval(xm)) / (2 * h)
                assert abs(df.eval(x) - fd) <= 1e-6

    @pytest.mark.parametrize("zero", [0, 0.0, -0.0, Fraction(0)])
    def test_a_scalar_zero_gives_the_zero_function(self, zero):
        product = TrigPolyFn.mode((1, 0, 0, 0), cos=1, sin=2) * zero
        assert product == TrigPolyFn.zero()
        assert product.is_constant

    def test_a_scalar_product_drops_only_the_modes_it_zeroes(self):
        f = TrigPolyFn.mode((1, 0, 0, 0), cos=1e-300) + TrigPolyFn.mode((0, 1, 0, 0), sin=1)
        assert (f * 1e-300).modes == (((0, 1, 0, 0), 0.0, 1e-300),)  # 1e-600 underflows
        nan = TrigPolyFn.mode((1, 0, 0, 0), cos=1) * math.nan
        assert len(nan.modes) == 1 and math.isnan(nan.modes[0][1])

    def test_a_form_scaled_by_zero_is_checked_at_one_fiber(self):
        from branekit.brane_check import verify_brane

        report = verify_brane(W0, rotation_family((1, -1, 0, 1)) * 0, grid=8)
        assert report.grid_used == 1  # constant: one exact fiber, not the grid
        assert report.wedge_square_resid == 2 and not report.passed

    def test_exact_arithmetic_stays_rational(self):
        f = TrigPolyFn.mode((1, 0, 0, 0), cos=Fraction(1, 3))
        g = f * f
        assert all(
            isinstance(v, (int, Fraction)) for _, a, b in g.modes for v in (a, b)
        )


class TestExteriorDerivative:
    def test_constant_form_is_closed(self):
        df = exterior_d(TrigPolyForm2.from_constant(F0))
        assert df.coefficient_norm() == 0

    def test_repeated_index_kills_term(self):
        f = TrigPolyForm2.from_fns(
            [0, TrigPolyFn.mode((1, 0, 0, 0), cos=1), 0, 0, 0, 0]
        )  # cos(x1) e^{13}
        assert exterior_d(f).coefficient_norm() == 0

    def test_single_mode_product_rule(self):
        f = TrigPolyForm2.from_fns(
            [0, 0, 0, TrigPolyFn.mode((1, 0, 0, 0), cos=1), 0, 0]
        )  # cos(x1) e^{23}
        df = exterior_d(f)
        expected = {(1, 2, 3): TrigPolyFn.mode((1, 0, 0, 0), sin=-1)}
        for slot, fn in zip(TRIVECTOR_SLOTS, df.c):
            assert fn == expected.get(slot, TrigPolyFn.zero())

    @given(form1s)
    def test_d_squared_vanishes(self, f):
        assert exterior_d(exterior_d(f)).coefficient_norm() == 0

    @given(form2s)
    def test_matches_finite_differences(self, f):
        # dF(e_a, e_b, e_c) = d_a F_bc - d_b F_ac + d_c F_ab, each term by
        # central differences of the evaluated form
        df = exterior_d(f)
        h = 1e-5
        x = POINTS[0]

        def coeff_at(y, a, b):
            m = matrix_of_form2(eval_at(f, y))
            return m[a - 1][b - 1]

        def fd(a, b, c):
            total = 0.0
            for d_index, (p, q) in (((a), (b, c)), ((b), (a, c)), ((c), (a, b))):
                xp, xm = list(x), list(x)
                xp[d_index - 1] += h
                xm[d_index - 1] -= h
                term = (coeff_at(xp, p, q) - coeff_at(xm, p, q)) / (2 * h)
                total += term if d_index in (a, c) else -term
            return total

        for slot, fn in zip(TRIVECTOR_SLOTS, df.c):
            assert abs(fn.eval(x) - fd(*slot)) <= 1e-5


class TestEvalIntegrate:
    def test_constant_evaluation(self):
        f = TrigPolyForm2.from_constant(F0)
        assert eval_at(f, (1.0, 2.0, 3.0, 4.0)) == Form2(c13=1.0, c24=-1.0)

    def test_mode_evaluation(self):
        f = TrigPolyForm2.from_fns([0, 0, 0, TrigPolyFn.mode((1, 0, 0, 0), cos=1), 0, 0])
        assert eval_at(f, (0.0, 0.0, 0.0, 0.0)).c23 == 1.0
        assert abs(eval_at(f, (math.pi / 2, 0.0, 0.0, 0.0)).c23) <= 1e-12

    def test_integrate_values(self):
        vol = (2 * math.pi) ** 4
        assert integrate(TrigPolyFn.constant(1)) == vol
        assert integrate(TrigPolyFn.mode((1, 0, 0, 0), cos=1)) == 0.0
        assert integrate(TrigPolyFn.constant(3) + TrigPolyFn.mode((0, 2, 0, 0), cos=1)) == 3 * vol

    @given(fns)
    def test_integrate_matches_riemann_sum(self, f):
        # the uniform rectangle rule is exact for band-limited integrands
        pts = uniform_grid(6)
        riemann = f.eval_grid(pts).mean() * (2 * math.pi) ** 4
        assert abs(integrate(f) - riemann) <= 1e-8 * max(1.0, f.coefficient_norm())

    @given(st.tuples(*([st.integers(min_value=-3, max_value=3)] * 12)))
    def test_wedge_density_integral_of_constant_forms_is_pairing(self, coeffs):
        # for constant forms, the normalised integral of the wedge density
        # is the cohomology pairing of the classes (exact over integers)
        from branekit.cohomology import class_of_constant_form
        from branekit.exterior4 import wedge22

        a = Form2.from_coeffs(coeffs[:6])
        b = Form2.from_coeffs(coeffs[6:])
        density = wedge_density(
            TrigPolyForm2.from_constant(a), TrigPolyForm2.from_constant(b)
        )
        assert density.constant_term == wedge22(a, b).v
        assert density.constant_term == class_of_constant_form(a).pair(
            class_of_constant_form(b)
        )


class TestUniformGrid:
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_equals_stacked_meshgrids(self, n):
        axis = 2 * math.pi * np.arange(n) / n
        mesh = np.meshgrid(axis, axis, axis, axis, indexing="ij")
        expected = np.stack([m.ravel() for m in mesh], axis=1)
        pts = uniform_grid(n)
        assert pts.shape == (n ** 4, 4)
        assert pts.flags.c_contiguous
        assert np.array_equal(pts, expected)

    def test_peak_memory_is_about_the_output(self):
        uniform_grid(2)  # first-call allocations
        tracemalloc.start()
        try:
            pts = uniform_grid(16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # four full meshgrids stacked would peak at twice the output
        assert peak <= 1.25 * pts.nbytes


def _many_modes(count):
    """A 2-form with ``count`` distinct frequencies in [-2, 2]^4, dealt round
    robin over its six slots."""
    # k > 0 lexicographically: the first nonzero entry is positive
    ks = [k for k in itertools.product(range(-2, 3), repeat=4) if k > (0, 0, 0, 0)]
    slots = [TrigPolyFn.zero()] * 6
    for j, k in enumerate(ks[:count]):
        slots[j % 6] += TrigPolyFn.mode(k, cos=1 / (j + 1), sin=(-1) ** j / (j + 2))
    return TrigPolyForm2(tuple(slots))


def _frequencies(*forms):
    """The distinct frequencies of the trig-poly forms among ``forms``."""
    return sorted({k for form in forms if not isinstance(form, Form2)
                   for fn in form.c for k, _, _ in fn.modes})


#: up to three modes per slot, their frequencies often shared between slots
modes = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([(1, 0, 0, 0), (0, 1, -1, 0), (2, -1, 0, 1)]), small_k),
        st.floats(-3, 3),
        st.floats(-3, 3),
    ),
    max_size=3,
)


def _det(m):
    """The exact determinant of a square integer matrix, over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(m[i][j] for i, j in enumerate(perm))
    return total


frequency_lists = st.lists(st.tuples(*[st.integers(-3, 3)] * 4), min_size=1, max_size=6)


class TestQuotientWalk:
    @given(frequency_lists)
    def test_column_echelon_form(self, freqs):
        u, r = torus_forms._frequency_lattice(freqs)
        assert all(type(v) is int for row in u for v in row)
        assert abs(_det(u)) == 1
        for k in freqs:
            ku = [sum(k[i] * u[i][j] for i in range(4)) for j in range(4)]
            assert ku[r:] == [0] * (4 - r)
        assert r == np.linalg.matrix_rank(np.array(freqs))

    @given(frequency_lists, st.integers(1, 6))
    def test_walk_meets_every_class_of_the_grid(self, freqs, grid):
        """The residues w . a mod grid at the grid^r walk coordinates a are
        the phases k . idx mod grid of every grid point idx, and at rank 4
        a is idx itself."""
        k = np.array(freqs)
        r = np.linalg.matrix_rank(k)
        w = torus_forms._walk_points(grid, freqs)
        assert w.shape == (len(freqs), r) and w.dtype == np.int64
        assert ((0 <= w) & (w < grid)).all()
        a = np.indices((grid,) * r).reshape(r, grid ** r)  # (Z/grid)^r in order
        walked = {tuple(col) for col in (w @ a % grid).T}
        every = {tuple(row) for row in np.indices((grid,) * 4).reshape(4, -1).T @ k.T % grid}
        assert walked == every
        if r == 4:
            assert np.array_equal(w, k % grid)

    @pytest.mark.parametrize("freqs, largest", [
        ([(1, 0, 0, 0)], 3037000500),  # rank 1: the residue sums (grid - 1)^2
        ([(1, 0, 0, 0), (0, 1, 0, 0)], 2147483648),  # rank 2: 2 (grid - 1)^2
        ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 55108),  # grid^4
    ])
    def test_walk_is_refused_only_past_int64(self, freqs, largest):
        w = torus_forms._walk_points(largest, freqs)
        assert w.shape == (len(freqs), len(freqs)) and w.dtype == np.int64
        with pytest.raises(WalkTooLarge):
            torus_forms._walk_points(largest + 1, freqs)


def _walked_indices(grid, freqs):
    """The grid index of every point fiber_blocks walks for ``freqs``, in
    order: u[:, :r] a mod grid for a in (Z/grid)^r (lexicographic), with
    (u, r) of the frequency lattice; the grid itself, in order, at rank 4."""
    u, r = torus_forms._frequency_lattice(freqs)
    a = np.indices((grid,) * r).reshape(r, grid ** r)
    if r == 4:
        return a.T
    return ((np.array(u)[:, :r] % grid) @ a % grid).T


def _exact_phase_values(fn, idx, grid):
    """fn at the grid indices ``idx`` with every phase taken from its exact
    residue: a cos + b sin of 2 pi ((k . idx) mod grid) / grid per mode,
    summed from 0.0 as eval_grid sums."""
    out = np.zeros(len(idx))
    for k, a, b in fn.modes:
        phase = 2 * math.pi * (idx @ np.array(k) % grid) / grid
        out += float(a) * np.cos(phase) + float(b) * np.sin(phase)
    return out


class TestFiberBlocks:
    def test_constant_forms_give_one_exact_block(self):
        kappa = TrigPolyForm2.from_constant(KAPPA)
        blocks = list(fiber_blocks(8, F0, kappa, W0))
        assert blocks == [(F0.coeffs, KAPPA.coeffs, W0.coeffs)]
        assert all(type(v) is int for block in blocks for form in block for v in form)

    def test_constant_floats_equal_grid_values_bit_for_bit(self, monkeypatch):
        # one mode per slot, whose frequencies span Z^4
        rot = TrigPolyForm2.from_fns([
            TrigPolyFn.mode((1, 2, 0, 0), cos=1), TrigPolyFn.mode((0, 1, -1, 1), sin=1),
            TrigPolyFn.mode((0, 0, 1, 0), cos=1), TrigPolyFn.mode((0, 0, 0, 2), sin=1),
            TrigPolyFn.mode((1, 2, 0, 0), sin=1), 0,
        ])
        third_f0 = TrigPolyForm2.from_constant(Fraction(1, 3) * F0)
        idx = _walked_indices(6, _frequencies(rot))
        assert np.array_equal(idx, np.indices((6,) * 4).reshape(4, -1).T)  # rank 4: 6^4 points
        pts = uniform_grid(6)
        # blocks of 1000 read a cos/sin table; blocks of 37 are shorter than
        # it, so they take cos and sin of their own phases
        for chunk in (1000, 37):
            monkeypatch.setattr(torus_forms, "CHUNK_POINTS", chunk)
            start = 0
            for rot_rows, const, omega in fiber_blocks(6, rot, third_f0, W0):
                block = idx[start:start + chunk]
                want = np.array([_exact_phase_values(fn, block, 6) for fn in rot.c])
                assert rot_rows.tobytes() == want.tobytes()
                for value, grid_values in zip(const, third_f0.eval_grid(pts[start:start + chunk]).T):
                    assert type(value) is float and np.all(grid_values == value)
                assert omega == [float(v) for v in W0.coeffs]
                start += len(block)
            assert start == len(idx)

    def test_grid_below_one_is_refused_before_the_constant_shortcut(self):
        for grid in (0, -2):
            for forms in ((rotation_family((1, 0, 0, 0)), W0), (F0, W0)):
                with pytest.raises(ValueError):
                    list(fiber_blocks(grid, *forms))
        assert list(fiber_blocks(1, F0, W0)) == [(F0.coeffs, W0.coeffs)]

    @given(
        f_modes=st.lists(modes, min_size=6, max_size=6),
        g_modes=st.lists(modes, min_size=6, max_size=6),
        grid=st.integers(2, 5),
    )
    def test_rows_match_eval_grid(self, f_modes, g_modes, grid):
        f, g = (
            TrigPolyForm2.from_fns(
                [sum((TrigPolyFn.mode(k, a, b) for k, a, b in slot), TrigPolyFn.zero())
                 for slot in slots]
            )
            for slots in (f_modes, g_modes)
        )
        assume(constant_coeffs(f) is None)
        forms = (f, W0, exterior_d(f), TrigPolyForm2.from_constant(KAPPA), g)
        idx = _walked_indices(grid, _frequencies(*forms))
        pts = 2 * math.pi * idx / grid  # the axis values of uniform_grid
        if len(idx) == grid ** 4:
            assert np.array_equal(pts, uniform_grid(grid))
        start = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(torus_forms, "CHUNK_POINTS", 37)  # divides no grid^4 here
            for rows in fiber_blocks(grid, *forms):
                block = pts[start:start + 37]
                for form, got in zip(forms, rows):
                    if constant_coeffs(form) is not None:
                        assert got == [float(v) for v in constant_coeffs(form)]
                        continue
                    assert got.shape == (len(form.c), len(block)) and got.flags.c_contiguous
                    for fn, row, want in zip(form.c, got, form.eval_grid(block).T):
                        assert np.abs(row - want).max() <= 1e-13 * fn.coefficient_norm()
                start += len(block)
        assert start == len(pts)

    def test_walker_never_calls_eval_grid(self, monkeypatch):
        def refuse(self, pts):
            raise AssertionError("eval_grid called")

        rot = rotation_family((1, -1, 0, 1))
        expected = nijenhuis_defect(W0, rot, grid=6)
        monkeypatch.setattr(TrigPolyFn, "eval_grid", refuse)
        assert nijenhuis_defect(W0, rot, grid=6) == expected
        assert len(list(fiber_blocks(6, rot, exterior_d(rot), W0))) == 1

    def test_nan_stays_in_its_slot(self):
        k = (1, 2, 0, -1)
        rot = rotation_family(k)
        nan_f = rot + TrigPolyForm2.from_fns([0] * 5 + [TrigPolyFn.mode(k, cos=math.nan)])
        (f_rows, rot_rows), = fiber_blocks(3, nan_f, rot)
        assert np.isnan(f_rows[5]).all()
        assert np.isfinite(f_rows[:5]).all() and np.isfinite(rot_rows).all()

    def test_table_memory_does_not_grow_with_frequencies(self):
        from branekit.brane_check import verify_brane

        f = _many_modes(239)
        assert len({k for fn in f.c for k, _, _ in fn.modes}) == 239
        verify_brane(W0, rotation_family((1, 0, 0, 0)), grid=2)  # first-call allocations
        tracemalloc.start()
        try:
            verify_brane(W0, f, grid=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one whole (239, 4096) cos/sin table would take 15 MiB
        assert peak <= 4 * 2**20


class TestRotationFamily:
    def test_pointwise_wedge_identities_exact(self):
        rot = rotation_family((1, 0, 0, 0))
        assert wedge_density(rot, rot) == TrigPolyFn.constant(Fraction(2))
        assert wedge_density(rot, TrigPolyForm2.from_constant(W0)) == TrigPolyFn.zero()

    def test_exterior_derivative_matches_hand_expansion(self):
        # d(cos x1 F0 + sin x1 kappa) = sin x1 e^{124} + cos x1 e^{134}
        df = exterior_d(rotation_family((1, 0, 0, 0)))
        expected = {
            (1, 2, 4): TrigPolyFn.mode((1, 0, 0, 0), sin=1),
            (1, 3, 4): TrigPolyFn.mode((1, 0, 0, 0), cos=1),
        }
        for slot, fn in zip(TRIVECTOR_SLOTS, df.c):
            assert fn == expected.get(slot, TrigPolyFn.zero())


def _rotation_df_tensor(x):
    """Full antisymmetric tensor of sin(x1) e^{124} + cos(x1) e^{134}."""
    t = np.zeros((4, 4, 4))
    values = {(1, 2, 4): math.sin(x[0]), (1, 3, 4): math.cos(x[0])}
    for (a, b, c), val in values.items():
        for (p, q, r), sign in (
            ((a, b, c), 1), ((b, c, a), 1), ((c, a, b), 1),
            ((b, a, c), -1), ((a, c, b), -1), ((c, b, a), -1),
        ):
            t[p - 1, q - 1, r - 1] = sign * val
    return t


def _oracle_defect(x):
    """Nijenhuis tensor of the k=(1,0,0,0) rotation family via the exact
    exterior derivative and the interior-product identity (no finite
    differences)."""
    b_w = np.array(matrix_of_form2(W0), float)
    f_here = math.cos(x[0]) * F0 + math.sin(x[0]) * KAPPA
    i_mat = np.linalg.solve(b_w, np.array(matrix_of_form2(f_here), float))
    t = _rotation_df_tensor(x)
    rhs = np.einsum("mj,mik->ijk", i_mat, t) + np.einsum("mi,jmk->ijk", i_mat, t)
    # omega(N(e_i, e_j), e_k) = rhs[i, j, k]  =>  B^T N = rhs
    n = np.linalg.solve(b_w.T, rhs.transpose(2, 0, 1).reshape(4, 16)).reshape(4, 4, 4)
    return np.abs(n).max()


def _varying_defect_family():
    """A pointwise brane for W0 whose Nijenhuis defect varies over the torus.

    F = (c - r s) F0 + (s + r c) kappa + r nu with r = sin x1, c = cos y1,
    s = sin y1 and nu = e^{12} - e^{34}: nu is orthogonal to W0, F0 and kappa
    and nu ^ nu = -2, so F ^ F = 2 (1 + r^2) - 2 r^2 = W0 ^ W0 everywhere.
    """
    r = TrigPolyFn.mode((1, 0, 0, 0), sin=1)
    c = TrigPolyFn.mode((0, 1, 0, 0), cos=1)
    s = TrigPolyFn.mode((0, 1, 0, 0), sin=1)
    return (
        (c - r * s) * TrigPolyForm2.from_constant(F0)
        + (s + r * c) * TrigPolyForm2.from_constant(KAPPA)
        + r * TrigPolyForm2.from_constant(Form2(c12=1, c34=-1))
    )


class TestNijenhuisDefect:
    def test_constant_brane_is_flat(self):
        defect, max_df = nijenhuis_defect(W0, F0, grid=4)
        assert defect <= 1e-8
        assert max_df == 0.0

    def test_constant_rotation_is_flat(self):
        theta = math.pi / 3
        f = math.cos(theta) * TrigPolyForm2.from_constant(F0) + math.sin(
            theta
        ) * TrigPolyForm2.from_constant(KAPPA)
        defect, max_df = nijenhuis_defect(W0, f, grid=4)
        assert defect <= 1e-8
        assert max_df == 0.0

    def test_rotation_family_is_obstructed(self):
        defect, max_df = nijenhuis_defect(W0, rotation_family((1, 0, 0, 0)), grid=8)
        assert defect > 0.1
        assert max_df > 0.1

    def test_rotation_defect_matches_identity_oracle(self):
        defect, _ = nijenhuis_defect(W0, rotation_family((1, 0, 0, 0)), grid=8)
        oracle = max(_oracle_defect(x) for x in uniform_grid(8))
        assert oracle > 0.1
        assert abs(defect - oracle) <= 1e-5

    def test_pointwise_failure_raises(self):
        with pytest.raises(NotPointwiseBrane):
            nijenhuis_defect(W0, Form2(c12=1), grid=2)

    def test_exact_derivatives_match_identity_oracle_to_rounding(self):
        defect, _ = nijenhuis_defect(W0, rotation_family((1, 0, 0, 0)), grid=8)
        oracle = max(_oracle_defect(x) for x in uniform_grid(8))
        assert abs(defect - oracle) <= 1e-12

    def test_result_does_not_depend_on_chunk_size(self, monkeypatch):
        f = _varying_defect_family()
        n_points = 8 ** 2  # frequency rank 2
        results = []
        for chunk in (1, n_points, 10 * n_points):
            monkeypatch.setattr(torus_forms, "CHUNK_POINTS", chunk)
            results.append(nijenhuis_defect(W0, f, grid=8))
        # the largest defect lies at x1 = pi/2, past the first point
        assert results[0][0] > 3.0
        for defect, max_df in results[1:]:
            assert abs(defect - results[0][0]) <= 1e-14
            assert abs(max_df - results[0][1]) <= 1e-14

    def test_peak_memory_is_bounded_at_grid_16(self):
        _, rot = brane_field((1, 0, 0, 0), R_234)  # frequency rank 4: all 16^4 points
        nijenhuis_defect(W0, rot, grid=2)  # import-time and first-call allocations
        tracemalloc.start()
        try:
            nijenhuis_defect(W0, rot, grid=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20

    def test_defect_and_df_vanish_together(self):
        from conftest import random_brane_pair

        rng = np.random.default_rng(77)
        # constant pointwise-brane fields: both diagnostics vanish
        for _ in range(8):
            omega, f, _ = random_brane_pair(rng)
            defect, max_df = nijenhuis_defect(omega, f, grid=4)
            assert defect <= 1e-8 and max_df <= 1e-8
        # single-mode rotation families: both are obstructed
        for k in ((0, 1, 0, 0), (0, 0, 0, 1), (1, -1, 0, 0), (0, 2, 1, 0)):
            defect, max_df = nijenhuis_defect(W0, rotation_family(k), grid=8)
            assert defect > 1e-2 and max_df > 1e-2


class TestIdentityResidual:
    def test_constant_brane_residual_vanishes(self):
        assert integrability_identity_residual(W0, F0, (1.0, 1.0, 1.0, 1.0)) <= 1e-8

    def test_rotation_family_residual_small_while_sides_large(self):
        x = (1.0, 1.0, 1.0, 1.0)
        resid = integrability_identity_residual(W0, rotation_family((1, 0, 0, 0)), x, h=1e-4)
        assert resid <= 1e-6
        # each side separately has norm well above the residual
        b_w = np.array(matrix_of_form2(W0), float)
        f_here = math.cos(x[0]) * F0 + math.sin(x[0]) * KAPPA
        i_mat = np.linalg.solve(b_w, np.array(matrix_of_form2(f_here), float))
        t = _rotation_df_tensor(x)
        rhs = np.einsum("mj,mik->ijk", i_mat, t) + np.einsum("mi,jmk->ijk", i_mat, t)
        assert np.abs(rhs).max() > 0.1

    def test_second_order_convergence(self):
        x = (1.0, 1.0, 1.0, 1.0)
        rot = rotation_family((1, 0, 0, 0))
        r1 = integrability_identity_residual(W0, rot, x, h=1e-4)
        r2 = integrability_identity_residual(W0, rot, x, h=5e-5)
        assert 3.0 <= r1 / r2 <= 5.0


def _tensor_components(basis, f_rows, d_rows):
    """The 24 components N[k, i<j] per point by the per-point I-field oracle:
    I and d_m I as (n, 4, 4) stacks fed to _nijenhuis_tensor.  f_rows is
    (6, n), d_rows (4, 6, n); returns (24, n) and the scale max|I| max|dI|."""
    i_mats = (f_rows.T @ basis).reshape(-1, 4, 4)
    d_i = (d_rows.transpose(0, 2, 1) @ basis).reshape(4, -1, 4, 4)
    n_tensor = torus_forms._nijenhuis_tensor(i_mats, d_i)
    i, j = np.triu_indices(4, 1)
    comps = n_tensor[:, :, i, j].reshape(len(i_mats), 24).T
    return comps, np.abs(i_mats).max() * np.abs(d_i).max()


def _table_components(basis, f_rows, d_rows):
    prod = (f_rows[:, None, None, :] * d_rows[None]).reshape(144, -1)
    return torus_forms._nijenhuis_table(basis).T @ prod


omega_coeffs = st.lists(st.floats(-3, 3), min_size=6, max_size=6)


class TestNijenhuisTable:
    """N from the constant (144, 24) table against the per-point formula."""

    @given(omega=omega_coeffs, n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_tensor_on_any_rows(self, omega, n, seed):
        # N is bilinear, so F and its partials need not be consistent
        omega = Form2.from_coeffs(tuple(omega))
        assume(abs(pfaffian(omega)) >= 0.25)
        rng = np.random.default_rng(seed)
        f_rows, d_rows = rng.uniform(-3, 3, (6, n)), rng.uniform(-3, 3, (4, 6, n))
        basis = i_basis(omega)
        want, scale = _tensor_components(basis, f_rows, d_rows)
        assert np.abs(_table_components(basis, f_rows, d_rows) - want).max() <= 1e-12 * scale

    @given(omega=st.lists(st.integers(-2, 2), min_size=6, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_integer_rows_are_exact(self, omega, seed):
        # pf = +-1, +-2 or +-4 keeps the basis dyadic, so every float is exact
        omega = Form2.from_coeffs(tuple(omega))
        assume(abs(pfaffian(omega)) in (1, 2, 4))
        rng = np.random.default_rng(seed)
        f_rows = rng.integers(-3, 4, (6, 4)).astype(float)
        d_rows = rng.integers(-3, 4, (4, 6, 4)).astype(float)
        basis = i_basis(omega)
        want, _ = _tensor_components(basis, f_rows, d_rows)
        assert np.array_equal(_table_components(basis, f_rows, d_rows), want)

    @given(seed=st.integers(0, 2**32 - 1),
           k=st.sampled_from([(1, 0, 0, 0), (0, 1, -1, 0), (1, 2, 0, -1)]),
           r=trig_polys, grid=st.integers(2, 4))
    def test_defect_matches_per_point_oracle(self, seed, k, r, grid):
        omega, f = random_brane_field(np.random.default_rng(seed), k, r)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(torus_forms, "CHUNK_POINTS", 37)  # divides no grid^4 here
            defect, _ = nijenhuis_defect(omega, f, grid=grid)
        pts = uniform_grid(grid)
        d_rows = np.stack([
            TrigPolyForm2(tuple(fn.derivative(m) for fn in f.c)).eval_grid(pts).T
            for m in range(4)
        ])
        want, scale = _tensor_components(i_basis(omega), f.eval_grid(pts).T, d_rows)
        assert abs(defect - np.abs(want).max()) <= 1e-12 * scale

    def test_tensor_formula_runs_once_per_call(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return nijenhuis_tensor(*args)

        nijenhuis_tensor = torus_forms._nijenhuis_tensor
        monkeypatch.setattr(torus_forms, "_nijenhuis_tensor", counted)
        monkeypatch.setattr(torus_forms, "CHUNK_POINTS", 1000)
        _, f = brane_field((1, -1, 0, 1), R_234)  # frequency rank 4
        defect, _ = nijenhuis_defect(W0, f, grid=8)  # 5 blocks
        assert defect > 0.1 and len(calls) <= 1

    def test_nan_mode_raises(self):
        nan_mode = TrigPolyFn.mode((1, 0, 0, 0), cos=math.nan)
        f = TrigPolyForm2.from_constant(F0) + TrigPolyForm2.from_fns([0] * 5 + [nan_mode])
        with pytest.raises(NotPointwiseBrane):
            nijenhuis_defect(W0, f, grid=4)
