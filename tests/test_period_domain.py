"""Quadric membership, cylinder charts, the induced Lorentzian metric and
the deformation quadric of the standard torus pair."""

import math
from fractions import Fraction

import numpy as np
import pytest

from branekit.cohomology import (
    CohClass,
    class_of_constant_form,
    k3_space,
    signature,
    standard_basis,
    torus_space,
)
from branekit.errors import (
    DegenerateQuadric,
    NonFiniteMatrix,
    NotInQuadric,
    SpaceMismatch,
    TargetOutsideSpan,
    WrongSpace,
)
from branekit.period_domain import (
    QuadricSpec,
    _standard_candidates,
    affine_normal_form,
    build_chart,
    chart_point,
    deformation_residual,
    hodge_splitting,
    metric_at,
    quadric_contains,
    reconstruct_brane,
    scalar_with_imaginary_part,
    torus_quadric_alt_value,
    torus_quadric_coefficients,
    torus_quadric_residuals,
)
from branekit.torus_forms import standard_brane, standard_kahler, standard_symplectic

SPACE = torus_space()
K3 = k3_space()
B = standard_basis(SPACE)
E = standard_basis(K3)

W0C = class_of_constant_form(standard_symplectic())
F0C = class_of_constant_form(standard_brane())
KAPPAC = class_of_constant_form(standard_kahler())
Q = QuadricSpec(SPACE, W0C)
QK3 = QuadricSpec(K3, E[0])


def torus_chart():
    return build_chart(Q, F0C)


def k3_chart():
    return build_chart(QK3, E[1])


def boosted_k3_chart():
    # the boosted pair of the K3 golden report: chart vectors off the axes
    omega = CohClass(K3, (1, 2, 0, 0, 0, 2) + (0,) * 16)
    return build_chart(QuadricSpec(K3, omega), CohClass(K3, (-2, -1, 0, 0, 0, -2) + (0,) * 16))


class TestMembership:
    def test_examples(self):
        assert quadric_contains(Q, F0C)
        assert quadric_contains(Q, KAPPAC)
        assert not quadric_contains(Q, W0C)

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            quadric_contains(Q, E[0])

    def test_omega_square_must_be_positive(self):
        with pytest.raises(ValueError):
            QuadricSpec(SPACE, B[0] - B[1])


class TestChart:
    def test_torus_chart_is_the_expected_exact_basis(self):
        chart = torus_chart()
        assert chart.b.coeffs == (1, 1, 0, 0, 0, 0)  # the kahler class
        assert [n.coeffs for n in chart.neg] == [
            (1, -1, 0, 0, 0, 0),
            (0, 0, 1, -1, 0, 0),
            (0, 0, 0, 0, 1, -1),
        ]
        assert chart.dim == 4

    def test_chart_gram_matrix(self):
        chart = torus_chart()
        vectors = [chart.base, chart.b, *chart.neg]
        s = float(chart.omega_sq)
        expected = np.diag([s, s, -s, -s, -s])
        gram = np.array(
            [[float(u.pair(v)) for v in vectors] for u in vectors]
        )
        assert np.abs(gram - expected).max() <= 1e-10
        assert max(abs(float(v.pair(Q.omega))) for v in vectors) <= 1e-10

    def test_k3_chart_uses_remaining_diagonal_vectors(self):
        chart = k3_chart()
        assert chart.b == E[2]
        assert list(chart.neg) == [E[i] for i in range(3, 22)]
        assert chart.dim == 20

    def test_base_must_lie_on_quadric(self):
        with pytest.raises(NotInQuadric):
            build_chart(Q, W0C)

    def test_float_base_points_build_valid_charts(self):
        chart = torus_chart()
        rng = np.random.default_rng(3)
        for _ in range(5):
            new_base = chart_point(chart, rng.uniform(0, 2 * math.pi), rng.normal(size=3))
            chart2 = build_chart(Q, new_base)
            vectors = [chart2.base, chart2.b, *chart2.neg]
            gram = np.array([[float(u.pair(v)) for v in vectors] for u in vectors])
            assert np.abs(gram - np.diag([2.0, 2.0, -2.0, -2.0, -2.0])).max() <= 1e-9


def _eager_candidates(space):
    singles = list(standard_basis(space))
    pairs = [(i, j) for i in range(space.dim) for j in range(i + 1, space.dim)]
    return (
        singles
        + [singles[i] + singles[j] for i, j in pairs]
        + [singles[i] - singles[j] for i, j in pairs]
    )


class TestCandidates:
    @pytest.mark.parametrize("space", [SPACE, K3], ids=lambda sp: sp.name)
    def test_lazy_order_matches_eager_list(self, space):
        lazy = _standard_candidates(space)
        assert next(lazy) == standard_basis(space)[0]  # an iterator, not a list
        assert [standard_basis(space)[0], *lazy] == _eager_candidates(space)


class TestChartPoint:
    def test_base_point(self):
        assert chart_point(torus_chart(), 0.0, (0, 0, 0)).coeffs == (0.0, 0.0, 1.0, 1.0, 0.0, 0.0)

    def test_quarter_turn_reaches_kahler_class(self):
        p = chart_point(torus_chart(), math.pi / 2, (0, 0, 0))
        assert max(abs(a - b) for a, b in zip(p.coeffs, (1, 1, 0, 0, 0, 0))) <= 1e-12

    def test_off_axis_point(self):
        p = chart_point(torus_chart(), 0.0, (1, 0, 0))
        r = math.sqrt(2)
        expected = (1.0, -1.0, r, r, 0.0, 0.0)
        assert max(abs(a - b) for a, b in zip(p.coeffs, expected)) <= 1e-12
        assert quadric_contains(Q, p, tol=1e-12)

    def test_membership_sweep(self):
        chart = torus_chart()
        rng = np.random.default_rng(14)
        for _ in range(200):
            p = chart_point(chart, rng.uniform(0, 2 * math.pi), rng.normal(size=3))
            assert quadric_contains(Q, p, tol=1e-12)

    def test_injectivity_on_samples(self):
        chart = torus_chart()
        rng = np.random.default_rng(8)
        params = [
            (rng.uniform(0, 2 * math.pi), tuple(rng.normal(size=3))) for _ in range(40)
        ]
        points = [chart_point(chart, t, y).array() for t, y in params]
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                assert np.abs(points[i] - points[j]).max() > 1e-8

    def test_noncompactness_witness(self):
        chart = torus_chart()
        norms = []
        for radius in (10.0, 100.0, 1000.0):
            p = chart_point(chart, 0.0, (radius, 0.0, 0.0))
            norms.append(float(np.abs(p.array()).max()))
            # membership holds in relative terms even far out
            assert abs(p.pair(Q.omega)) <= 1e-9 * radius**2
            assert abs(p.pair(p) - 2) <= 1e-9 * radius**2
        assert norms[0] > 10 and norms[1] > 5 * norms[0] and norms[2] > 5 * norms[1]


class TestMetric:
    def test_chart_arrays_are_derived_once(self, monkeypatch):
        chart = k3_chart()
        assert chart == k3_chart() and hash(chart) == hash(k3_chart())
        assert "vectors" not in repr(chart) and "array(" not in repr(chart)
        expected = metric_at(chart, 0.7, (0.5,) + (0.0,) * 18)

        def no_conversion(self):
            raise AssertionError("metric_at converted a class")

        monkeypatch.setattr(CohClass, "array", no_conversion)
        sample = metric_at(chart, 0.7, (0.5,) + (0.0,) * 18)
        assert np.array_equal(sample.g, expected.g)

    @pytest.mark.parametrize("make_chart", [torus_chart, k3_chart, boosted_k3_chart])
    def test_broadcast_tangents_match_the_row_loop(self, make_chart):
        chart = make_chart()
        base_a, b_a, neg_a = chart.vectors[0], chart.vectors[1], chart.vectors[2:]
        rng = np.random.default_rng(12)
        for _ in range(20):
            theta = float(rng.uniform(0, 2 * math.pi))
            ybar = tuple(float(v) for v in rng.normal(size=len(chart.neg)))
            root = math.sqrt(1.0 + sum(y * y for y in ybar))
            cos_t, sin_t = math.cos(theta), math.sin(theta)
            rows = [root * (-sin_t * base_a + cos_t * b_a)]
            for y, n in zip(ybar, neg_a):
                rows.append((y / root) * (cos_t * base_a + sin_t * b_a) + n)
            t = np.stack(rows)
            g = t @ chart.pairing @ t.T
            g = 0.5 * (g + g.T)
            assert metric_at(chart, theta, ybar).g.tobytes() == g.tobytes()

    @pytest.mark.filterwarnings("error")  # refused before any inf * 0
    @pytest.mark.parametrize("ybar", [(1e200, 0, 0), (0, 1e155, 0)])
    def test_non_finite_metric_is_refused(self, ybar):
        # |ybar|^2 overflows; the NaN metric used to reach eigvalsh and leak
        # numpy's LinAlgError
        with pytest.raises(NonFiniteMatrix):
            metric_at(torus_chart(), 0.3, ybar)

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_metric_overflowing_in_the_product_is_refused(self):
        # 1 + |ybar|^2 = 1e308 is finite; g_theta_theta = 2e308 is not
        with pytest.raises(NonFiniteMatrix):
            metric_at(torus_chart(), 0.3, (1e154, 0, 0))

    def test_flat_point(self):
        sample = metric_at(torus_chart(), 0.0, (0, 0, 0))
        assert np.abs(sample.g - np.diag([2.0, -2.0, -2.0, -2.0])).max() <= 1e-12
        assert sample.signature == (1, 3)

    def test_off_axis_values(self):
        sample = metric_at(torus_chart(), 0.0, (1, 0, 0))
        assert abs(sample.g_theta_theta - 4.0) <= 1e-12
        assert abs(sample.g[1, 1] - (-1.0)) <= 1e-12  # (1/2 - 1) * 2
        assert abs(sample.g[1, 2]) <= 1e-12
        assert sample.signature == (1, 3)
        # the sqrt closed form disagrees with the pushforward by sqrt(2) here
        ratio = sample.g_theta_theta / sample.g_theta_theta_sqrt_form
        assert abs(ratio - math.sqrt(2)) <= 1e-12

    def test_matches_finite_difference_pushforward(self):
        chart = torus_chart()
        pairing = np.array(SPACE.pairing, float)
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(5):
            theta = rng.uniform(0, 2 * math.pi)
            ybar = rng.normal(size=3)
            tangents = []
            for k in range(4):
                tp = theta + (h if k == 0 else 0.0)
                tm = theta - (h if k == 0 else 0.0)
                yp, ym = ybar.copy(), ybar.copy()
                if k > 0:
                    yp[k - 1] += h
                    ym[k - 1] -= h
                diff = chart_point(chart, tp, yp).array() - chart_point(chart, tm, ym).array()
                tangents.append(diff / (2 * h))
            t = np.stack(tangents)
            g_fd = t @ pairing @ t.T
            g = metric_at(chart, theta, ybar).g
            assert np.abs(g - g_fd).max() <= 1e-6

    def test_split_and_closed_form_over_sweep(self):
        chart = torus_chart()
        rng = np.random.default_rng(23)
        for _ in range(100):
            sample = metric_at(chart, rng.uniform(0, 2 * math.pi), rng.normal(size=3))
            assert sample.off_diag_max <= 1e-12
            assert sample.gamma_resid <= 1e-10
            assert sample.signature == (1, 3)

    def test_k3_signature_sweep(self):
        chart = k3_chart()
        rng = np.random.default_rng(31)
        for _ in range(25):
            sample = metric_at(chart, rng.uniform(0, 2 * math.pi), rng.normal(size=19))
            assert sample.signature == (1, 19)
            assert sample.off_diag_max <= 1e-12
            assert sample.gamma_resid <= 1e-10

    def test_scaling_omega_scales_metric_quadratically(self):
        rng = np.random.default_rng(6)
        chart = torus_chart()
        for lam in (Fraction(1, 2), 2, 3):
            q2 = QuadricSpec(SPACE, lam * W0C)
            chart2 = build_chart(q2, lam * F0C)
            for _ in range(10):
                theta = rng.uniform(0, 2 * math.pi)
                ybar = rng.normal(size=3)
                g1 = metric_at(chart, theta, ybar).g
                g2 = metric_at(chart2, theta, ybar).g
                assert np.abs(g2 - float(lam) ** 2 * g1).max() <= 1e-10


class TestDeformationResidual:
    def test_kahler_direction(self):
        assert deformation_residual(Q, F0C, KAPPAC - F0C) == (0, 0)

    def test_quadratic_term(self):
        alpha = Fraction(1, 2) * (B[0] - B[1])
        r1, r2 = deformation_residual(Q, F0C, alpha)
        assert r1 == 0
        assert r2 == Fraction(-1, 4)

    def test_zero(self):
        assert deformation_residual(Q, F0C, CohClass(SPACE, (0,) * 6)) == (0, 0)

    def test_residuals_vanish_iff_membership(self):
        chart = torus_chart()
        rng = np.random.default_rng(19)
        for _ in range(40):
            if rng.uniform() < 0.5:
                target = chart_point(chart, rng.uniform(0, 2 * math.pi), rng.normal(size=3))
            else:
                target = CohClass(SPACE, tuple(rng.normal(size=6)))
            alpha = target - F0C
            r1, r2 = deformation_residual(Q, F0C, alpha)
            member = quadric_contains(Q, target, tol=1e-9)
            assert (abs(r1) <= 1e-9 and abs(r2) <= 1e-9) == member


class TestTorusQuadric:
    def test_kahler_solution(self):
        assert torus_quadric_residuals(1, 1, -1, -1, 0, 0) == (0, 0)

    def test_omega_direction_fails_first_equation(self):
        r_h, _ = torus_quadric_residuals(0, 0, 0, 0, 1, 1)
        assert r_h == 2

    def test_antipodal_brane(self):
        assert torus_quadric_residuals(0, 0, -2, -2, 0, 0) == (0, 0)

    def test_alt_form_disagrees_on_kahler_solution(self):
        assert torus_quadric_alt_value(1, 1, -1, -1, 0, 0) == -6

    def test_residuals_match_brane_level_deformations(self):
        # the class-level equations agree with the pointwise wedge equations
        # for constant forms
        from branekit.brane_check import deformation_residuals
        from branekit.cohomology import constant_form_of_class

        rng = np.random.default_rng(40)
        w0, f0 = standard_symplectic(), standard_brane()
        for _ in range(20):
            coeffs = tuple(int(v) for v in rng.integers(-3, 4, size=6))
            r_h, r_q = torus_quadric_residuals(*coeffs)
            alpha = constant_form_of_class(CohClass(SPACE, coeffs))
            r_quad, r_orth, r_closed = deformation_residuals(w0, f0, alpha)
            assert r_closed == 0
            assert abs(r_h) == r_orth
            assert abs(r_q) == r_quad


class TestAffineNormalForm:
    def test_torus_deformation_quadric_inertia(self):
        nf = affine_normal_form(*torus_quadric_coefficients())
        assert nf.squares == (1, 1, -1, -1, -1)
        assert nf.inertia == (2, 3)

    def test_circle(self):
        nf = affine_normal_form(np.eye(2), np.zeros(2), -1.0)
        assert nf.squares == (1, 1)

    def test_zero_quadratic_part_rejected(self):
        with pytest.raises(DegenerateQuadric):
            affine_normal_form(np.zeros((2, 2)), np.array([1.0, 0.0]), -1.0)

    def test_cone_rejected(self):
        with pytest.raises(DegenerateQuadric):
            affine_normal_form(np.diag([1.0, -1.0]), np.zeros(2), 0.0)

    def test_transform_maps_normal_solutions_to_quadric(self):
        a, b, c = torus_quadric_coefficients()
        nf = affine_normal_form(a, b, c)
        rng = np.random.default_rng(44)
        for _ in range(25):
            # sample sum(s_i x_i^2) = 1 by normalising a random direction
            x = rng.normal(size=5)
            quad = sum(s * v * v for s, v in zip(nf.squares, x))
            if quad <= 0.1:
                continue
            x = x / math.sqrt(quad)
            y = nf.map_point(x)
            assert abs(y @ a @ y + b @ y + c) <= 1e-9


class TestScalar:
    def test_omega_target_is_identity_scalar(self):
        assert scalar_with_imaginary_part(F0C, W0C, W0C) == (1, 0)

    def test_brane_target_is_quarter_turn(self):
        assert scalar_with_imaginary_part(F0C, W0C, F0C) == (0, 1)

    def test_results_are_exact_rationals(self):
        a, b = scalar_with_imaginary_part(F0C, W0C, 3 * W0C + Fraction(1, 2) * F0C)
        assert (a, b) == (Fraction(3), Fraction(1, 2))
        assert isinstance(a, Fraction) and isinstance(b, Fraction)

    def test_outside_span_rejected(self):
        with pytest.raises(TargetOutsideSpan):
            scalar_with_imaginary_part(F0C, W0C, B[0])

    def test_nan_target_rejected(self):
        target = CohClass(SPACE, (0, math.nan, 0, 0, 1, 1))
        with pytest.raises(TargetOutsideSpan):
            scalar_with_imaginary_part(F0C, W0C, target)


class TestHodgeSplitting:
    def test_torus_splitting(self):
        plane, h11 = hodge_splitting(Q, F0C)
        assert plane == (F0C, W0C)
        assert len(h11) == 4
        # the (1,1) part is exactly the kernel of both pairing functionals
        for h in h11:
            assert h.pair(F0C) == 0
            assert h.pair(W0C) == 0
        # spans {B1, B2, B3 - B4, B5 - B6}: check by exact rank
        expected = [B[0], B[1], B[2] - B[3], B[4] - B[5]]
        stacked = [list(h.coeffs) for h in h11] + [list(v.coeffs) for v in expected]
        assert np.linalg.matrix_rank(np.array(stacked, float)) == 4

    def test_signatures_of_the_two_pieces(self):
        plane, h11 = hodge_splitting(Q, F0C)
        plane_gram = [[float(u.pair(v)) for v in plane] for u in plane]
        assert signature(plane_gram) == (2, 0)
        h11_gram = [[float(u.pair(v)) for v in h11] for u in h11]
        assert signature(h11_gram) == (1, 3)

    def test_k3_splitting(self):
        plane, h11 = hodge_splitting(QK3, E[1])
        assert len(h11) == 20
        h11_gram = [[float(u.pair(v)) for v in h11] for u in h11]
        assert signature(h11_gram) == (1, 19)

    def test_base_must_be_on_quadric(self):
        with pytest.raises(NotInQuadric):
            hodge_splitting(Q, W0C)

    def test_boosted_k3_splitting_is_exact(self):
        omega = CohClass(K3, (1, 2, 0, 0, 0, 2) + (0,) * 16)
        base = CohClass(K3, (-2, -1, 0, 0, 0, -2) + (0,) * 16)
        _, h11 = hodge_splitting(QuadricSpec(K3, omega), base)
        assert len(h11) == 20
        for h in h11:
            assert all(isinstance(v, Fraction) for v in h.coeffs)
            assert h.pair(base) == 0 and h.pair(omega) == 0


class TestReconstruct:
    def test_kahler_class(self):
        form, report = reconstruct_brane(Q, KAPPAC)
        assert form == standard_kahler()
        assert report.passed

    def test_sampled_classes_reconstruct_to_branes(self):
        chart = torus_chart()
        rng = np.random.default_rng(3)
        for _ in range(25):
            cls = chart_point(chart, rng.uniform(0, 2 * math.pi), rng.normal(size=3))
            form, report = reconstruct_brane(Q, cls, tol=1e-12)
            assert report.passed
            assert report.wedge_square_resid <= 1e-12

    def test_omega_class_rejected(self):
        with pytest.raises(NotInQuadric):
            reconstruct_brane(Q, W0C)

    def test_k3_classes_have_no_reconstruction(self):
        with pytest.raises(WrongSpace):
            reconstruct_brane(QK3, E[1])
