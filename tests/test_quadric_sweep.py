"""The stacked quadric sweep against the pre-change per-sample loop.

``pre_change_rows`` is the body of ``cli.cmd_quadric`` from before the
quadric samples were stacked, with ``chart_point``, ``reconstruct_brane``
and the one-fiber ``verify_brane`` it calls kept verbatim as the oracle
(but for ``i_square_resid``, now the frame-free value of
``pencil_i_square_resid``): every class, form and verdict of ``quadric_sweep`` must match it, classes
and forms by ``repr``, so signed zeros and last bits count.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branekit.brane_check import BraneReport, HolSympReport, verify_brane
from branekit.cohomology import (
    CohClass,
    class_of_constant_form,
    constant_form_of_class,
    torus_space,
)
from branekit.errors import NotInQuadric
from branekit.exterior4 import (
    BIVECTOR_SLOTS,
    Form2,
    LinearMap4,
    check_omega,
    exact_div,
    max_abs,
    pullback_form2,
    wedge,
)
from branekit.period_domain import (
    QuadricChart,
    QuadricSpec,
    build_chart,
    chart_point,
    quadric_contains,
    quadric_sweep,
)
from branekit import torus_forms
from branekit.torus_forms import (
    exterior_d,
    fiber_blocks,
    fold_walk,
    rotation_family,
    standard_brane,
    standard_symplectic,
)

_SLOT_KEYS = tuple(f"{a}{b}" for a, b in BIVECTOR_SLOTS)

# --- the pre-change implementation, verbatim ----------------------------------


def pre_change_chart_point(chart: QuadricChart, theta: float, ybar):
    """Evaluate the cylinder chart; the result always lies on the quadric."""
    ybar = tuple(ybar)
    if len(ybar) != len(chart.neg):
        raise ValueError(f"ybar must have length {len(chart.neg)}")
    stretch = math.sqrt(1.0 + sum(float(y) ** 2 for y in ybar))
    out = (stretch * math.cos(theta)) * chart.base + (stretch * math.sin(theta)) * chart.b
    for y, n in zip(ybar, chart.neg):
        out = out + y * n
    return out


def pre_change_reconstruct_brane(q: QuadricSpec, c, tol: float = 1e-9):
    """Constant-form representative of a torus quadric class, with its
    brane report (which passes: membership makes the wedge conditions hold
    and constant forms are closed)."""
    if not quadric_contains(q, c, tol):
        raise NotInQuadric("class fails the quadric conditions")
    omega_form = constant_form_of_class(q.omega)
    form = constant_form_of_class(c)
    report = pre_change_verify_brane(omega_form, form, tol=tol)
    return form, report


def _closedness_resid(f):
    """Exact coefficient norm of dF; a constant Form2 is closed."""
    return 0 if isinstance(f, Form2) else exterior_d(f).coefficient_norm()


def _peak(x):
    """max |x| over a block: a float on the grid, of x's type at one fiber."""
    return float(np.abs(x).max()) if isinstance(x, np.ndarray) else abs(x)


def _low(x):
    """min x over a block, typed as in :func:`_peak`."""
    return float(x.min()) if isinstance(x, np.ndarray) else x


def _least(values):
    """The smallest value; a NaN anywhere sorts first, so it gives NaN."""
    return min(values, key=lambda v: (v == v, v))


def _hol_symp_block(w_rr, w_ii, w_ri):
    """One block's share of the holomorphic-symplectic report of re + i*im,
    from its wedges re^re, im^im and re^im: the peaks of the real part
    re^re - im^im and of the imaginary part 2 re^im of (re+i im)^(re+i im),
    and the least (re+i im)^(conjugate) = re^re + im^im."""
    return _peak(w_rr - w_ii), _peak(2 * w_ri), _low(w_rr + w_ii)


def _hol_symp_report(blocks, closed, grid_used, tol) -> HolSympReport:
    """The report of the :func:`_hol_symp_block` triples of a walk and the
    closedness residuals ``closed`` of re and im; positivity must exceed
    tol everywhere."""
    square_resid = max_abs(peak for block in blocks for peak in block[:2])
    positivity_min = _least(block[2] for block in blocks)
    closed_resid = max_abs(closed)
    passed = square_resid <= tol and closed_resid <= tol and positivity_min > tol
    return HolSympReport(positivity_min, square_resid, closed_resid, passed, grid_used, tol)


def pencil_i_square_resid(w_ff, w_fo, w_oo):
    """max(|2c|, |1 - r|) of I^2 + Id = 2c I + (1 - r) Id, the size of I^2 + Id
    free of the frame.

    In dimension 4, Cayley-Hamilton for the Pfaffian pencil pf(F - t omega)
    gives I^2 = 2c I - r Id with c = (F^omega)/(omega^omega) and
    r = (F^F)/(omega^omega), with the wedges ``w_ff`` = F^F, ``w_fo`` =
    F^omega and ``w_oo`` = omega^omega.  Exact wedges at one fiber give an
    exact value; the rows of a grid block give the largest over its fibers.
    A NaN anywhere gives NaN.
    """
    two_c, diag = exact_div(2 * w_fo, w_oo), 1 - exact_div(w_ff, w_oo)
    if not isinstance(two_c, np.ndarray):
        return max_abs((two_c, diag))
    return float(np.abs(np.stack([two_c, diag])).max())


def pre_change_verify_brane(omega: Form2, f, grid: int = 8, tol: float = 1e-9) -> BraneReport:
    """Check the three brane conditions for f against omega.

    omega must be a constant non-degenerate 2-form; f may be constant or a
    trig-poly 2-form.  Constant inputs are checked exactly at a single
    fiber; non-constant ones on a uniform grid with ``grid`` points per
    axis (see :func:`fiber_blocks`).  The one walk also gives the
    holomorphic-symplectic report of f + i*omega (``hol_symp``), equal to
    ``verify_holomorphic_symplectic(f, omega, grid, tol)``.
    """
    check_omega(omega, tol)
    hs, orth, i_sq, low = [], [], [], []
    for fc, oc in fiber_blocks(grid, f, omega):
        w_ff, w_fo, w_oo = wedge(fc, fc), wedge(fc, oc), wedge(oc, oc)
        hs.append(_hol_symp_block(w_ff, w_oo, w_fo))
        orth.append(_peak(w_fo))
        i_sq.append(pencil_i_square_resid(w_ff, w_fo, w_oo))
        low.append(_low(w_ff))
    # F^F - omega^omega is the real part of (F + i omega)^(F + i omega)
    r_sq, r_orth, r_i = max_abs(block[0] for block in hs), max_abs(orth), max_abs(i_sq)
    closed = _closedness_resid(f)
    sampled = isinstance(w_ff, np.ndarray)
    r_closed = float(closed) if sampled else closed  # grid: floats
    orientation_ok = bool(_least(low) > 0)
    passed = r_sq <= tol and r_orth <= tol and r_closed <= tol and orientation_ok
    grid_used = grid ** 4 if sampled else 1
    hol_symp = _hol_symp_report(hs, [closed, _closedness_resid(omega)], grid_used, tol)
    return BraneReport(
        r_sq, r_orth, r_closed, r_i, orientation_ok, passed, grid_used, tol, hol_symp
    )


def pre_change_rows(chart, params, tol):
    """The rows of the quadric report, as ``cmd_quadric`` built them."""
    rows = []
    for theta, ybar in params:
        cls = pre_change_chart_point(chart, theta, ybar)
        form, rep = pre_change_reconstruct_brane(chart.spec, cls, tol=tol)
        rows.append(
            {
                "theta": theta,
                "ybar": list(ybar),
                "class": [float(v) for v in cls.coeffs],
                "form": {k: float(v) for k, v in zip(_SLOT_KEYS, form.coeffs)},
                "pass": rep.passed,
            }
        )
    return rows


# --- charts and draws ---------------------------------------------------------

T4 = torus_space()


def pulled_back_pair(rng, dets=(1, 2, 3, 4)):
    """(omega0, F0) pulled back by a random integer map whose det is in dets."""
    while True:
        m = rng.integers(-2, 3, size=(4, 4))
        if round(np.linalg.det(m)) in dets:
            p = LinearMap4.from_rows(m.tolist())
            return pullback_form2(p, standard_symplectic()), pullback_form2(p, standard_brane())


def chart_of(omega, f, tol=1e-9):
    q = QuadricSpec(T4, class_of_constant_form(omega, T4))
    return build_chart(q, class_of_constant_form(f, T4), tol=tol)


def draws(rng, count, k=3):
    """Chart points drawn as ``branekit quadric`` draws them."""
    return [(float(rng.uniform(0.0, 2.0 * math.pi)), tuple(map(float, rng.normal(size=k))))
            for _ in range(count)]


def sweep_rows(chart, params, tol):
    """The rows of the quadric report from the sweep, as ``cmd_quadric`` builds them."""
    return [
        {
            "theta": s.theta,
            "ybar": list(s.ybar),
            "class": list(s.cls.coeffs),
            "form": dict(zip(_SLOT_KEYS, s.form.coeffs)),
            "pass": s.passed,
        }
        for s in quadric_sweep(chart, params, tol)
    ]


def assert_sweep_matches(chart, params, tol):
    """The sweep gives the pre-change rows, or both raise NotInQuadric."""
    try:
        want = pre_change_rows(chart, params, tol)
    except NotInQuadric:
        with pytest.raises(NotInQuadric):
            quadric_sweep(chart, params, tol)
        return False
    got = quadric_sweep(chart, params, tol)
    assert repr(sweep_rows(chart, params, tol)) == repr(want)
    for sample, (theta, ybar) in zip(got, params):
        cls = pre_change_chart_point(chart, theta, ybar)
        form, report = pre_change_reconstruct_brane(chart.spec, cls, tol)
        assert repr(sample.cls) == repr(cls)
        assert repr(sample.form) == repr(form)
        assert sample.passed is report.passed
    return True


FLOAT_SCALES = (0.37, 1.0 / 3.0, 2.5, 10.0)


def float_pair(rng, scale):
    omega, f = pulled_back_pair(rng)
    return scale * omega, scale * f


class TestAgainstThePerSampleLoop:
    @pytest.mark.parametrize("seed", range(8))
    def test_pulled_back_charts(self, seed):
        rng = np.random.default_rng(seed)
        chart = chart_of(*pulled_back_pair(rng))
        assert all(type(v) is int for v in chart.spec.omega.coeffs)
        for _ in range(5):
            assert assert_sweep_matches(chart, draws(rng, 30), 1e-9)

    def test_a_chart_of_fractions(self):
        p = LinearMap4.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]])
        chart = chart_of(pullback_form2(p, standard_symplectic()),
                         pullback_form2(p, standard_brane()))
        assert all(type(v) is Fraction for n in chart.neg for v in n.coeffs)
        assert assert_sweep_matches(chart, draws(np.random.default_rng(9), 50), 1e-9)

    @pytest.mark.parametrize("scale", FLOAT_SCALES)
    def test_float_scaled_charts(self, scale):
        rng = np.random.default_rng(100)
        chart = chart_of(*float_pair(rng, scale))
        tol = 1e-9 * max(1.0, scale * scale)
        assert assert_sweep_matches(chart, draws(rng, 40), tol)

    def test_fraction_omega(self):
        # an exact omega of Fraction coefficients: the one-fiber formulas meet
        # Fractions, so the stacked pass runs them on object arrays
        omega, f = pulled_back_pair(np.random.default_rng(7))
        half = Fraction(1, 2)
        chart = chart_of(half * omega, half * f)
        assert any(isinstance(v, Fraction) for v in chart.spec.omega.coeffs)
        assert assert_sweep_matches(chart, draws(np.random.default_rng(8), 20), 1e-9)

    def test_tol_zero(self):
        chart = chart_of(*pulled_back_pair(np.random.default_rng(3)))
        params = [(0.0, (0.0, 0.0, 0.0))]
        # membership of the base is exact, so only the verdict sees the tol
        assert quadric_sweep(chart, params, 0.0)[0].passed is True
        assert assert_sweep_matches(chart, params, 0.0)

    def test_no_samples(self):
        assert quadric_sweep(chart_of(standard_symplectic(), standard_brane()), []) == []

    def test_wrong_ybar_length(self):
        with pytest.raises(ValueError):
            quadric_sweep(chart_of(standard_symplectic(), standard_brane()), [(0.0, (1.0,))])


CHARTS = [chart_of(*pulled_back_pair(np.random.default_rng(s))) for s in range(3)] + [
    chart_of(*float_pair(np.random.default_rng(50), 0.37))
]
big = st.floats(-1e5, 1e5, allow_nan=False)


@given(
    st.sampled_from(CHARTS),
    st.lists(st.tuples(st.floats(-1e3, 1e3), st.tuples(big, big, big)), min_size=1, max_size=4),
    st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]),
)
def test_extreme_draws(chart, params, tol):
    assert_sweep_matches(chart, params, tol)


class TestOffTheQuadric:
    def test_a_class_off_the_quadric_raises(self):
        chart = chart_of(standard_symplectic(), standard_brane())
        # b scaled by 3/2 has square 9/4 omega^2, so the chart leaves the quadric
        bent = QuadricChart(chart.spec, chart.base, Fraction(3, 2) * chart.b, chart.neg,
                            chart.omega_sq)
        params = [(0.0, (0.0, 0.0, 0.0)), (1.0, (0.5, 0.0, 0.0))]
        with pytest.raises(NotInQuadric):
            pre_change_rows(bent, params, 1e-9)
        with pytest.raises(NotInQuadric):
            quadric_sweep(bent, params, 1e-9)
        # the first sample is the base, on the quadric: the second one raises
        assert len(quadric_sweep(bent, params[:1], 1e-9)) == 1

    def test_an_infinite_class_raises(self):
        chart = chart_of(standard_symplectic(), standard_brane())
        params = [(0.5, (1e154, 1e154, 0.0))]  # the stretch is finite, the pairings not
        with pytest.raises(NotInQuadric):
            pre_change_rows(chart, params, 1e-9)
        with pytest.raises(NotInQuadric):
            quadric_sweep(chart, params, 1e-9)

    def test_an_overflowing_square_raises_as_before(self):
        chart = chart_of(standard_symplectic(), standard_brane())
        params = [(0.5, (1e200, 0.0, 0.0))]
        with pytest.raises(OverflowError):
            pre_change_rows(chart, params, 1e-9)
        with pytest.raises(OverflowError):
            quadric_sweep(chart, params, 1e-9)


class TestVerifyBraneReports:
    """verify_brane forms its wedges with ``wedge`` and reads
    ``i_square_resid`` as max(|2c|, |1 - r|) of those wedges: its reports
    keep every field's value, type and bits."""

    @pytest.mark.parametrize("seed", range(6))
    def test_constant_pairs(self, seed):
        rng = np.random.default_rng(seed)
        omega, f = pulled_back_pair(rng)
        near = Form2.from_coeffs(tuple(v + 1e-7 * float(rng.normal()) for v in f.coeffs))
        for form in (f, near, 0.37 * f, f + Form2(c12=Fraction(1, 3))):
            for tol in (1e-9, 1e-5, 0.0):
                assert repr(verify_brane(omega, form, tol=tol)) == repr(
                    pre_change_verify_brane(omega, form, tol=tol))

    @pytest.mark.parametrize("k", [(1, 0, 0, 0), (1, -1, 0, 1), (2, 1, 0, -1)])
    def test_trig_poly_fields(self, k):
        f = rotation_family(k)
        for grid in (3, 8):
            assert repr(verify_brane(standard_symplectic(), f, grid=grid)) == repr(
                pre_change_verify_brane(standard_symplectic(), f, grid=grid))


class TestOneSampleCases:
    """``chart_point`` and the per-class ``quadric_contains`` are the
    one-sample cases of the stacked pass."""

    @staticmethod
    def charts():
        """The charts of the comparisons above, each with its tol: eight of
        int classes, Fraction negative directions, a Fraction omega, floats."""
        fraction_map = LinearMap4.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1],
                                             [0, 0, 1, 1]])
        omega, f = pulled_back_pair(np.random.default_rng(7))
        return [(chart_of(*pulled_back_pair(np.random.default_rng(s))), 1e-9) for s in range(8)] + [
            (chart_of(pullback_form2(fraction_map, standard_symplectic()),
                      pullback_form2(fraction_map, standard_brane())), 1e-9),
            (chart_of(Fraction(1, 2) * omega, Fraction(1, 2) * f), 1e-9),
        ] + [(chart_of(*float_pair(np.random.default_rng(100), s)), 1e-9 * max(1.0, s * s))
             for s in FLOAT_SCALES]

    @pytest.mark.parametrize("kind", ["float", "int", "fraction"])
    def test_chart_point_is_the_sweep_class(self, kind):
        rng = np.random.default_rng(11)
        draw = {
            "float": lambda: float(rng.normal()),
            "int": lambda: int(rng.integers(-3, 4)),
            "fraction": lambda: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))),
        }[kind]
        for chart, tol in self.charts():
            for _ in range(200):
                theta = float(rng.uniform(0.0, 2.0 * math.pi))
                ybar = tuple(draw() for _ in range(3))
                want = quadric_sweep(chart, [(theta, ybar)], tol)[0].cls
                assert repr(chart_point(chart, theta, ybar)) == repr(want)

    def test_quadric_contains_on_a_stacked_class(self):
        rng = np.random.default_rng(12)
        for chart, tol in self.charts()[7:10]:  # int, Fraction-chart and Fraction omega
            q = chart.spec
            classes = [chart_point(chart, t, y) for t, y in draws(rng, 6)]
            classes += [c + 1e-6 * chart.b for c in classes[:2]]  # off the quadric
            classes.append(CohClass(q.space, (math.nan,) + classes[0].coeffs[1:]))
            stack = CohClass(q.space, tuple(np.array([c.coeffs for c in classes]).T))
            if any(isinstance(v, Fraction) for v in q.omega.coeffs):
                assert stack.pair(q.omega).dtype == object
            got = quadric_contains(q, stack, tol)
            assert got.tolist() == [quadric_contains(q, c, tol) for c in classes]
            assert got.tolist() == [True] * 6 + [False] * 3


# --- the walk's fold against the pre-change per-block reductions ----------------

#: floats, a quarter of them the values a reduction can get wrong: NaN, the
#: infinities and the two zeros
plain = st.floats(-1e3, 1e3, allow_nan=False)
edge_floats = st.one_of(plain, plain, plain,
                        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]))
exact_values = st.one_of(st.integers(-9, 9),
                         st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))


@st.composite
def walk_blocks(draw):
    """(one_fiber, blocks): at the one fiber a single block of exact (or
    float) scalars, on the grid one to four blocks of float arrays or
    plain floats (a constant form's wedge), NaN and the infinities in any
    block.  A block is (peaks, lows), each a list of values."""
    one_fiber = draw(st.booleans())
    n_peaks, n_lows = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if one_fiber:
        scalar = st.one_of(exact_values, edge_floats)
        return True, [(draw(st.lists(scalar, min_size=n_peaks, max_size=n_peaks)),
                       draw(st.lists(scalar, min_size=n_lows, max_size=n_lows)))]
    size = draw(st.integers(1, 5))
    array = st.lists(edge_floats, min_size=size, max_size=size).map(np.array)
    value = st.one_of(array, array, edge_floats)
    blocks = draw(st.lists(st.tuples(st.lists(value, min_size=n_peaks, max_size=n_peaks),
                                     st.lists(value, min_size=n_lows, max_size=n_lows)),
                           min_size=1, max_size=4))
    return False, blocks


class TestFoldWalk:
    """``fold_walk`` gives the value and type of the pre-change reductions:
    ``_peak`` and ``_low`` per block, then ``max_abs`` and ``_least`` over
    the blocks."""

    @settings(max_examples=300)
    @given(walk_blocks(), st.data())
    @example((False, [([1.0], [0.0]), ([2.0], [-0.0])]), None)  # a tie keeps the first
    @example((False, [([-0.0], [np.array([3.0, -1.0])]), ([np.array([-0.0, 0.0])], [5.0])]),
             None)
    def test_against_peak_low_and_least(self, walk, data):
        one_fiber, blocks = walk
        if data and not one_fiber and len(blocks) > 1:  # a NaN in a later block
            later = data.draw(st.integers(1, len(blocks) - 1))
            blocks[later][0][0] = np.append(blocks[later][0][0], math.nan)
        want_peaks = [max_abs(_peak(block[0][j]) for block in blocks)
                      for j in range(len(blocks[0][0]))]
        want_lows = [_least(_low(block[1][j]) for block in blocks)
                     for j in range(len(blocks[0][1]))]
        forms = [standard_symplectic()] if one_fiber else [rotation_family((1, 0, 0, 0))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(torus_forms, "fiber_blocks", lambda grid, *f: iter(blocks))
            got_peaks, got_lows = fold_walk(2, lambda peaks, lows: (peaks, lows), *forms)
        for got, want in zip(got_peaks + got_lows, want_peaks + want_lows):
            assert type(got) is type(want) and repr(got) == repr(want)

    def test_a_list_peak_is_one_value(self):
        # I^2 + Id's 16 exact terms at the one fiber: max |.| of the list
        terms = [Fraction(-7, 3), 2, Fraction(1, 9)]
        (peak,), _ = fold_walk(1, lambda fc, oc: ([terms], []), standard_brane(),
                               standard_symplectic())
        assert peak == Fraction(7, 3) and type(peak) is Fraction
