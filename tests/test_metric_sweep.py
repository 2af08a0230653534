"""The stacked metric sweep against the pre-change per-sample metric.

``pre_change_metric_at`` is ``metric_at`` from before the sweep stacked its
samples, kept verbatim as the oracle: every field of every sample of
``metric_sweep`` must match it bit for bit.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import branekit
from branekit import period_domain
from branekit.cohomology import CohClass, class_of_constant_form, k3_space, signature
from branekit.errors import NonFiniteMatrix
from branekit.period_domain import (
    MetricSample,
    QuadricChart,
    QuadricSpec,
    build_chart,
    metric_at,
    metric_sweep,
)
from branekit.torus_forms import standard_brane, standard_symplectic

K3 = k3_space()
SRC = str(Path(branekit.__file__).resolve().parents[1])


# --- the pre-change implementation, verbatim ----------------------------------


def pre_change_metric_at(chart: QuadricChart, theta: float, ybar) -> MetricSample:
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



# --- comparison ----------------------------------------------------------------


def same_bits(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return type(b) is float and repr(a) == repr(b)
    return type(a) is type(b) and a == b


def assert_matches_oracle(chart, params):
    samples = metric_sweep(chart, params)
    assert len(samples) == len(params)
    for (theta, ybar), got in zip(params, samples):
        want = pre_change_metric_at(chart, theta, ybar)
        for name in MetricSample.__dataclass_fields__:
            assert same_bits(getattr(got, name), getattr(want, name)), name
        assert all(same_bits(a, b) for a, b in zip(got.ybar, want.ybar))
        one = metric_at(chart, theta, ybar)
        assert all(same_bits(getattr(one, n), getattr(got, n)) for n in MetricSample.__dataclass_fields__)


def t4_chart():
    omega = class_of_constant_form(standard_symplectic())
    return build_chart(QuadricSpec(omega.space, omega), class_of_constant_form(standard_brane()))


def k3_chart(omega, base):
    """The chart of a K3 pair given by its nonzero coefficients."""
    vec = lambda entries: CohClass(K3, tuple(entries.get(i, 0) for i in range(22)))  # noqa: E731
    return build_chart(QuadricSpec(K3, vec(omega)), vec(base))


# boosted pairs as the deform-period workload builds them: the boost acting
# on coordinates (0, 1, 5) and (1, 0, 17)
CHARTS = {
    "t4": t4_chart(),
    "k3": k3_chart({0: 1, 1: 2, 5: 2}, {0: -2, 1: -1, 5: -2}),
    "k3_n17": k3_chart({0: -1, 1: -2, 17: -2}, {0: 2, 1: 1, 17: 2}),
}


def random_params(rng, k, count, scale):
    return [
        (float(rng.uniform(0, 2 * math.pi)), tuple(float(v) for v in scale * rng.normal(size=k)))
        for _ in range(count)
    ]


class TestMetricSweep:
    @pytest.mark.parametrize("name", sorted(CHARTS))
    @pytest.mark.parametrize("scale", [0.0, 1.0, 30.0, 1e5])
    def test_matches_per_sample_oracle(self, name, scale):
        chart = CHARTS[name]
        rng = np.random.default_rng(7)
        assert_matches_oracle(chart, random_params(rng, len(chart.neg), 30, scale))

    @pytest.mark.parametrize("name", sorted(CHARTS))
    @given(st.lists(st.tuples(
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-1e5, max_value=1e5),
        st.integers(min_value=0, max_value=18),
    ), min_size=1, max_size=6))
    def test_matches_oracle_on_drawn_points(self, name, points):
        chart = CHARTS[name]
        k = len(chart.neg)
        params = []
        for theta, y, slot in points:
            ybar = [0.0] * k
            ybar[slot % k] = y
            params.append((theta, tuple(ybar)))
        assert_matches_oracle(chart, params)

    def test_exact_and_integer_parameters(self):
        chart = CHARTS["t4"]
        assert_matches_oracle(chart, [(0, (0, 0, 0)), (1, (Fraction(1, 3), 2, -1)), (0.5, (1e5, 0, 0))])

    def test_empty_sweep(self):
        assert metric_sweep(CHARTS["t4"], []) == []

    def test_bad_length_raises_before_array_work(self, monkeypatch):
        params = [(0.1, (0.0, 0.0, 0.0)), (0.2, (1.0, 2.0))]
        monkeypatch.setattr(period_domain, "np", None)  # any array work fails
        with pytest.raises(ValueError):
            metric_sweep(CHARTS["t4"], params)

    def test_overflowing_sample_raises_before_array_work(self, monkeypatch):
        params = [(0.1, (0.0, 0.0, 0.0)), (0.2, (1e200, 0.0, 0.0))]
        monkeypatch.setattr(period_domain, "np", None)
        with pytest.raises(NonFiniteMatrix):
            metric_sweep(CHARTS["t4"], params)

    def test_cli_refuses_overflowing_ybar_under_warnings_as_errors(self, tmp_path):
        out = tmp_path / "never.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c",
             "import sys; from branekit.cli import main; sys.exit(main(sys.argv[1:]))",
             "metric", *_fixture_paths(), "--ybar", "1e200,0,0", "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == 2, proc.stderr
        assert "not finite" in proc.stderr
        assert not out.exists()


def _fixture_paths():
    data = resources.files("branekit").joinpath("data")
    return [str(data / "omega0.json"), str(data / "f0.json")]


class TestStackedSignature:
    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(11)
        stack = rng.normal(size=(9, 5, 5))
        stack = stack + stack.transpose(0, 2, 1)
        stack[3] = np.diag([1.0, -1.0, 0.0, 2.0, -1e-12])  # a zero and a tiny eigenvalue
        metric = np.stack([s.g for s in metric_sweep(
            CHARTS["k3"], random_params(np.random.default_rng(4), 19, 8, 3.0))])
        for mats in (stack, metric):
            assert signature(mats) == [signature(m) for m in mats]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_in_stack_is_refused(self, bad):
        stack = np.stack([np.eye(3)] * 4)
        stack[2, 1, 0] = bad
        with pytest.raises(NonFiniteMatrix):
            signature(stack)
