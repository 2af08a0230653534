"""One scale for every verdict: tol is read in the unit u = |pf(omega)|, so
rescaling (omega, F) does not change a verdict, and neither does relabelling
the coordinates by a signed permutation of determinant +1 or pulling a
constant pair back by an integer map: I^2 = -Id is read from the wedges,
not from the entries of I^2 + Id."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from branekit.brane_check import (constant_branes_pass, linearized_deformation_check,
                                  verify_brane, verify_holomorphic_symplectic)
from branekit.cli import main
from branekit.cohomology import class_of_constant_form, torus_space
from branekit.errors import BranekitError, NotPointwiseBrane
from branekit.exterior4 import (BIVECTOR_SLOTS, Form2, LinearMap4, pfaffian, pullback_form2,
                                wedge)
from branekit.period_domain import QuadricSpec, quadric_contains
from branekit.torus_forms import TrigPolyFn, nijenhuis_defect, standard_brane, standard_symplectic

from conftest import brane_field, random_brane_pair, random_int_gl4

W0 = standard_symplectic()
F0 = standard_brane()
SCALES = (1e-3, 1, 1e3)
SLOT_KEYS = [f"{a}{b}" for a, b in BIVECTOR_SLOTS]


def _quadric_holds(omega, f, tol=1e-9):
    space = torus_space()
    q = QuadricSpec(space, class_of_constant_form(omega, space))
    return bool(quadric_contains(q, class_of_constant_form(f, space), tol))


def _constant_doc(form):
    return {"version": 1, "kind": "constant2",
            "coeffs": dict(zip(SLOT_KEYS, (float(v) for v in form.coeffs)))}


def _trig_doc(slot_modes):
    """``slot_modes[s]`` lists the (k, cos, sin) of slot s."""
    return {"version": 1, "kind": "trigpoly2",
            "coeffs": {key: [{"k": list(k), "cos": float(c), "sin": float(s)}
                             for k, c, s in modes]
                       for key, modes in zip(SLOT_KEYS, slot_modes)}}


def _slot_modes(field, t=1.0):
    return [[(k, t * a, t * b) for k, a, b in fn.modes] for fn in field.c]


def _run(command, omega_doc, form_doc, *options):
    """The exit code and JSON report of one CLI run on the two documents."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp) / name) for name in ("omega.json", "form.json", "out.json")]
        for path, doc in zip(paths, (omega_doc, form_doc)):
            Path(path).write_text(json.dumps(doc))
        code = main([command, paths[0], paths[1], *options, "--no-timestamp",
                     "--out", paths[2]])
        report = json.loads(Path(paths[2]).read_text()) if code != 2 else None
    return code, report


def _nijenhuis_verdict(omega_doc, form_doc, tol=1e-9):
    """``integrable_iff_closed``, or "refused" when the run exits 2."""
    code, report = _run("nijenhuis", omega_doc, form_doc, "--grid", "4", "--tol", repr(tol))
    return "refused" if code == 2 else report["integrable_iff_closed"]


class TestRegressions:
    """Verdicts that read tol in absolute units before it was read in u."""

    @pytest.mark.parametrize("t", SCALES)
    def test_near_brane_passes_at_every_scale(self, t):
        omega, f = t * W0, t * (F0 + Form2(c13=1e-10))
        report = verify_brane(omega, f)
        assert report.passed and report.hol_symp.passed
        assert report.hol_symp == verify_holomorphic_symplectic(f, omega)

    @pytest.mark.parametrize("t", (1e-6, 1e-5, 1e6))
    def test_small_and_large_branes_pass(self, t):
        # positivity (F + i omega)^(conjugate) = 4 t^2 must exceed tol * t^2
        omega, f = t * W0, t * F0
        assert verify_brane(omega, f).passed
        assert verify_holomorphic_symplectic(f, omega).passed

    @pytest.mark.parametrize("t", SCALES)
    def test_off_brane_fails_both_checks_at_every_scale(self, t):
        omega, f = t * W0, t * (F0 + Form2(c13=1e-6))
        assert not verify_brane(omega, f).passed
        assert not verify_holomorphic_symplectic(f, omega).passed

    @pytest.mark.parametrize("t", SCALES)
    def test_quadric_contains_the_near_brane_class(self, t):
        assert _quadric_holds(t * W0, t * (F0 + Form2(c13=1e-10)))

    @pytest.mark.parametrize("t", SCALES)
    def test_linearized_check_reads_tol_in_u(self, t):
        # the (2,0)+(0,2) part of alpha = t eps omega0 is alpha itself, of
        # degree 1, so it meets tol * sqrt(u) = tol * t when eps is below tol
        omega, f = t * W0, t * F0
        assert linearized_deformation_check(omega, f, t * 1e-10 * W0)
        assert not linearized_deformation_check(omega, f, t * 1e-8 * W0)

    def test_checks_agree_near_tol(self):
        # |F^omega| = 0.8e-9 and 2|F^omega| = 1.6e-9 meet tol and 2 tol alike
        code, report = _run("verify", _constant_doc(W0), _constant_doc(F0 + 0.4e-9 * W0))
        assert code == 0 and report["checks_agree"] is True

    @pytest.mark.parametrize("t", (1e-7, 1, 1e7))
    def test_nijenhuis_flag_of_a_scaled_rotation(self, t):
        # the defect is free of scale, max |dF| = t: both read as nonzero
        omega, rotation = brane_field((1, 0, 0, 0), TrigPolyFn.zero())
        assert _nijenhuis_verdict(_constant_doc(t * omega),
                                  _trig_doc(_slot_modes(rotation, t))) is True


def _verdicts(omega, f, tol):
    brane = verify_brane(omega, f, tol=tol)
    return (brane.passed, brane.hol_symp.passed,
            verify_holomorphic_symplectic(f, omega, tol=tol).passed,
            _quadric_holds(omega, f, tol),
            _nijenhuis_verdict(_constant_doc(omega), _constant_doc(f), tol))


#: log10 t, log-uniform in [-6, 6] with the ends drawn often
log_scales = st.one_of(st.sampled_from([-6.0, -5.0, 5.0, 6.0]), st.floats(-6, 6))


class TestScaleInvariance:
    @given(seed=st.integers(0, 2**32 - 1),
           direction=st.lists(st.floats(-1, 1), min_size=6, max_size=6),
           log_size=st.floats(-1.5, 1), log_t=log_scales)
    def test_constant_pairs_near_tol(self, seed, direction, log_size, log_t):
        """A brane pair moved off so that its residuals are about 10^log_size
        times tol * u keeps every verdict under (omega, F) -> t (omega, F),
        whenever the verdicts at t = 1 do not move with tol by 0.1% (a tie
        is decided by rounding)."""
        tol = 1e-7  # above the 1e-9 floor of the I^2 = -Id guard
        omega, brane, _ = random_brane_pair(np.random.default_rng(seed))
        omega = Form2.from_coeffs(tuple(float(v) for v in omega.coeffs))
        step = 10.0 ** log_size * tol * abs(float(pfaffian(omega))) / brane.max_abs()
        f = Form2.from_coeffs(tuple(float(v) + step * d for v, d in zip(brane.coeffs, direction)))
        want = _verdicts(omega, f, tol)
        assume(_verdicts(omega, f, tol * 0.999) == want == _verdicts(omega, f, tol * 1.001))
        t = 10.0 ** log_t
        assert _verdicts(t * omega, t * f, tol) == want

    @given(k=st.sampled_from([(0, 0, 0, 0), (1, 0, 0, 0), (1, -1, 0, 2)]),
           r_k=st.tuples(*[st.integers(-1, 1)] * 4),
           amplitude=st.sampled_from([0.0, 1e-9, 1e-3, 0.5]), log_t=log_scales)
    def test_nijenhuis_flag_of_brane_fields(self, k, r_k, amplitude, log_t):
        """Pointwise branes whose defect and max |dF| are both about
        ``amplitude`` (k = 0) or both of order 1 are read alike at every t."""
        omega, field = brane_field(k, TrigPolyFn.mode(r_k, sin=amplitude))
        t = 10.0 ** log_t
        want = _nijenhuis_verdict(_constant_doc(omega), _trig_doc(_slot_modes(field)))
        assert _nijenhuis_verdict(_constant_doc(t * omega),
                                  _trig_doc(_slot_modes(field, t))) == want


@st.composite
def signed_permutations(draw):
    """A signed permutation matrix P of determinant +1, as a LinearMap4."""
    perm = draw(st.permutations(range(4)))
    signs = list(draw(st.tuples(*[st.sampled_from([-1, 1])] * 4)))
    p = np.zeros((4, 4), dtype=int)
    p[range(4), perm] = signs
    if round(np.linalg.det(p)) < 0:
        p[0] = -p[0]
    return LinearMap4.from_rows(p.tolist())


def _relabel(p, slot_modes):
    """Slot modes of the pullback of a trig-poly 2-form by y -> P y: a mode
    k of slot e^{ab} moves to frequency P^T k on the slot of P^* e^{ab},
    with that slot's sign."""
    out = [[] for _ in SLOT_KEYS]
    for unit, modes in zip(np.eye(6, dtype=int).tolist(), slot_modes):
        image = pullback_form2(p, Form2.from_coeffs(unit)).coeffs
        slot = next(i for i, v in enumerate(image) if v)
        sign = image[slot]
        out[slot] += [(tuple(sum(p.m[r][j] * k[r] for r in range(4)) for j in range(4)),
                       sign * c, sign * s) for k, c, s in modes]
    return out


def _numbers_and_flags(report, skip=()):
    """The report's leaves by path, booleans and numbers alike."""
    leaves = {}
    for key, value in report.items():
        if key in skip or key in ("inputs", "tolerances"):
            continue
        if isinstance(value, dict):
            leaves.update({f"{key}.{k}": v for k, v in _numbers_and_flags(value).items()})
        else:
            leaves[key] = value
    return leaves


def _assert_same_verdicts(got, want):
    """Booleans equal; numbers within 1e-12 of max(1, |value|)."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            assert got[key] == value, key
        else:
            assert math.isclose(got[key], value, rel_tol=1e-12, abs_tol=1e-12), key


class TestSignedPermutation:
    @given(p=signed_permutations(), k=st.tuples(*[st.integers(-2, 2)] * 4),
           r_k=st.tuples(*[st.integers(-1, 1)] * 4),
           amplitude=st.sampled_from([0.0, 0.3]), bump=st.sampled_from([0.0, 1e-3, 0.5]))
    def test_verify_and_nijenhuis_reports(self, p, k, r_k, amplitude, bump):
        """Relabelling by a det +1 signed permutation maps the uniform grid to
        itself, so verdicts are unchanged and residuals agree up to
        rounding; ``bump`` moves F off the brane by a closed constant, and
        keeps F^F = 2 + 2 bump (c - r s) >= 0.9 away from the tie at 0."""
        omega, field = brane_field(k, TrigPolyFn.mode(r_k, cos=amplitude))
        modes = _slot_modes(field)
        modes[1] = modes[1] + [((0, 0, 0, 0), bump, 0.0)]  # bump * e^{13}
        pairs = ((omega, modes), (pullback_form2(p, omega), _relabel(p, modes)))
        reports = []
        for w, m in pairs:
            code, verify = _run("verify", _constant_doc(w), _trig_doc(m), "--grid", "4")
            _, nij = _run("nijenhuis", _constant_doc(w), _trig_doc(m), "--grid", "4")
            reports.append(({"exit": code, **_numbers_and_flags(verify)},
                            nij and _numbers_and_flags(nij, skip=("identity_residual",))))
        (verify_got, nij_got), (verify_want, nij_want) = reports[1], reports[0]
        _assert_same_verdicts(verify_got, verify_want)
        if nij_want is None:  # refused: F is not a pointwise brane
            assert nij_got is None
        else:
            _assert_same_verdicts(nij_got, nij_want)


#: det-1 integer maps: pulled back by them, F0 + 4e-10 e^{14} keeps its wedge
#: residuals at 4e-10 while the largest entry of I^2 + Id grows to 6.4e-7
#: and 3.6e-7
SHEARS = (LinearMap4.from_rows([[1, 7, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 40, 1]]),
          LinearMap4.from_rows([[1, 30, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))


def _outcomes(omega, f):
    """The verdict, or the refusal, of every check of a constant pair."""
    def outcome(check):
        try:
            return check()
        except BranekitError as exc:
            return type(exc)

    stacked = tuple(np.full(2, float(c)) for c in f.coeffs)
    report = verify_brane(omega, f)
    return (report.passed, report.hol_symp.passed,
            bool(constant_branes_pass(omega, stacked).all()),
            outcome(lambda: nijenhuis_defect(omega, f) == (0.0, 0.0)),
            outcome(lambda: linearized_deformation_check(omega, f, Form2())))


def _pulled_back(p, *forms):
    return tuple(pullback_form2(p, form) for form in forms)


class TestFrames:
    @pytest.mark.parametrize("bump, want", [
        (4e-10, (True, True, True, True, True)),
        (1e-6, (False, False, False, NotPointwiseBrane, NotPointwiseBrane)),
    ])
    def test_a_sheared_pair_keeps_every_verdict(self, bump, want):
        pairs = [(W0, F0 + Form2(c14=bump))]
        pairs += [_pulled_back(p, *pairs[0]) for p in SHEARS]
        assert [_outcomes(omega, f) for omega, f in pairs] == [want] * 3

    def test_i_square_resid_stays_the_frame_dependent_max_norm(self):
        pair = (W0, F0 + Form2(c14=4e-10))
        got = [verify_brane(omega, f).i_square_resid
               for omega, f in [pair] + [_pulled_back(p, *pair) for p in SHEARS]]
        assert got == pytest.approx([4e-10, 6.404e-7, 3.604e-7], rel=1e-3)

    @pytest.mark.parametrize("p", SHEARS)
    def test_nijenhuis_accepts_the_sheared_pair(self, p):
        omega, f = _pulled_back(p, W0, F0 + Form2(c14=4e-10))
        code, report = _run("nijenhuis", _constant_doc(omega), _constant_doc(f))
        assert code == 0 and report["integrable_iff_closed"] is True

    @given(seed=st.integers(0, 2**32 - 1),
           direction=st.lists(st.floats(-1, 1), min_size=6, max_size=6),
           log_size=st.sampled_from([-1.5, 1.5]))
    def test_integer_pullbacks_keep_every_verdict(self, seed, direction, log_size):
        """(omega0, F0 + step * direction) with residuals about 10^log_size
        times tol, at least a factor 10 away from tol, has the outcomes of
        its pullback by a random integer map of positive determinant, whose
        entries up to 6 make the largest entry of I^2 + Id grow by up to
        about 100."""
        tol = 1e-9
        f = F0 + Form2.from_coeffs(tuple(10.0 ** log_size * tol * d for d in direction))
        w = [float(v) for v in W0.coeffs]
        resid = max(abs(wedge(f.coeffs, f.coeffs) - wedge(w, w)), abs(wedge(f.coeffs, w)))
        assume(not 0.1 * tol <= resid <= 10 * tol)  # |pf(omega0)| = 1
        p = random_int_gl4(np.random.default_rng(seed), bound=6)
        assert _outcomes(*_pulled_back(p, W0, f)) == _outcomes(W0, f)
