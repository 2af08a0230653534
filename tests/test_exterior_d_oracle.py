"""``exterior_d`` against the exterior derivative from before it merged each
slot once.

``pre_change_exterior_d`` and the ``derivative`` it calls are kept verbatim
as the oracle: every mode of every slot of d must match in frequency, value,
type and ``repr``, so signed zeros, last bits and int/Fraction/float types
all count.  ``TrigPolyFn.derivative``, now the one-term merge of d, is
held to ``pre_change_derivative`` the same way.

The same spelling pins the one merge of every ``TrigPolyFn``: merging a
list of modes once equals the pairwise ``+`` of its one-mode functions,
and every result of the arithmetic and of ``exterior_d`` is canonical and
holds no ``-0.0``.
"""

import math
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from branekit.exterior4 import BIVECTOR_SLOTS
from branekit.torus_forms import (
    TRIVECTOR_SLOTS,
    TrigPolyFn,
    TrigPolyForm1,
    TrigPolyForm2,
    TrigPolyForm3,
    ZERO_K,
    _canonical_modes,
    exterior_d,
)

# --- the pre-change implementation, verbatim ----------------------------------


def pre_change_derivative(self, i):
    """Partial derivative along coordinate i (0-based)."""
    return TrigPolyFn(
        _canonical_modes([(k, b * k[i], -a * k[i]) for k, a, b in self.modes])
    )


def pre_change_exterior_d(form):
    """Exact exterior derivative of a trig-poly function, 1-form or 2-form."""
    if isinstance(form, TrigPolyFn):
        return TrigPolyForm1(tuple(pre_change_derivative(form, i) for i in range(4)))
    if isinstance(form, TrigPolyForm1):
        out = []
        for a, b in BIVECTOR_SLOTS:
            # d(c_b e^b) picks up +d_a c_b e^{ab}; d(c_a e^a) picks up -d_b c_a
            out.append(pre_change_derivative(form.c[b - 1], a - 1)
                       - pre_change_derivative(form.c[a - 1], b - 1))
        return TrigPolyForm2(tuple(out))
    if isinstance(form, TrigPolyForm2):
        slot = {ab: fn for ab, fn in zip(BIVECTOR_SLOTS, form.c)}
        out = []
        for a, b, c in TRIVECTOR_SLOTS:
            out.append(
                pre_change_derivative(slot[(b, c)], a - 1)
                - pre_change_derivative(slot[(a, c)], b - 1)
                + pre_change_derivative(slot[(a, b)], c - 1)
            )
        return TrigPolyForm3(tuple(out))
    raise TypeError(f"no exterior derivative for {type(form).__name__}")


# --- the comparison -----------------------------------------------------------


def spelled_fn(fn):
    """Every mode of a function as (k, type and repr of each value)."""
    return [(k, type(a), repr(a), type(b), repr(b)) for k, a, b in fn.modes]


def spelled(form):
    """Every mode of every slot, as :func:`spelled_fn` gives it."""
    return type(form), [spelled_fn(fn) for fn in form.c]


#: coefficients of every scalar type, with signed zeros and extreme floats;
#: few distinct values and frequencies, so slots share frequencies and
#: their partials cancel or meet other types
values = st.one_of(
    st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 3), Fraction(0),
                     0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e-300, 1e300, -1e300]),
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.floats(-3, 3),
)
frequencies = st.tuples(*[st.integers(-1, 1)] * 4)
fns = st.lists(st.tuples(frequencies, values, values), max_size=4).map(
    lambda raw: TrigPolyFn(_canonical_modes(raw))
)
form1s = st.lists(fns, min_size=4, max_size=4).map(TrigPolyForm1.from_fns)
form2s = st.lists(fns, min_size=6, max_size=6).map(TrigPolyForm2.from_fns)


@given(st.one_of(form1s, form2s))
def test_d_matches_the_pre_change_d(form):
    assert spelled(exterior_d(form)) == spelled(pre_change_exterior_d(form))


@given(fns)
def test_gradient_matches_the_pre_change_d(fn):
    assert spelled(exterior_d(fn)) == spelled(pre_change_exterior_d(fn))
    for i in range(4):
        assert spelled_fn(fn.derivative(i)) == spelled_fn(pre_change_derivative(fn, i))


def test_a_cancelled_pair_does_not_pass_its_type_on():
    # slot 123 of d is d_1 c_23 - d_2 c_13 + d_3 c_12: at k = (1, 1, 1, 0) the
    # float parts of c_23 and c_13 cancel exactly, so the frequency is
    # dropped before the int part of c_12 arrives, which stays an int
    k = (1, 1, 1, 0)
    slots = {(2, 3): TrigPolyFn.mode(k, cos=1.0), (1, 3): TrigPolyFn.mode(k, cos=1.0),
             (1, 2): TrigPolyFn.mode(k, cos=2)}
    form = TrigPolyForm2.from_fns([slots.get(ab, 0) for ab in BIVECTOR_SLOTS])
    new, old = exterior_d(form), pre_change_exterior_d(form)
    assert spelled(new) == spelled(old)
    assert new.c[0].modes == ((k, 0, -2),) and type(new.c[0].modes[0][2]) is int


def test_nan_modes_stay():
    fn = TrigPolyFn.mode((1, 0, 0, 0), cos=float("nan"))
    form = TrigPolyForm2.from_fns([fn, 0, 0, fn, 0, 0])
    assert spelled(exterior_d(form)) == spelled(pre_change_exterior_d(form))
    for i in range(4):
        assert spelled_fn(fn.derivative(i)) == spelled_fn(pre_change_derivative(fn, i))


# --- the one merge ------------------------------------------------------------

#: a frequency, its negative and k = 0, so terms meet after a flip
raw_modes = st.lists(st.tuples(
    st.one_of(st.sampled_from([ZERO_K, (0, 1, -1, 0), (0, -1, 1, 0)]), frequencies),
    values, values), max_size=6)


@given(raw_modes)
@example([((1, 0, 0, 0), 1, 0), ((1, 0, 0, 0), -1.0, 0), ((1, 0, 0, 0), 2, 0)])
@example([((0, -1, 1, 0), 1, 0), ((0, -1, 1, 0), -1.0, 0), ((0, 1, -1, 0), 2, 3)])
def test_one_merge_is_the_pairwise_sum(raw):
    # a frequency whose sum reaches zero is dropped, so its next term starts
    # afresh: both examples end in int values, where one sum at the end
    # would give floats
    total = TrigPolyFn()
    for k, a, b in raw:
        total = total + TrigPolyFn.mode(k, cos=a, sin=b)
    assert spelled_fn(TrigPolyFn.from_modes(raw)) == spelled_fn(total)


def assert_canonical(fn):
    """One entry per integer frequency, in order, the first nonzero component
    of each positive, no sine on k = 0, no zero mode and no -0.0."""
    freqs = [k for k, _, _ in fn.modes]
    assert freqs == sorted(set(freqs))
    for k, a, b in fn.modes:
        assert all(type(v) is int for v in k) and len(k) == 4 and k >= ZERO_K
        assert not (a == 0 and b == 0)
        assert k != ZERO_K or b == 0 or math.isnan(b)  # 0 * an overflowed sine
        assert all(math.copysign(1, v) > 0 for v in (a, b) if type(v) is float and v == 0)


@given(fns, fns, values, st.one_of(form1s, form2s))
@example(TrigPolyFn.mode((1, 0, 0, 0), cos=1.0, sin=0.0), TrigPolyFn(), -1.0,
         TrigPolyForm1.from_fns([0] * 4))
def test_every_result_is_canonical(f, g, c, form):
    for fn in (f + g, f - g, f * g, f * c, c * f, -f, f + c, f - c, *exterior_d(f).c,
               *exterior_d(form).c):
        assert_canonical(fn)
