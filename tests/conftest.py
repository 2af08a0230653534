import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from branekit.exterior4 import Form2, LinearMap4, pullback_form2
from branekit.torus_forms import (
    TrigPolyFn,
    TrigPolyForm2,
    standard_brane,
    standard_kahler,
    standard_symplectic,
)

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def random_int_gl4(rng, bound=2):
    """A random integer 4x4 matrix with positive determinant."""
    while True:
        m = rng.integers(-bound, bound + 1, size=(4, 4))
        det = round(np.linalg.det(m))
        if det > 0:
            return LinearMap4.from_rows(m.tolist())


def random_brane_pair(rng):
    """Pull the standard brane pair back by a random orientation-preserving
    integer linear map; stays an exact brane pair."""
    p = random_int_gl4(rng)
    omega = pullback_form2(p, standard_symplectic())
    f = pullback_form2(p, standard_brane())
    kahler = pullback_form2(p, standard_kahler())
    return omega, f, kahler


def random_form2(rng, bound=3) -> Form2:
    return Form2.from_coeffs(tuple(int(v) for v in rng.integers(-bound, bound + 1, size=6)))


def brane_field(k, r, p=None):
    """(omega, F): a trig-poly pointwise brane F for omega0, pulled back by
    the orientation-preserving integer map p when one is given.

    With c, s = cos, sin <k, x>, nu = e^{12} - e^{34} and any trig poly r,
    F = (c - r s) F0 + (s + r c) kappa + r nu has F ^ F = omega0 ^ omega0 and
    F ^ omega0 = 0 everywhere, and several modes per slot when r has them;
    pulling omega0, F0, kappa and nu back by p keeps both identities.
    """
    omega, f0, kahler, nu = (
        form if p is None else pullback_form2(p, form)
        for form in (standard_symplectic(), standard_brane(), standard_kahler(),
                     Form2(c12=1, c34=-1))
    )
    c, s = TrigPolyFn.mode(k, cos=1), TrigPolyFn.mode(k, sin=1)
    f = (
        (c - r * s) * TrigPolyForm2.from_constant(f0)
        + (s + r * c) * TrigPolyForm2.from_constant(kahler)
        + r * TrigPolyForm2.from_constant(nu)
    )
    return omega, f


def random_brane_field(rng, k, r):
    """:func:`brane_field` pulled back by a random orientation-preserving
    integer map."""
    return brane_field(k, r, random_int_gl4(rng))


#: a trig poly on e_2, e_3 and e_4: the frequencies of
#: ``brane_field((1, 0, 0, 0), R_234)`` span Z^4, so its walk is the whole grid
R_234 = (TrigPolyFn.mode((0, 1, 0, 0), sin=1) + TrigPolyFn.mode((0, 0, 1, 0), cos=0.5)
         + TrigPolyFn.mode((0, 0, 0, 1), sin=0.25))


#: trig polys of one to three float modes, frequencies in [-2, 2]^4
trig_polys = st.lists(
    st.builds(
        TrigPolyFn.mode,
        st.tuples(*[st.integers(-2, 2)] * 4),
        st.floats(-3, 3),
        st.floats(-3, 3),
    ),
    min_size=1,
    max_size=3,
).map(lambda fns: sum(fns, TrigPolyFn.zero()))
