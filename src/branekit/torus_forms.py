"""Differential forms on the 4-torus R^4/(2 pi Z)^4 with trigonometric
polynomial coefficients.

Coefficient functions are finite sums  f(x) = sum_k a_k cos<k, x> + b_k sin<k, x>
over integer frequency 4-vectors k.  The ring is closed under addition,
multiplication and partial derivatives, so exterior derivatives are exact
(symbolic); only point evaluation produces floats.  Frequencies are kept in a
canonical form: one entry per k, the first nonzero component of k positive,
and no sine term on k = 0.

:func:`fiber_blocks` samples forms for every check: one exact fiber when all
are constant, else the uniform grid in blocks of fixed size.  On the grid a
phase is k . x = 2 pi (k . idx) / n, fixed by the integer residue
k . idx mod n, so the walk builds no float point: it runs over integer
coordinates, made block by block from a range of flat indices, and takes
each phase's cos and sin from its residue.  When the frequencies span a
lattice of rank r < 4 the n^4 grid points take the values of n^r of them,
so the walk visits one point per class of the grid modulo that lattice
(:func:`_walk_points`), and the whole grid, in its order, only at rank 4.
Every sample is a sum over the same few frequencies (d_m of a mode
(k, a, b) is (k, b k_m, -a k_m), with the same phase), so per block the cos
and sin of the forms' distinct frequencies give all their coefficient rows
by two matrix products, taken in slices of frequencies no longer than the
rows.  A check's memory follows the block at every rank and grid; a walk is
refused only when its indices would not fit int64.  Every check reduces its
per-block values through the one NaN-safe :func:`fold_walk` (max |.| and
min, exact at the one fiber and floats on the grid), and reports the walk's
count :func:`walk_points`.

Whether I = omega^{-1} o F squares to -Id is read from the wedges alone:
I^2 + Id = 2c I + (1 - r) Id with c = F^omega / omega^omega and
r = F^F / omega^omega (:func:`_pencil_terms`), so the one guard,
:func:`check_i_square`, takes the two scalars 2c and 1 - r, free of the
frame, from the wedges a block already forms.  The 16 entries of I^2 + Id
(:func:`i_square_terms`) remain as a diagnostic of the brane report only.
The rest of the pointwise algebra of I (linear in F's coefficients, see
:func:`i_basis`) runs on the grid with no per-point I-field: the Nijenhuis
tensor, bilinear in F and its partials, is one constant (144, 24) table in
F, built once per call from ``i_basis`` and derived from the one Nijenhuis
formula (:func:`_nijenhuis_table`).

The module also hosts the integrability diagnostics:

* the Nijenhuis defect of the candidate complex structure over a grid, with
  exact derivatives taken from the symbolic d_m F (no step size);
* the residual of the identity

      omega((L_{IY} I - I L_Y I)(X), .) = (i_{IY} dF)(X, .) + (i_Y dF)(I X, .)

  which ties the Lie-derivative expression, computed on purpose by central
  differences of step h so that its O(h^2) convergence can be checked, to the
  exact exterior derivative, providing an independent cross-check.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotPointwiseBrane, WalkTooLarge
from .exterior4 import (
    BIVECTOR_SLOTS,
    Form2,
    compose_i,
    exact_div,
    half,
    inverse_times,
    is_exact,
    matrix_of_form2,
    max_abs,
    wedge,
)

ZERO_K = (0, 0, 0, 0)

#: trivector slot order used by TrigPolyForm3 (1-based index triples a < b < c)
TRIVECTOR_SLOTS = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))


def _canonical_modes(raw):
    """Merge duplicate frequencies and normalise signs; drop zero modes."""
    acc = {}
    for k, a, b in raw:
        k = tuple(int(ki) for ki in k)
        lead = next((ki for ki in k if ki != 0), 0)
        if lead < 0:
            k = tuple(-ki for ki in k)
            b = -b
        if k == ZERO_K:
            b = 0 * b
        a0, b0 = acc.get(k, (0, 0))
        acc[k] = (a0 + a, b0 + b)
    items = []
    for k in sorted(acc):
        a, b = acc[k]
        if a == 0 and b == 0:
            continue
        items.append((k, a, b))
    return tuple(items)


@dataclass(frozen=True)
class TrigPolyFn:
    """A real trigonometric polynomial on the 4-torus."""

    modes: tuple = ()

    @classmethod
    def constant(cls, c):
        return cls(_canonical_modes([(ZERO_K, c, 0)]))

    @classmethod
    def mode(cls, k, cos=0, sin=0):
        return cls(_canonical_modes([(tuple(k), cos, sin)]))

    @classmethod
    def zero(cls):
        return cls()

    @property
    def is_constant(self):
        return all(k == ZERO_K for k, _, _ in self.modes)

    @property
    def constant_term(self):
        for k, a, _ in self.modes:
            if k == ZERO_K:
                return a
        return 0

    def coefficient_norm(self):
        """Sum of |a| + |b| over modes; an upper bound for the sup norm,
        zero exactly when the function is zero."""
        return sum(abs(a) + abs(b) for _, a, b in self.modes)

    def __add__(self, other):
        if not isinstance(other, TrigPolyFn):
            other = TrigPolyFn.constant(other)
        return TrigPolyFn(_canonical_modes(list(self.modes) + list(other.modes)))

    __radd__ = __add__

    def __neg__(self):
        return TrigPolyFn(tuple((k, -a, -b) for k, a, b in self.modes))

    def __sub__(self, other):
        return self + (-other if isinstance(other, TrigPolyFn) else TrigPolyFn.constant(-other))

    def __mul__(self, other):
        if not isinstance(other, TrigPolyFn):
            if not isinstance(other, (int, float, Fraction)):
                return NotImplemented
            scaled = ((k, other * a, other * b) for k, a, b in self.modes)
            # a mode scaled to zero is dropped, as _canonical_modes drops it
            return TrigPolyFn(tuple((k, a, b) for k, a, b in scaled if a != 0 or b != 0))
        h = half(is_exact(*(v for _, a, b in self.modes + other.modes for v in (a, b))))
        raw = []
        for k1, a1, b1 in self.modes:
            for k2, a2, b2 in other.modes:
                kp = tuple(x + y for x, y in zip(k1, k2))
                km = tuple(x - y for x, y in zip(k1, k2))
                # cos cos, sin sin -> cosines; cross terms -> sines
                raw.append((km, h * (a1 * a2 + b1 * b2), h * (b1 * a2 - a1 * b2)))
                raw.append((kp, h * (a1 * a2 - b1 * b2), h * (a1 * b2 + b1 * a2)))
        return TrigPolyFn(_canonical_modes(raw))

    __rmul__ = __mul__

    def derivative(self, i):
        """Partial derivative along coordinate i (0-based), the one-term
        case of :func:`_partials_sum`."""
        return _partials_sum((self,), ((0, i, 1),))

    def eval(self, x):
        total = 0.0
        for k, a, b in self.modes:
            phase = sum(ki * xi for ki, xi in zip(k, x))
            total += a * math.cos(phase) + b * math.sin(phase)
        return total

    def eval_grid(self, pts):
        """Evaluate at an (N, 4) array of points; returns shape (N,)."""
        out = np.zeros(len(pts))
        for k, a, b in self.modes:
            phase = pts @ np.asarray(k, dtype=float)
            out += float(a) * np.cos(phase) + float(b) * np.sin(phase)
        return out


def _as_fn(value):
    return value if isinstance(value, TrigPolyFn) else TrigPolyFn.constant(value)


@dataclass(frozen=True)
class _TrigPolyForm:
    """A trig-poly form; forms of different degree are never equal."""

    c: tuple  # TrigPolyFn, one per slot

    @classmethod
    def from_fns(cls, fns):
        return cls(tuple(_as_fn(f) for f in fns))

    def eval_grid(self, pts):
        """Coefficients at an (N, 4) array of points; returns (N, slots)."""
        return np.stack([fn.eval_grid(pts) for fn in self.c], axis=1)


class TrigPolyForm1(_TrigPolyForm):
    """A 1-form: 4 TrigPolyFn, slots e^1..e^4."""


class TrigPolyForm2(_TrigPolyForm):
    """A 2-form: 6 TrigPolyFn, slot order BIVECTOR_SLOTS."""

    @classmethod
    def from_constant(cls, f: Form2):
        return cls.from_fns(f.coeffs)

    def __add__(self, other):
        return TrigPolyForm2(tuple(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other):
        return TrigPolyForm2(tuple(a - b for a, b in zip(self.c, other.c)))

    def __mul__(self, s):
        return TrigPolyForm2(tuple(fn * s for fn in self.c))

    __rmul__ = __mul__


class TrigPolyForm3(_TrigPolyForm):
    """A 3-form: 4 TrigPolyFn, slot order TRIVECTOR_SLOTS."""

    def coefficient_norm(self):
        return max_abs(fn.coefficient_norm() for fn in self.c)


#: slot ab of d of a 1-form: the (input slot, partial, sign) terms +d_a c_b, -d_b c_a
_D_OF_1FORM = tuple(((b - 1, a - 1, 1), (a - 1, b - 1, -1)) for a, b in BIVECTOR_SLOTS)

#: slot abc of d of a 2-form: the terms +d_a c_bc, -d_b c_ac, +d_c c_ab
_D_OF_2FORM = tuple(
    tuple((BIVECTOR_SLOTS.index(pair), axis - 1, sign)
          for pair, axis, sign in (((b, c), a, 1), ((a, c), b, -1), ((a, b), c, 1)))
    for a, b, c in TRIVECTOR_SLOTS
)


def _partials_sum(fns, terms):
    """The sum of sign * d_i fns[s] over ``terms`` (s, i, sign), merged once.

    d_i of a mode (k, a, b) is (k, b k_i, -a k_i), and the sign multiplies
    k_i, which is exact.  A term whose two values are zero (k_i = 0, for
    finite coefficients) is skipped, as ``derivative`` drops it, and a
    frequency whose running sum reaches zero is dropped at once, as each
    ``+`` or ``-`` between the partials drops it.  So for functions with
    canonical modes every value has the bits and type of the chain
    ``derivative(i) - derivative(j) + ...``.
    """
    acc = {}
    for s, i, sign in terms:
        for k, a, b in fns[s].modes:
            ki = sign * k[i]
            da, db = b * ki, -a * ki
            if da == 0 and db == 0:
                continue
            if k < ZERO_K:  # a leading negative component, as _canonical_modes flips it
                k, db = tuple(-v for v in k), -db
            old = acc.get(k)
            if old is None:
                acc[k] = (0 + da, 0 + db)
                continue
            da, db = old[0] + da, old[1] + db
            if da == 0 and db == 0:
                del acc[k]
            else:
                acc[k] = (da, db)
    return TrigPolyFn(tuple((k, a, b) for k, (a, b) in sorted(acc.items())))


def exterior_d(form):
    """Exact exterior derivative of a trig-poly function, 1-form or 2-form;
    each slot of d of a form is one merge of its partials' modes."""
    if isinstance(form, TrigPolyFn):
        return TrigPolyForm1(tuple(form.derivative(i) for i in range(4)))
    if isinstance(form, TrigPolyForm1):
        return TrigPolyForm2(tuple(_partials_sum(form.c, terms) for terms in _D_OF_1FORM))
    if isinstance(form, TrigPolyForm2):
        return TrigPolyForm3(tuple(_partials_sum(form.c, terms) for terms in _D_OF_2FORM))
    raise TypeError(f"no exterior derivative for {type(form).__name__}")


def eval_at(f: TrigPolyForm2, x) -> Form2:
    """Pointwise Fourier evaluation of a trig-poly 2-form."""
    return Form2.from_coeffs(tuple(fn.eval(x) for fn in f.c))


def uniform_grid(n: int):
    """The n^4 uniform grid on [0, 2 pi)^4 as an (n^4, 4) float array, in
    the order :func:`fiber_blocks` walks it at rank 4 (without building it)."""
    axis = 2 * math.pi * np.arange(n) / n
    # views of the axis, so the stacked output is the only n^4 allocation
    mesh = np.meshgrid(axis, axis, axis, axis, indexing="ij", copy=False)
    return np.stack(mesh, axis=-1).reshape(-1, 4)


# --- canonical constant forms on the torus ---------------------------------


def standard_symplectic() -> Form2:
    """dx1^dy2 + dy1^dx2, the symplectic form of the standard brane pair."""
    return Form2(c14=1, c23=1)


def standard_brane() -> Form2:
    """dx1^dx2 - dy1^dy2, a spacefilling brane for standard_symplectic()."""
    return Form2(c13=1, c24=-1)


def standard_kahler() -> Form2:
    """dx1^dy1 + dx2^dy2, the compatible positive (1,1) form."""
    return Form2(c12=1, c34=1)


def rotation_family(k) -> TrigPolyForm2:
    """cos<k, x> * standard_brane + sin<k, x> * standard_kahler.

    Satisfies the pointwise wedge conditions of a brane everywhere (by
    cos^2 + sin^2 = 1) but is closed only for k = 0, which makes it the
    canonical non-integrable test family.
    """
    c = TrigPolyFn.mode(k, cos=1)
    s = TrigPolyFn.mode(k, sin=1)
    return c * TrigPolyForm2.from_constant(standard_brane()) + s * TrigPolyForm2.from_constant(
        standard_kahler()
    )


def as_trig(f) -> TrigPolyForm2:
    """f as a trig-poly 2-form; a constant Form2 becomes the constant field."""
    return TrigPolyForm2.from_constant(f) if isinstance(f, Form2) else f


#: walked points per block of :func:`fiber_blocks`: the work arrays follow
#: the block (at most about 6.2 MiB at 4096 points, most of it the 144
#: products of :func:`nijenhuis_defect`) at every rank and grid, not the
#: grid^r points walked; a walk's cos/sin tables are no longer than a block
CHUNK_POINTS = 4096


def constant_coeffs(form):
    """The exact coefficients of a constant form, None for a non-constant one."""
    if isinstance(form, Form2):
        return form.coeffs
    if all(fn.is_constant for fn in form.c):
        return tuple(fn.constant_term for fn in form.c)
    return None


def _phase_tables(fns):
    """The shared frequencies of ``fns`` and the coefficients on them.

    Returns (freqs, ca, sb): freqs the distinct frequencies as integer
    4-tuples, and ca, sb the (len(fns), len(freqs)) cosine and sine
    coefficients of every function on them, so each function's values are
    ca @ cos(freqs . x) + sb @ sin(freqs . x).
    """
    cols = {}
    for fn in fns:
        for k, _, _ in fn.modes:
            cols.setdefault(k, len(cols))
    ca, sb = ([[0.0] * len(cols) for _ in fns] for _ in range(2))
    for ca_row, sb_row, fn in zip(ca, sb, fns):
        for k, a, b in fn.modes:
            ca_row[cols[k]], sb_row[cols[k]] = float(a), float(b)
    return list(cols), np.array(ca), np.array(sb)


def _trig(j, table, m, phase, out):
    """The cos (j = 0) or sin (j = 1) of a block's phases into ``out``:
    read from table[j] at the residue sums m, or taken of the phases
    themselves when there is no table."""
    if table is None:
        return (np.cos, np.sin)[j](phase, out=out)
    # m is in range; unlike "raise", "clip" fills out unbuffered
    return np.take(table[j], m, out=out, mode="clip")


def _sample_block(flat, grid, table, tables, slots):
    """The values of every function of :func:`_phase_tables` at the walk
    points of the flat indices ``flat`` (a range), computed as one
    C-contiguous (len(fns), n) array: each ``slice`` of ``slots`` becomes
    that form's rows, any other slot is passed through.

    A flat index's digits in base grid, the last fastest, are its walk
    coordinates a in (Z/grid)^r.  ``tables`` holds the (w, ca, sb) of every
    slice of frequencies, w their residue columns of :func:`_walk_points`,
    so a frequency's phase at a is 2 pi m / grid with m = w . a mod grid.
    ``table`` holds the cos and sin of 2 pi (j mod grid) / grid for every
    sum j = w . a can take, read at w . a itself; when it is None, w . a
    is reduced mod grid and the cos and sin are taken of the block's own
    phases (:func:`_trig`).  Either way they are those of the axis values
    2 pi m / grid of :func:`uniform_grid` bit for bit.

    The coordinates, residues, phases and gathered cos and sin are views of
    one work array that every slice reuses through ``out=``; it is freed on
    return, so it is not held while the caller works on the rows, which are
    new arrays.
    """
    (w0, ca0, _), n = tables[0], len(flat)  # the first slice is the longest
    r, cols, height = w0.shape[1], len(w0), len(ca0)
    work = np.empty((height + 2 * cols + r) * n)
    floats, ints = work[:height * n], work[height * n:(height + cols) * n].view(np.intp)
    gathered, a = work[(height + cols) * n:-r * n], work[-r * n:].view(w0.dtype).reshape(r, n)
    q = np.arange(flat.start, flat.stop)
    for i in range(r - 1, 0, -1):  # the digits, the last fastest
        np.divmod(q, grid, out=(q, a[i]))
    a[0] = q
    rows = 0.0
    for w, ca, sb in tables:
        m, g, phase = (v[:len(w) * n].reshape(-1, n) for v in (ints, gathered, floats))
        if table is None:
            np.matmul(w, a, out=m)
            np.remainder(m, grid, out=m)
            np.multiply(m, 2 * math.pi, out=phase)
            np.divide(phase, grid, out=phase)
        else:
            np.matmul(w, a, out=phase)  # small integers: exact
            np.copyto(m, phase, casting="unsafe")
        # 0.0 + (cos part + sin part) are eval_grid's own operations, so a
        # function of one mode gets a cos + b sin of its phase bit for bit
        part = ca @ _trig(0, table, m, phase, g)
        part += np.matmul(sb, _trig(1, table, m, phase, g), out=floats.reshape(height, n))
        part += rows  # in place: no second array of rows
        rows = part
    return tuple(rows[s] if isinstance(s, slice) else s for s in slots)


def _frequency_lattice(freqs):
    """(u, r) for integer frequencies ``freqs`` (K, 4): u a unimodular
    integer 4x4 matrix (a list of rows) with freqs @ u zero beyond column r,
    and r the rank of ``freqs``.

    A column echelon form by integer column operations (swaps and adding
    integer multiples of one column to another), applied to freqs @ u and
    u together: each row in turn has its columns r.. reduced by Euclid's
    algorithm to one pivot, moved to column r.  Later operations only mix
    columns past the pivots, so the rows done stay zero there.  The rows
    are taken in sorted order, so u depends on the set of frequencies only.
    """
    au = sorted([int(v) for v in k] for k in freqs)
    u = [[int(i == j) for j in range(4)] for i in range(4)]
    r = 0
    for row in au:
        while r < 4:
            live = [j for j in range(r, 4) if row[j]]
            if not live:
                break
            p = min(live, key=lambda j: abs(row[j]))
            for m in au + u:
                m[r], m[p] = m[p], m[r]
            if len(live) == 1:
                r += 1
                break
            for j in range(r + 1, 4):
                q = row[j] // row[r]
                for m in au + u:
                    m[j] -= q * m[r]
    return u, r


def _walk_points(grid, freqs):
    """The walk of :func:`fiber_blocks` for the integer frequencies ``freqs``,
    as the (K, r) int64 matrix w of their phase residues, entries in
    [0, grid).

    The walk's points are the integer coordinates a in (Z/grid)^r, in
    lexicographic order, and frequency k has the phase 2 pi m / grid at a,
    with m = w_k . a mod grid.  With (u, r) of :func:`_frequency_lattice`,
    idx = u idx' is a bijection of the grid indices (Z/grid)^4 and
    k . idx = (k u) . idx' depends on idx'_1..r only, so w = k u[:, :r]
    mod grid (reduced in Python ints: u's entries may exceed int64) and the
    grid^r points meet every class of the grid modulo the lattice.  At rank
    4, u is the identity, so a is the grid index itself and the walk is the
    whole grid in the order of :func:`uniform_grid`.  A pivot sharing a
    factor with grid leaves some classes walked more than once, which
    changes no maximum.

    Raises WalkTooLarge when an integer of the walk would not fit int64:
    its flat indices, below grid^r, or its residue sums w_k . a, at most
    r (grid - 1)^2.  Nothing else bounds a walk, whose arrays follow the
    block.
    """
    u, r = _frequency_lattice(freqs)
    if max(grid ** r, r * (grid - 1) ** 2) > np.iinfo(np.int64).max:
        raise WalkTooLarge(f"a walk of {grid}^{r} grid points does not fit the int64 "
                           f"range of its indices and residues")
    if r == 4:
        return np.array([[v % grid for v in k] for k in freqs], dtype=np.int64)
    return np.array([[sum(ki * row[j] for ki, row in zip(k, u)) % grid for j in range(r)]
                     for k in freqs], dtype=np.int64)


def fiber_blocks(grid: int, *forms):
    """Sample ``forms`` (Form2 or trig-poly forms) fiber by fiber.

    When every form is constant, yields one block of their exact
    coefficients.  Otherwise walks the integer coordinates of
    :func:`_walk_points`, one point per class of the grid of
    :func:`uniform_grid` modulo the lattice of the forms' frequencies
    (grid^r points at rank r, the whole grid at rank 4), in blocks of
    CHUNK_POINTS points made from their range of flat indices; no float
    point is built.  A phase on the grid is 2 pi m / grid for an integer
    residue m, so every point of a class takes the same values, and the
    maxima and minima over the walk are those over the grid.  The distinct
    frequencies of all the non-constant forms are collected once per call,
    with one table of cos and sin over the residue sums when it is no
    longer than a block; per block the phases' cos and sin give every
    coefficient row at once, and each non-constant form gets its (rows, n)
    slice of that C-contiguous array.  The frequency axis is walked in
    slices no longer than the rows, so the phases never outgrow the rows
    they produce; their work arrays are views of one array per block, freed
    before the block is yielded (:func:`_sample_block`).  A constant form
    gives its float coefficients, which broadcast exactly as
    their grid values would.  ``grid`` must be at least 1, also when every
    form is constant.
    """
    if grid < 1:
        raise ValueError(f"grid must be at least 1, got {grid}")
    consts = [constant_coeffs(form) for form in forms]
    if all(c is not None for c in consts):
        yield tuple(consts)
        return
    fns, slots = [], []
    for form, c in zip(forms, consts):
        if c is None:
            slots.append(slice(len(fns), len(fns) + len(form.c)))
            fns += form.c
        else:
            slots.append([float(v) for v in c])
    freqs, ca, sb = _phase_tables(fns)
    w = _walk_points(grid, freqs)
    r = w.shape[1]
    total, span = grid ** r, r * (grid - 1) ** 2 + 1  # w . a < span
    table = None
    if span <= CHUNK_POINTS:
        angle = 2 * math.pi * (np.arange(span) % grid) / grid
        table, w = (np.cos(angle), np.sin(angle)), w.astype(float)  # BLAS, exact
    step = len(fns)
    tables = [(w[j:j + step], ca[:, j:j + step], sb[:, j:j + step])
              for j in range(0, len(freqs), step)]
    for start in range(0, total, CHUNK_POINTS):
        # no local keeps the samples, so a caller's del frees them
        yield _sample_block(range(start, min(start + CHUNK_POINTS, total)), grid, table, tables,
                            slots)


def walk_points(grid: int, *forms):
    """The grid points a walk of :func:`fiber_blocks` stands for, the
    ``grid_used`` of a report: 1 at the one fiber of constant forms, else
    grid^4 (also when the walk visits one point per class)."""
    return 1 if all(constant_coeffs(form) is not None for form in forms) else grid ** 4


def fold_walk(grid: int, per_block, *forms):
    """Max |value| and min value of ``per_block``'s values over the walk of
    ``fiber_blocks(grid, *forms)``.

    ``per_block(*samples)`` maps one block to (peaks, lows), two lists of
    values: arrays, which are the fold's own (it takes a peak's |.| in
    place), or scalars, such as a constant form's wedge; a peak may also be
    a list of scalars, reduced together.  Returns the two lists folded over
    the walk, max |peak| and min low.  At the one fiber of constant forms
    each value keeps its own type, so exact values stay exact; on the grid
    each is a float.  A NaN anywhere gives NaN (a tie keeps the first value
    met).  Each block is reduced, and dropped, before the next one is
    sampled, so memory follows the block.
    """
    exact, folded = all(constant_coeffs(form) is not None for form in forms), None
    for samples in fiber_blocks(grid, *forms):
        peaks, lows = per_block(*samples)
        del samples  # with the values, freed before the next block is sampled
        lows = [v.min() if isinstance(v, np.ndarray) else v for v in lows]
        peaks = [np.abs(p, out=p).max() if isinstance(p, np.ndarray)
                 else max_abs(p) if isinstance(p, list) else abs(p) for p in peaks]
        if exact:  # the one fiber: one block
            return peaks, lows
        peaks, lows = [float(p) for p in peaks], [float(v) for v in lows]
        if folded:  # the rules of max_abs, and of min with a NaN first: a NaN sticks
            peaks = [b if b > a or b != b else a for a, b in zip(folded[0], peaks)]
            lows = [b if b < a or b != b else a for a, b in zip(folded[1], lows)]
        folded = peaks, lows
    return folded


#: the matrices B_{e^ab} of the six basis bivectors, shape (6, 4, 4)
_UNIT_BIVECTORS = np.array([matrix_of_form2(Form2.from_coeffs(row)) for row in np.eye(6)])


def i_basis(omega: Form2, tol: float = 1e-12):
    """omega^{-1} o e^{ab} for the six basis bivectors, as a (6, 16) array.

    I = omega^{-1} o F is linear in the six coefficients of F, so I at a
    point is the one contraction ``coeff @ basis`` of F's coefficients with
    this basis (row-major 4x4), and the same contraction of the coefficients
    of d_m F gives d_m I exactly; raises NonDegenerateRequired when omega
    fails ``check_omega`` at tol (the default is compose_i's).
    """
    inverse = np.array(inverse_times(omega, np.eye(4).tolist(), tol))
    return (inverse @ _UNIT_BIVECTORS).reshape(6, 16)


def i_entries(omega: Form2, f, tol: float = 1e-12):
    """The map from a block of f's samples (:func:`fiber_blocks`) to the 16
    row-major entries of I = omega^{-1} o F there: the exact ones of
    compose_i at the one fiber of a constant f, else the rows contracted
    with :func:`i_basis`, built once here.  NonDegenerateRequired when omega
    fails ``check_omega`` at tol: at once on the grid, on the call at the
    fiber."""
    if constant_coeffs(f) is not None:
        return lambda fc: [e for row in compose_i(omega, Form2.from_coeffs(fc), tol).m for e in row]
    return functools.partial(np.matmul, i_basis(omega, tol).T)


def _pencil_terms(w_ff, w_fo, w_oo):
    """2c and 1 - r of I^2 + Id = 2c I + (1 - r) Id from the wedges ``w_ff``
    = F^F, ``w_fo`` = F^omega and ``w_oo`` = omega^omega, exact when all
    three are and one value per fiber for rows.

    In dimension 4, Cayley-Hamilton for the Pfaffian pencil pf(F - t omega)
    gives I^2 = 2c I - r Id with c = (F^omega)/(omega^omega) and
    r = (F^F)/(omega^omega).  With 2c not 0, I^2 + Id = 0 would make I a
    real multiple of Id, whose square is not -Id; so I^2 = -Id exactly when
    both terms vanish.
    """
    return exact_div(2 * w_fo, w_oo), 1 - exact_div(w_ff, w_oo)


def i_square_terms(i_entries, w_ff, w_fo, w_oo):
    """The 16 row-major entries of I^2 + Id from I's entries and the
    :func:`_pencil_terms` of the wedges, with no I @ I.

    Plain arithmetic like :func:`wedge`: the exact entries of compose_i at
    one fiber give exact values, and entries that are arrays with one value
    per fiber give each fiber's values with the same bits; the (16, n) rows
    ``basis.T @ f_rows`` of a grid block are scaled in place.
    """
    two_c, diag = _pencil_terms(w_ff, w_fo, w_oo)
    if isinstance(i_entries, np.ndarray):
        i_entries *= two_c
        i_entries[::5] += diag  # the diagonal rows 0, 5, 10, 15
        return i_entries
    return [two_c * e + (diag if k % 5 == 0 else 0) for k, e in enumerate(i_entries)]


def check_i_square(w_ff, w_fo, w_oo, tol):
    """Raise NotPointwiseBrane unless max(|2c|, |1 - r|) of a block's wedges
    (:func:`_pencil_terms`) is at most max(tol, 1e-9): the one I^2 = -Id
    guard of the checks that need a complex structure.  The two scalars do
    not depend on the frame, and the wedges passing a brane verdict bound
    them by tol.  The floor keeps rounding from refusing a brane at tol 0.
    A NaN fails.
    """
    bound = max(tol, 1e-9)
    peak = max_abs(t if is_exact(t) else np.abs(t).max() for t in _pencil_terms(w_ff, w_fo, w_oo))
    if not peak <= bound:
        raise NotPointwiseBrane(f"I^2 + Id = 2c I + (1 - r) Id has max(|2c|, |1 - r|) "
                                f"{float(peak):.3e} > {bound:.1e}")


def _nijenhuis_tensor(i_mats, d_i):
    """N(e_i, e_j) components from I (n, 4, 4) and d_i (4, n, 4, 4), d_i[m] = d_m I.

    N[k, i, j] = A[k, i, j] - A[k, j, i] with
    A[k, i, j] = I[m, j] d_m I[k, i] + I[k, m] d_i I[m, j]  (sum over m);
    each of the two sums is one batched matrix product over the points.
    """
    n = len(i_mats)
    a = (d_i.transpose(1, 2, 3, 0).reshape(n, 16, 4) @ i_mats).reshape(n, 4, 4, 4)
    a += (i_mats @ d_i.transpose(1, 2, 0, 3).reshape(n, 4, 16)).reshape(n, 4, 4, 4)
    return a - a.transpose(0, 1, 3, 2)


def _nijenhuis_table(basis):
    """N as a constant (144, 24) table, bilinear in F and its partials.

    For a constant omega, I = sum_p F_p B_p and d_m I = sum_q (d_m F)_q B_q
    with B_p the rows of ``basis``, and N is bilinear in (I, d I).  Row
    24 p + 6 m + q is :func:`_nijenhuis_tensor` at I = B_p, d_m I = B_q (the
    other partials zero); column 6 k + s is N[k, i, j] for the s-th pair
    i < j of ``np.triu_indices(4, 1)`` (N is antisymmetric in i, j).  So
    the 24 components at a point are the table's transpose applied to the
    144 products F_p (d_m F)_q.
    """
    b = basis.reshape(6, 4, 4)
    d_i = np.zeros((4, 6, 4, 6, 4, 4))  # [m', p, m, q] = B_q if m' == m
    for m in range(4):
        d_i[m, :, m] = b
    n_tensor = _nijenhuis_tensor(np.repeat(b, 24, axis=0), d_i.reshape(4, 144, 4, 4))
    i, j = np.triu_indices(4, 1)
    return n_tensor[:, :, i, j].reshape(144, 24)


def nijenhuis_defect(omega: Form2, f, grid: int = 8, tol: float = 1e-9):
    """(max Nijenhuis defect, max |dF|) of I = omega^{-1} o F over a grid.

    The defect is the largest component of N(e_i, e_j) over all grid
    points and index pairs.  Its derivatives are exact: N is bilinear in F
    and the symbolic partials d_m F, so per block it is the product of the
    constant table of :func:`_nijenhuis_table` (built once per call) with
    the 144 products F_p (d_m F)_q, taken in column slices small enough for
    OpenBLAS to keep each on the calling thread, and no finite-difference
    step or per-point I-field is involved.  omega must pass
    ``check_omega`` at tol (NonDegenerateRequired, before any block), and
    every block first passes :func:`check_i_square` (NotPointwiseBrane
    otherwise).  max |dF| evaluates the exact exterior derivative pointwise on the same
    grid.  Both vanish together: the structure is integrable exactly when
    F is closed.  The grid is walked by :func:`fiber_blocks`, so the work
    arrays keep a fixed size whatever the grid (a constant F is checked at
    one fiber).
    """
    f = as_trig(f)
    table_t = _nijenhuis_table(i_basis(omega, tol)).T
    omega_rows = [float(v) for v in omega.coeffs]
    w_oo = wedge(omega_rows, omega_rows)
    # OpenBLAS splits a product whose M*N*K passes 4 * 65536 over threads;
    # contracted in column slices below that, the table stays on this thread
    step = 4 * 65536 // table_t.size
    partials = [TrigPolyForm2(tuple(fn.derivative(m) for fn in f.c)) for m in range(4)]

    def block(*rows):
        # (slots, n) float rows; a constant (zero) partial is (6, 1) and broadcasts
        fc, *d_f, d_form = (np.asarray(r, dtype=float).reshape(len(r), -1) for r in rows)
        check_i_square(wedge(fc, fc), wedge(fc, omega_rows), w_oo, tol)
        prod = np.empty((6, 4, 6, fc.shape[1]))  # F_p (d_m F)_q at [p, m, q]
        for m, d in enumerate(d_f):
            np.multiply(fc[:, None], d, out=prod[:, m])
        prod = prod.reshape(144, -1)
        slices = (table_t @ prod[:, j:j + step] for j in range(0, prod.shape[1], step))
        return [max_abs(np.abs(n, out=n).max() for n in slices), np.abs(d_form).max()], []

    return tuple(float(v) for v in fold_walk(grid, block, f, *partials, exterior_d(f))[0])


def integrability_identity_residual(
    omega: Form2, f, x, h: float = 1e-4, tol: float = 1e-9
) -> float:
    """Residual of the Lie-derivative vs exterior-derivative identity at x.

    Compares omega((L_{I e_j} I - I L_{e_j} I)(e_i), e_k), with the Lie
    derivatives computed by central differences, against
    dF(I e_j, e_i, e_k) + dF(e_j, I e_i, e_k) with dF exact.  The two
    sides agree up to the O(h^2) finite-difference error.  Refuses omega
    and I at x as :func:`nijenhuis_defect` does.
    """
    f = as_trig(f)
    # x, then x + h e_m and x - h e_m for m = 0..3
    steps = np.concatenate([np.zeros((1, 4)), h * np.eye(4), -h * np.eye(4)])
    basis = i_basis(omega, tol)
    coeff = f.eval_grid(np.asarray(x, dtype=float) + steps)
    omega_rows = [float(v) for v in omega.coeffs]
    check_i_square(wedge(coeff[0], coeff[0]), wedge(coeff[0], omega_rows),
                   wedge(omega_rows, omega_rows), tol)
    i_mats = (coeff @ basis).reshape(-1, 4, 4)
    d_i = (i_mats[1:5] - i_mats[5:]) / (2.0 * h)
    n_tensor = _nijenhuis_tensor(i_mats[:1], d_i[:, None])[0]
    i_mat = i_mats[0]

    # left side: omega(N(e_i, e_j), e_k) = sum_m N[m, i, j] B[m, k]
    b_omega = np.array(matrix_of_form2(omega), dtype=float)
    lhs = np.einsum("mij,mk->ijk", n_tensor, b_omega)

    # right side from the exact exterior derivative
    df = exterior_d(f)
    t = np.zeros((4, 4, 4))
    for (a, b, c), fn in zip(TRIVECTOR_SLOTS, df.c):
        val = fn.eval(x)
        for (p, q, r), sign in (
            ((a, b, c), 1), ((b, c, a), 1), ((c, a, b), 1),
            ((b, a, c), -1), ((a, c, b), -1), ((c, b, a), -1),
        ):
            t[p - 1, q - 1, r - 1] = sign * val
    rhs = np.einsum("mj,mik->ijk", i_mat, t) + np.einsum("mi,jmk->ijk", i_mat, t)
    return float(np.abs(lhs - rhs).max())
