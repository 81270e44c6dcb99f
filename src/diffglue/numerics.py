"""Differentiation engine and sampling plans.

Every derivative taken anywhere in the library goes through
:class:`DiffEngine`.  Its primitive is the *probe* of a vector field
``x -> [m generic scalars]`` at a point: the field's outputs at the mode's
probe inputs.  :meth:`DiffEngine.rows` reads the Jacobian off a probe,
:meth:`DiffEngine.combine` builds the probe of a field computed from other
fields' outputs without evaluating them again, and
:meth:`DiffEngine.jacobian` and :meth:`DiffEngine.gradient` (its
one-output case) are ``rows`` of a fresh probe.  Block covector fields and
their dual-side counterparts are such vector fields, so each derived field
is differentiated by one probe.  The engine offers two modes:

* ``forward_dual`` -- forward-mode dual numbers, exact to machine precision
  for the polynomial and analytic built-ins (the default); one evaluation
  on seeded duals yields the whole Jacobian;
* ``central_fd`` -- central finite differences, two evaluations per axis,
  kept as the independent cross-check (:meth:`DiffEngine.fd_cross_check`).

Dual coefficients are generic: the partials of a :class:`DualScalar` may
themselves be dual, so nesting engine calls yields exact higher-order
derivatives.  That is what the bracket-of-actions code paths rely on.
Generic values become floats only through :func:`_primal`.

Every pass bound of a sampled check is a row of :data:`TOLERANCES`, read
through :meth:`DiffConfig.tol` in the engine's mode.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DiffglueError, ModesDisagree, OutsideDomain, SingularGram

# Library-wide numeric constants.
EPS_NUM = 1e-9          # round-trip / membership tolerance
EPS_DOM = 1e-3          # domain-openness probe radius
PD_FLOOR_REL = 1e-10    # relative floor for positive-definiteness decisions
SVD_CUTOFF_REL = 1e-8   # relative singular-value cutoff for rank decisions

# Pass bound of every sampled check: row -> (forward_dual, central_fd).
TOLERANCES = {
    "suite": (1e-10, 1e-6),            # koszul, leibniz, symmetry, metric-compat
    "split": (1e-6, 1e-5),             # bracket, covderiv and torsion splits
    "inheritance": (1e-6, 1e-6),       # levi-civita-inheritance
    "uniqueness": (1e-4, 1e-4),        # koszul spot check on a perturbed connection
    "collapse": (1e-9, 1e-9),          # metric-gluing: seam value vs each side
    "gram-symmetry": (1e-12, 1e-12),   # metric-gluing: glued Gram over the locus
    "round-trip": (100 * EPS_NUM, 100 * EPS_NUM),   # fibres: rho round trip
    "metrics": (EPS_NUM * 1000, EPS_NUM * 1000),    # block metrics on the locus
    "connections": (EPS_NUM * 100, 10.0 * 1e-6),    # block connections on the locus
    "membership": (EPS_NUM, 1e-6),     # derived section values in the fibre
    "tensor-membership": (1e-6, 1e-6),  # tensor pair in the compatible square
    "glued-function": (1e-6, 1e-6),    # metric-compat: g(s,t) collapses, relative
    "probe-fibre": (1e-7, 1e-7),       # bracket-split: probe differential in the fibre
}


class DualScalar:
    """First-order dual number ``value + sum_i partials[i] * eps_i``.

    Coefficients are generic Python numbers, or float arrays holding one
    value per point (see :func:`coordinate_arrays`); a partial may itself be
    a DualScalar, which gives exact second derivatives when engines nest.
    """

    __slots__ = ("value", "partials")
    __array_ufunc__ = None   # ``ndarray op dual`` defers to the dual's reflected method

    def __init__(self, value, partials):
        self.value = value
        self.partials = tuple(partials)

    # -- arithmetic ----------------------------------------------------
    # A non-dual operand takes a fast path doing the float operations of its constant
    # dual (partials 0.0), bit for bit; the reflected methods only ever see a non-dual.
    def __add__(self, other):
        if not isinstance(other, DualScalar):
            return DualScalar(self.value + other, tuple(a + 0.0 for a in self.partials))
        return DualScalar(self.value + other.value,
                          tuple(a + b for a, b in zip(self.partials, other.partials)))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, DualScalar):
            return DualScalar(self.value - other, tuple(a - 0.0 for a in self.partials))
        return DualScalar(self.value - other.value,
                          tuple(a - b for a, b in zip(self.partials, other.partials)))

    def __rsub__(self, other):
        return DualScalar(other - self.value, tuple(0.0 - b for b in self.partials))

    def __mul__(self, other):
        if not isinstance(other, DualScalar):
            z = self.value * 0.0
            return DualScalar(self.value * other, tuple(z + a * other for a in self.partials))
        return DualScalar(self.value * other.value,
                          tuple(self.value * b + a * other.value
                                for a, b in zip(self.partials, other.partials)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, DualScalar):
            inv = 1.0 / other
            val = self.value * inv
            z = val * 0.0
            return DualScalar(val, tuple((a - z) * inv for a in self.partials))
        inv = 1.0 / other.value
        val = self.value * inv
        return DualScalar(val,
                          tuple((a - val * b) * inv
                                for a, b in zip(self.partials, other.partials)))

    def __rtruediv__(self, other):
        inv = 1.0 / self.value
        val = other * inv
        return DualScalar(val, tuple((0.0 - val * b) * inv for b in self.partials))

    def __pow__(self, n):
        if isinstance(n, int) or (isinstance(n, float) and n.is_integer()):
            n = int(n)
            if n == 0:
                return DualScalar(1.0, (0.0,) * len(self.partials))
            if n < 0:
                return 1.0 / self.__pow__(-n)
            out = self
            for _ in range(n - 1):
                out = out * self
            return out
        # real exponent: value must stay positive along the evaluation
        base = _pow(self.value, n)
        scale = n * _pow(self.value, n - 1.0)
        return DualScalar(base, tuple(scale * p for p in self.partials))

    def __neg__(self):
        return DualScalar(-self.value, tuple(-p for p in self.partials))

    def __abs__(self):
        s = _sign(self.value)
        return DualScalar(abs(self.value), tuple(s * p for p in self.partials))

    # comparisons act on the primal value (used for pivoting and branching)
    def __lt__(self, other):
        return _primal(self) < _primal(other)

    def __gt__(self, other):
        return _primal(self) > _primal(other)

    def __le__(self, other):
        return _primal(self) <= _primal(other)

    def __ge__(self, other):
        return _primal(self) >= _primal(other)

    def __repr__(self):
        return f"DualScalar({self.value!r}, {self.partials!r})"


def _primal(x):
    """Float value of a generic value: the one place where one becomes a float.

    A scalar gives a Python float (the primal part of a dual) and a value
    over points (a float array, or a dual with one as its primal) a float
    ndarray; a list or tuple nest gives a float ndarray of the same shape,
    with the point axis last if any entry runs over points (an entry that
    does not is repeated over them, as in :func:`_over_points`).
    """
    if type(x) is float:    # the common case, e.g. pivots in invert_matrix_generic
        return x
    if isinstance(x, DualScalar):
        while isinstance(x, DualScalar):
            x = x.value
        return x if isinstance(x, np.ndarray) else float(x)
    if isinstance(x, np.ndarray):
        return x
    if isinstance(x, (list, tuple)):
        try:
            return np.array(x, dtype=float)
        except (TypeError, ValueError):   # dual entries, or entries over points beside floats
            shape, leaves = _leaves(x)
            values = [_primal(v) for v in leaves]
            count = next((len(v) for v in values if isinstance(v, np.ndarray)), None)
            if count is None:
                return np.array(values, dtype=float).reshape(shape)
            return _over_points(x, count)
    return float(x)


def _leaves(x) -> tuple:
    """Shape and row-major entries of a (uniform) list or tuple nest."""
    shape, leaves = (), [x]
    while isinstance(leaves[0], (list, tuple)):
        shape += (len(leaves[0]),)
        leaves = [v for nest in leaves for v in nest]
    return shape, leaves


# -- values over points ----------------------------------------------------
#
# Generic arithmetic works elementwise when each coordinate is a float array
# over points, so one evaluation of a field on coordinate arrays gives its
# value at every point: a dual's value and partials become arrays, and an
# entry that does not depend on the point stays a plain float.  Every
# floating-point operation is the one the scalar path does at that point,
# so each point's value is bit-identical to evaluating it alone.

def coordinate_arrays(points) -> list:
    """One float array per axis, over ``points`` (a sequence of coordinate tuples)."""
    return list(np.array(points, dtype=float).T.copy())


def point_count(coords):
    """Number of points that coordinate arrays run over; None for one point."""
    c = coords[0]
    return len(c) if isinstance(c, np.ndarray) else None


def _each_point(coords) -> list:
    """The points of ``coords`` as lists of floats (``coords`` itself for one point)."""
    if point_count(coords) is None:
        return [coords]
    return np.array(coords, dtype=float).T.tolist()


def _over_points(x, count: int) -> np.ndarray:
    """Primal of a generic nest evaluated over ``count`` points, point axis
    last; an entry that stayed a plain float is repeated over the points."""
    shape, leaves = _leaves(x)
    out = np.empty((len(leaves), count))
    for i, v in enumerate(leaves):
        out[i] = _primal(v)
    return out.reshape(shape + (count,))


# What a pass over points can raise where evaluating the points one at a time
# raises elsewhere or not at all: an error met at a later point than the first
# failing one, or a field that branches on its coordinates or takes floats
# only.  A caller that catches one does the work point by point instead.
OVER_POINTS_ERRORS = (DiffglueError, ArithmeticError, ValueError, TypeError)


def float_semantics():
    """numpy error handling for evaluations over points: a division by zero,
    an overflow or an invalid operation raises FloatingPointError (an
    ArithmeticError), so a pass over finite inputs makes no inf or NaN.  Python
    floats raise on some of these and not on others (``0.0 / 0.0`` raises,
    ``1e308 * 10`` is inf), and numpy does not flag ``inf / 0`` or ``nan / 0``
    as Python does; a caller that catches the error evaluates point by point."""
    return np.errstate(divide="raise", over="raise", invalid="raise", under="ignore")


def _elementwise(f, *args) -> np.ndarray:
    """``f`` applied point by point to float arrays as Python floats, so each
    point's bits are those of the scalar call (numpy's exp and power are not)."""
    return np.frompyfunc(f, len(args), 1)(*args).astype(float)


def _pow(v, n):
    return _elementwise(pow, v, n) if isinstance(v, np.ndarray) else v ** n


def _first_max(values, key=None):
    """``(index, max(values, key=key))`` taken elementwise over arrays: a later
    value replaces the running one only where it ranks strictly higher, as in
    Python's max; ``key`` is None or :func:`nan_first`."""
    index, best = 0, values[0]
    for i, v in enumerate(values[1:], 1):
        better = v > best
        if key is nan_first:
            better = better | ((v != v) & (best == best))
        index, best = np.where(better, i, index), np.where(better, v, best)
    return index, best


def _sign(x):
    v = _primal(x)
    if isinstance(v, np.ndarray):
        return np.where(v == 0.0, 0.0, np.copysign(1.0, v))
    return 0.0 if v == 0.0 else math.copysign(1.0, v)


def _unary(x, f, df):
    """Lift a scalar function with known derivative to DualScalar."""
    if isinstance(x, DualScalar):
        base = _unary(x.value, f, df)
        scale = df(x.value)
        return DualScalar(base, tuple(scale * p for p in x.partials))
    return _elementwise(f, x) if isinstance(x, np.ndarray) else f(x)


def exp(x):
    """e^x of a generic value; a complex value (complex-step oracles) takes
    cmath's exp, keeping its type, or numpy's over points."""
    if isinstance(x, complex):
        return type(x)(cmath.exp(x))
    if isinstance(x, np.ndarray) and np.iscomplexobj(x):
        return np.exp(x)
    return _unary(x, math.exp, lambda v: exp(v))


def nan_first(v) -> tuple:
    """Residual ordering key with a NaN above every number (``max(0.0, nan)`` is 0.0)."""
    return (v != v, v)


def _dot(u, v):
    """sum_i u_i * v_i accumulated left to right from 0.0 (dual-safe)."""
    total = 0.0
    for a, b in zip(u, v):
        total = total + a * b
    return total


def _seeds(coords) -> list:
    """One dual per coordinate, seeded with the unit partial along its axis."""
    n = len(coords)
    return [DualScalar(coords[i], tuple(1.0 if j == i else 0.0 for j in range(n)))
            for i in range(n)]


def _probe(mapping, coords, within, step) -> tuple:
    """:meth:`DiffEngine.probe` on seeded duals (``step`` None) or on the
    central-difference stencil with step ``step``.  Over points, the stencil
    inputs of every point are evaluated in one pass over their concatenated
    coordinate arrays."""
    n = len(coords)
    if step is None:
        return n, [mapping(_seeds(coords))], None
    stencil = _stencil(coords, step)
    if within is not None:
        # domain predicates branch on floats, so the guard runs point by
        # point (one point is its own, and its stencil the one evaluated)
        for x in _each_point(coords):
            for k, inputs in enumerate(stencil if x is coords else _stencil(x, step)):
                if not within(inputs):
                    raise OutsideDomain(
                        f"fd stencil leaves the domain at {tuple(x)} (axis {k // 2})")
    count = point_count(coords)
    if count is None:
        return n, [mapping(x) for x in stencil], step
    outputs = mapping([np.concatenate(axis) for axis in zip(*stencil)])
    return n, [_run(outputs, k * count, (k + 1) * count) for k in range(len(stencil))], step


def _run(x, start: int, stop: int):
    """Points ``start:stop`` of a generic nest over points (a value that
    does not depend on the point stays as it is)."""
    if isinstance(x, (list, tuple)):
        return [_run(v, start, stop) for v in x]
    return x[start:stop] if isinstance(x, np.ndarray) else x


def _stencil(coords, h: float) -> list:
    """The 2n central-difference inputs around ``coords``: x + h e_i, then
    x - h e_i, axis by axis."""
    out = []
    for i in range(len(coords)):
        up, down = list(coords), list(coords)
        up[i] = up[i] + h
        down[i] = down[i] - h
        out.append(up)
        out.append(down)
    return out


def invert_matrix_generic(rows):
    """Invert a square matrix given as nested lists of generic scalars.

    Gauss-Jordan with partial pivoting on primal magnitude.  Entries may be
    floats or DualScalar, so derivatives flow through the inversion.  Entries
    over points invert every point's matrix in one pass where all points take
    the same steps, and point by point otherwise (see
    :func:`_invert_over_points`).
    """
    n = len(rows)
    a = [list(r) for r in rows]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    try:
        scale = max((abs(_primal(a[i][j])) for i in range(n) for j in range(n)), default=0.0)
    except ValueError:      # entries over points: an array has no truth value
        scale = None
    if type(scale) is not float:
        try:
            return _invert_over_points(a, inv)
        except _StepsDiffer:
            count = next(len(_primal(v)) for row in rows for v in row
                         if isinstance(_primal(v), np.ndarray))
            return _stack_points([invert_matrix_generic(_at_point(rows, k))
                                  for k in range(count)])
    if scale == 0.0:
        raise SingularGram("zero matrix")
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(_primal(a[r][col])))
        if abs(_primal(a[piv][col])) <= 1e-14 * scale:
            raise SingularGram(f"singular pivot in column {col}")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        inv[col] = [x / d for x in inv[col]]
        for r in range(n):
            if r == col:
                continue
            m = a[r][col]
            if not isinstance(m, DualScalar) and m == 0.0:
                continue
            a[r] = [x - m * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - m * y for x, y in zip(inv[r], inv[col])]
    return inv


class _StepsDiffer(Exception):
    """Points of a batch take different pivot rows or zero-multiplier skips."""


def _invert_over_points(a, inv):
    """Gauss-Jordan on entries over points, doing each point's scalar steps.

    Each step is the scalar loop's, taken by every point at once, so it
    applies only while every point picks the same pivot row and skips the
    same zero multipliers; otherwise it raises _StepsDiffer and the caller
    inverts point by point.  A singular pivot at any point raises
    SingularGram.
    """
    n = len(a)
    _, scale = _first_max([abs(_primal(x)) for row in a for x in row])
    if np.any(scale == 0.0):
        raise SingularGram("zero matrix")
    for col in range(n):
        piv, best = _first_max([abs(_primal(a[r][col])) for r in range(col, n)])
        if np.any(best <= 1e-14 * scale):
            raise SingularGram(f"singular pivot in column {col}")
        piv = col + _uniform(piv)
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        inv[col] = [x / d for x in inv[col]]
        for r in range(n):
            if r == col:
                continue
            m = a[r][col]
            if not isinstance(m, DualScalar) and _uniform(m == 0.0):
                continue
            a[r] = [x - m * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - m * y for x, y in zip(inv[r], inv[col])]
    return inv


def _uniform(v):
    """The one value an array holds at every point; raises _StepsDiffer if
    points differ."""
    v = np.asarray(v)
    first = v.flat[0]
    if np.any(v != first):
        raise _StepsDiffer
    return first.item()


def _at_point(x, k: int):
    """Generic nest at point ``k`` of a nest over points."""
    if isinstance(x, (list, tuple)):
        return [_at_point(v, k) for v in x]
    if isinstance(x, DualScalar):
        return DualScalar(_at_point(x.value, k), [_at_point(p, k) for p in x.partials])
    return float(x[k]) if isinstance(x, np.ndarray) else x


def _stack_points(nests: list):
    """Nest over points from one generic nest per point (the inverse of
    :func:`_at_point`, tuples becoming lists); a float among duals becomes a
    constant dual, and a leaf that is not a number (a probe's dimension or
    step) is the first nest's."""
    first = nests[0]
    if isinstance(first, (list, tuple)):
        return [_stack_points([v[i] for v in nests]) for i in range(len(first))]
    duals = [v for v in nests if isinstance(v, DualScalar)]
    if not duals:
        return np.array(nests, dtype=float) if isinstance(first, float) else first
    return DualScalar(
        _stack_points([v.value if isinstance(v, DualScalar) else v for v in nests]),
        [_stack_points([v.partials[i] if isinstance(v, DualScalar) else 0.0 for v in nests])
         for i in range(len(duals[0].partials))])


@dataclass(frozen=True)
class DiffConfig:
    """Differentiation mode, finite-difference step and check tolerances."""

    mode: str = "forward_dual"          # "forward_dual" | "central_fd"
    fd_step: float = 1e-5

    def __post_init__(self):
        if self.mode not in ("forward_dual", "central_fd"):
            raise ValueError(f"unknown diff mode {self.mode!r}")
        if not (math.isfinite(self.fd_step) and self.fd_step > 0):
            raise ValueError(f"fd_step must be positive and finite, got {self.fd_step}")

    def tol(self, check: str) -> float:
        """Pass bound of ``check`` (a key of TOLERANCES) in this mode."""
        dual, fd = TOLERANCES[check]
        return dual if self.mode == "forward_dual" else fd

    @property
    def suite_tol(self) -> float:
        """Residual tolerance for derivative-based checks in this mode."""
        return self.tol("suite")


MAX_SAMPLE_COUNT = 1000   # per axis, locus samples and probe steps


@dataclass(frozen=True)
class SamplePlan:
    """Where sampled checks evaluate: interior grids, locus points, probes."""

    per_axis: int = 16
    locus_count: int = 8
    probe_steps: int = 6
    probe_ratio: float = 0.5
    seed: int = 0

    def __post_init__(self):
        # checked before any grid is built: a count no desk-scale run can use
        # would otherwise fail deep inside numpy
        if not all(1 <= n <= MAX_SAMPLE_COUNT
                   for n in (self.per_axis, self.locus_count, self.probe_steps)):
            raise ValueError(f"sample counts must lie in [1, {MAX_SAMPLE_COUNT}]")
        if not 0.0 < self.probe_ratio < 1.0:
            raise ValueError("probe_ratio must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class CrossCheckReport:
    point: tuple                  # the coordinates (or coordinate arrays) checked
    dual: np.ndarray              # (outputs, axes, points)
    fd: np.ndarray
    max_discrepancy: np.ndarray   # (outputs, points)
    threshold: np.ndarray


class DiffEngine:
    """Gradient/Jacobian service shared by every derivative-taking operation."""

    def __init__(self, config: DiffConfig | None = None):
        self.config = config or DiffConfig()

    # -- derivatives ---------------------------------------------------
    def probe(self, mapping: Callable, coords: Sequence, within: Callable | None = None) -> tuple:
        """Outputs of the vector field ``mapping`` at the mode's probe inputs
        around ``coords``, as the probe ``(dim, outputs, step)``: in dual mode
        ``outputs[0]`` on the seeded duals and ``step`` None, in fd mode
        ``outputs[2 i]`` and ``outputs[2 i + 1]`` at ``coords`` moved by
        +step and -step along axis i.  ``within`` guards the stencil against
        leaving the domain; it is checked at every point before ``mapping``
        is evaluated.  (A plain tuple: probes are made per derivative taken.)
        """
        return _probe(mapping, coords, within,
                      None if self.config.mode == "forward_dual" else self.config.fd_step)

    @staticmethod
    def combine(fn: Callable, *probes: tuple) -> tuple:
        """Probe of ``x -> fn(a(x), b(x), ...)`` from the probes of a, b, ... at
        one point: ``fn`` applied to their outputs input by input, which is the
        arithmetic of evaluating that field at each probe input."""
        dim, _, step = probes[0]
        return dim, [fn(*outputs) for outputs in zip(*(p[1] for p in probes))], step

    @staticmethod
    def rows(probe: tuple) -> list:
        """Jacobian rows J[j][i] = d output_j / d x_i of a probe, as a list of
        lists: each dual output's partials (an output that stayed a float
        gives a zero row), or the central differences of the stencil outputs."""
        dim, outputs, step = probe
        if step is None:
            return [list(v.partials) if isinstance(v, DualScalar) else [0.0] * dim
                    for v in outputs[0]]
        width = 2.0 * step
        ups_downs = iter(outputs)
        # row j pairs output j of the up and down evaluations along every axis
        return [[(a - b) / width for a, b in row]
                for row in zip(*map(zip, ups_downs, ups_downs))]

    def jacobian(self, mapping: Callable, coords: Sequence, within: Callable | None = None):
        """Jacobian rows J[j][i] = d mapping_j / d x_i of a vector field
        ``x -> [m generic scalars]``: :meth:`rows` of its :meth:`probe`."""
        return self.rows(self.probe(mapping, coords, within))

    def gradient(self, field: Callable, coords: Sequence, within: Callable | None = None):
        """Gradient of a scalar field at ``coords``; returns a list.

        The one-output case of :meth:`jacobian`.  Entries are floats for
        float input and DualScalar for dual input (which happens when
        engine calls nest).
        """
        return self.jacobian(lambda x: (field(x),), coords, within)[0]

    # -- cross-check ----------------------------------------------------
    def fd_cross_check(self, field, coords, within=None) -> CrossCheckReport:
        """Compare dual and central-difference derivatives of a field.

        ``field`` is a scalar field or a vector field ``x -> [m scalars]``
        (one output or m), and ``coords`` one point or coordinate arrays over
        points.  Each output at each point is one check: its discrepancy is
        its worst partial's, and it fails above 10x the expected
        finite-difference truncation error.  Raises ModesDisagree for the
        first failing output of the first point that has one.  The report's
        ``max_discrepancy`` and ``threshold`` are (outputs, points) arrays,
        ``dual`` and ``fd`` (outputs, axes, points) arrays.
        """
        value = field(list(coords))
        vector = isinstance(value, (list, tuple))
        mapping = field if vector else lambda x: (field(x),)
        points = _each_point(coords)
        value = _over_points(value if vector else (value,), len(points))
        gd = _over_points(self.rows(_probe(mapping, coords, None, None)), len(points))
        gf = _over_points(self.rows(_probe(mapping, coords, within, self.config.fd_step)),
                          len(points))
        _, disc = _first_max(list(np.abs(gd - gf).swapaxes(0, 1)), key=nan_first)
        _, top = _first_max(list(np.abs(gd).swapaxes(0, 1)))
        _, scale = _first_max([1.0, np.abs(value), top])
        h = self.config.fd_step
        _, threshold = _first_max([10.0 * h * h * scale, 1e-10])
        report = CrossCheckReport(tuple(coords), gd, gf, disc, threshold)
        failed = np.argwhere(~(disc <= threshold).T)   # (point, output), point by point
        if len(failed):
            k, j = failed[0]
            raise ModesDisagree(
                f"dual/fd gradients disagree by {disc[j, k]:.3e} at {tuple(map(float, points[k]))} "
                f"(threshold {threshold[j, k]:.3e})")
        return report
