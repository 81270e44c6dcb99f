"""Differentiation engine and sampling plans.

Every derivative taken anywhere in the library goes through
:class:`DiffEngine`.  Its primitive is :meth:`DiffEngine.jacobian`, which
differentiates a vector field ``x -> [m generic scalars]`` in one pass;
:meth:`DiffEngine.gradient` is its one-output case.  Block covector fields
and their dual-side counterparts are such vector fields, so each derived
field is differentiated by one Jacobian call.  The engine offers two modes:

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

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ModesDisagree, OutsideDomain, SingularGram

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
}


class DualScalar:
    """First-order dual number ``value + sum_i partials[i] * eps_i``.

    Coefficients are generic Python numbers; a partial may itself be a
    DualScalar, which gives exact second derivatives when engines nest.
    """

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value = value
        self.partials = tuple(partials)

    @property
    def float_value(self) -> float:
        v = self.value
        while isinstance(v, DualScalar):
            v = v.value
        return float(v)

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
        base = self.value ** n
        scale = n * self.value ** (n - 1.0)
        return DualScalar(base, tuple(scale * p for p in self.partials))

    def __neg__(self):
        return DualScalar(-self.value, tuple(-p for p in self.partials))

    def __abs__(self):
        s = _sign(self.value)
        return DualScalar(abs(self.value), tuple(s * p for p in self.partials))

    # comparisons act on the primal value (used for pivoting and branching)
    def __lt__(self, other):
        return self.float_value < _primal(other)

    def __gt__(self, other):
        return self.float_value > _primal(other)

    def __le__(self, other):
        return self.float_value <= _primal(other)

    def __ge__(self, other):
        return self.float_value >= _primal(other)

    def __repr__(self):
        return f"DualScalar({self.value!r}, {self.partials!r})"


def _primal(x):
    """Float value of a generic value: the one place where one becomes a float.

    A scalar gives a Python float (the primal part of a dual); a list or
    tuple nest gives a float ndarray of the same shape.
    """
    if type(x) is float:    # the common case, e.g. pivots in invert_matrix_generic
        return x
    if isinstance(x, DualScalar):
        return x.float_value
    if isinstance(x, (list, tuple)):
        try:
            return np.array(x, dtype=float)
        except TypeError:   # a dual entry: convert entry by entry
            return _primal_entries(np.array(x, dtype=object)).astype(float)
    return float(x)


_primal_entries = np.frompyfunc(_primal, 1, 1)


def _sign(x) -> float:
    v = _primal(x)
    return 0.0 if v == 0.0 else math.copysign(1.0, v)


def _unary(x, f, df):
    """Lift a scalar function with known derivative to DualScalar."""
    if isinstance(x, DualScalar):
        base = _unary(x.value, f, df)
        scale = df(x.value)
        return DualScalar(base, tuple(scale * p for p in x.partials))
    return f(x)


def exp(x):
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


def invert_matrix_generic(rows):
    """Invert a square matrix given as nested lists of generic scalars.

    Gauss-Jordan with partial pivoting on primal magnitude.  Entries may be
    floats or DualScalar, so derivatives flow through the inversion.
    """
    n = len(rows)
    a = [list(r) for r in rows]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    scale = max((abs(_primal(a[i][j])) for i in range(n) for j in range(n)), default=0.0)
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
            if isinstance(m, (int, float)) and m == 0.0:
                continue
            a[r] = [x - m * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - m * y for x, y in zip(inv[r], inv[col])]
    return inv


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


@dataclass(frozen=True)
class SamplePlan:
    """Where sampled checks evaluate: interior grids, locus points, probes."""

    per_axis: int = 16
    locus_count: int = 8
    probe_steps: int = 6
    probe_ratio: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.per_axis < 1 or self.locus_count < 1 or self.probe_steps < 1:
            raise ValueError("sample counts must be >= 1")
        if not 0.0 < self.probe_ratio < 1.0:
            raise ValueError("probe_ratio must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class CrossCheckReport:
    point: tuple
    dual: tuple
    fd: tuple
    max_discrepancy: float
    threshold: float


class DiffEngine:
    """Gradient/Jacobian service shared by every derivative-taking operation."""

    def __init__(self, config: DiffConfig | None = None):
        self.config = config or DiffConfig()

    # -- derivatives ---------------------------------------------------
    def gradient(self, field: Callable, coords: Sequence, within: Callable | None = None):
        """Gradient of a scalar field at ``coords``; returns a list.

        The one-output case of :meth:`jacobian`.  Entries are floats for
        float input and DualScalar for dual input (which happens when
        engine calls nest).  ``within`` guards the finite-difference
        stencil against leaving the domain.
        """
        return self.jacobian(lambda x: (field(x),), coords, within)[0]

    def jacobian(self, mapping: Callable, coords: Sequence, within=None):
        """Jacobian rows J[j][i] = d mapping_j / d x_i, as a list of lists.

        ``mapping`` is a vector field ``x -> [m generic scalars]``.  In dual
        mode it is evaluated once on seeded duals and each output's partials
        are read off; an output that stayed a float gives a zero row.  In fd
        mode it is evaluated twice per axis.
        """
        if self.config.mode != "forward_dual":
            return self._jacobian_fd(mapping, coords, within)
        return self._jacobian_dual(mapping, coords)

    def _jacobian_dual(self, mapping, coords):
        n = len(coords)
        return [list(v.partials) if isinstance(v, DualScalar) else [0.0] * n
                for v in mapping(_seeds(coords))]

    def _jacobian_fd(self, mapping, coords, within):
        h = self.config.fd_step
        n = len(coords)
        if within is not None:
            for i in range(n):
                for s in (+h, -h):
                    probe = list(coords)
                    probe[i] = probe[i] + s
                    if not within(probe):
                        raise OutsideDomain(
                            f"fd stencil leaves the domain at {tuple(coords)} (axis {i})")
        stencils = []
        for i in range(n):
            up = list(coords)
            dn = list(coords)
            up[i] = up[i] + h
            dn[i] = dn[i] - h
            stencils.append(zip(mapping(up), mapping(dn)))
        # row j pairs output j of the up and down evaluations along every axis
        return [[(a - b) / (2.0 * h) for a, b in row] for row in zip(*stencils)]

    # -- cross-check ----------------------------------------------------
    def fd_cross_check(self, field, coords, within=None) -> CrossCheckReport:
        """Compare dual and central-difference gradients at one point.

        Raises ModesDisagree when the discrepancy exceeds 10x the expected
        finite-difference truncation error.
        """
        scalar = lambda x: (field(x),)
        gd = [_primal(v) for v in self._jacobian_dual(scalar, coords)[0]]
        gf = [_primal(v) for v in self._jacobian_fd(scalar, coords, within)[0]]
        disc = max((abs(a - b) for a, b in zip(gd, gf)), key=nan_first)
        h = self.config.fd_step
        scale = max(1.0, abs(_primal(field(list(coords)))), max(abs(v) for v in gd))
        threshold = max(10.0 * h * h * scale, 1e-10)
        report = CrossCheckReport(tuple(float(c) for c in coords),
                                  tuple(gd), tuple(gf), disc, threshold)
        if not disc <= threshold:
            raise ModesDisagree(
                f"dual/fd gradients disagree by {disc:.3e} at {report.point} "
                f"(threshold {threshold:.3e})")
        return report
