"""Differentiation engine and sampling plans.

Every derivative taken anywhere in the library goes through
:class:`DiffEngine`, which offers two modes:

* ``forward_dual`` -- forward-mode dual numbers, exact to machine precision
  for the polynomial and analytic built-ins (the default);
* ``central_fd`` -- central finite differences, kept as the independent
  cross-check (:meth:`DiffEngine.fd_cross_check`).

Dual coefficients are generic: the partials of a :class:`DualScalar` may
themselves be dual, so nesting engine calls yields exact higher-order
derivatives.  That is what the bracket-of-actions code paths rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ModesDisagree, NonSmoothField, OutsideDomain, SingularGram

# Library-wide numeric constants.
EPS_NUM = 1e-9          # round-trip / membership tolerance
EPS_DOM = 1e-3          # domain-openness probe radius
PD_FLOOR_REL = 1e-10    # relative floor for positive-definiteness decisions
SVD_CUTOFF_REL = 1e-8   # relative singular-value cutoff for rank decisions


class DualScalar:
    """First-order dual number ``value + sum_i partials[i] * eps_i``.

    Coefficients are generic Python numbers; a partial may itself be a
    DualScalar, which gives exact second derivatives when engines nest.
    """

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value = value
        self.partials = tuple(partials)

    # -- helpers -------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, DualScalar):
            return other
        return DualScalar(other, (0.0,) * len(self.partials))

    @property
    def float_value(self) -> float:
        v = self.value
        while isinstance(v, DualScalar):
            v = v.value
        return float(v)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        return DualScalar(self.value + o.value,
                          tuple(a + b for a, b in zip(self.partials, o.partials)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return DualScalar(self.value - o.value,
                          tuple(a - b for a, b in zip(self.partials, o.partials)))

    def __rsub__(self, other):
        o = self._coerce(other)
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        return DualScalar(self.value * o.value,
                          tuple(self.value * b + a * o.value
                                for a, b in zip(self.partials, o.partials)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        inv = 1.0 / o.value
        val = self.value * inv
        return DualScalar(val,
                          tuple((a - val * b) * inv
                                for a, b in zip(self.partials, o.partials)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o.__truediv__(self)

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


def _primal(x) -> float:
    return x.float_value if isinstance(x, DualScalar) else float(x)


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


def log(x):
    return _unary(x, math.log, lambda v: 1.0 / v)


def sqrt(x):
    return _unary(x, math.sqrt, lambda v: 0.5 / sqrt(v))


def sin(x):
    return _unary(x, math.sin, lambda v: cos(v))


def cos(x):
    return _unary(x, math.cos, lambda v: -sin(v))


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
    """Differentiation mode and tolerances."""

    mode: str = "forward_dual"          # "forward_dual" | "central_fd"
    fd_step: float = 1e-5

    def __post_init__(self):
        if self.mode not in ("forward_dual", "central_fd"):
            raise ValueError(f"unknown diff mode {self.mode!r}")
        if self.fd_step <= 0:
            raise ValueError("fd_step must be positive")

    @property
    def suite_tol(self) -> float:
        """Residual tolerance for derivative-based checks in this mode."""
        return 1e-10 if self.mode == "forward_dual" else 1e-6

    @property
    def split_tol(self) -> float:
        """Tolerance of the bracket, covariant and torsion splitting suites,
        whose residuals carry nested derivatives and least-squares solves."""
        return 1e-6 if self.mode == "forward_dual" else 1e-5

    @property
    def membership_tol(self) -> float:
        """Tolerance for compatible-subspace membership of derived values.

        Values assembled from derivatives inherit the derivative error, so
        fd mode gets a looser gate than the exact-data EPS_NUM.
        """
        return max(EPS_NUM, self.suite_tol)


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

    # -- gradients -----------------------------------------------------
    def gradient(self, field: Callable, coords: Sequence, within: Callable | None = None):
        """Gradient of a scalar field at ``coords``; returns a list.

        Entries are floats for float input and DualScalar for dual input
        (which happens when engine calls nest).  ``within`` guards the
        finite-difference stencil against leaving the domain.
        """
        if self.config.mode == "forward_dual":
            return self._gradient_dual(field, coords)
        return self._gradient_fd(field, coords, within)

    def gradient_array(self, field, coords, within=None) -> np.ndarray:
        return np.asarray([_primal(g) for g in self.gradient(field, coords, within)], dtype=float)

    def _gradient_dual(self, field, coords):
        n = len(coords)
        seeds = [DualScalar(coords[i], tuple(1.0 if j == i else 0.0 for j in range(n)))
                 for i in range(n)]
        out = field(seeds)
        if isinstance(out, DualScalar):
            return list(out.partials)
        return [0.0] * n  # field did not depend on the coordinates

    def _gradient_fd(self, field, coords, within):
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
        grad = []
        for i in range(n):
            up = list(coords)
            dn = list(coords)
            up[i] = up[i] + h
            dn[i] = dn[i] - h
            grad.append((field(up) - field(dn)) / (2.0 * h))
        return grad

    def jacobian(self, mapping: Callable, coords: Sequence, within=None):
        """Jacobian rows J[j][i] = d mapping_j / d x_i, as a list of lists."""
        outputs = mapping(list(coords))
        m = len(outputs)
        rows = []
        for j in range(m):
            rows.append(self.gradient(lambda x, j=j: mapping(x)[j], coords, within))
        return rows

    def jacobian_array(self, mapping, coords, within=None) -> np.ndarray:
        rows = self.jacobian(mapping, coords, within)
        return np.asarray([[_primal(v) for v in row] for row in rows], dtype=float)

    # -- smoothness probe (fd mode) -------------------------------------
    def gradient_checked(self, field, coords, within=None):
        """Gradient with a convergence probe in fd mode.

        Central differences at steps h and h/2 must agree to O(h^2); a kink
        at the sample point breaks that and raises NonSmoothField.
        """
        if self.config.mode == "forward_dual":
            return self.gradient(field, coords)
        g1 = self._gradient_fd(field, coords, within)
        half = DiffEngine(DiffConfig(mode="central_fd", fd_step=self.config.fd_step / 2))
        g2 = half._gradient_fd(field, coords, within)
        scale = 1.0 + max(abs(v) for v in g1 + g2)
        if max(abs(a - b) for a, b in zip(g1, g2)) > 1e-4 * scale:
            raise NonSmoothField(f"finite differences do not converge at {tuple(coords)}")
        return g2

    # -- cross-check ----------------------------------------------------
    def fd_cross_check(self, field, coords, within=None) -> CrossCheckReport:
        """Compare dual and central-difference gradients at one point.

        Raises ModesDisagree when the discrepancy exceeds 10x the expected
        finite-difference truncation error.
        """
        dual_eng = DiffEngine(DiffConfig(mode="forward_dual"))
        fd_eng = DiffEngine(DiffConfig(mode="central_fd", fd_step=self.config.fd_step))
        gd = [_primal(v) for v in dual_eng.gradient(field, coords)]
        gf = [_primal(v) for v in fd_eng.gradient(field, coords, within)]
        disc = max(abs(a - b) for a, b in zip(gd, gf))
        h = self.config.fd_step
        scale = max(1.0, abs(_primal(field(list(coords)))), max(abs(v) for v in gd))
        threshold = max(10.0 * h * h * scale, 1e-10)
        report = CrossCheckReport(tuple(float(c) for c in coords),
                                  tuple(gd), tuple(gf), disc, threshold)
        if disc > threshold:
            raise ModesDisagree(
                f"dual/fd gradients disagree by {disc:.3e} at {report.point} "
                f"(threshold {threshold:.3e})")
        return report
