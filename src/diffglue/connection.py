"""Connections on the cotangent-like bundle, over blocks and glued spaces.

A block connection is a Christoffel coefficient field Gamma[k][i][j] acting
on covector sections by (nabla s)_{ij} = d_i s_j - Gamma^k_{ij} s_k, with the
first index the direction-form slot.  The Levi-Civita solver evaluates the
Koszul formula in the coordinate dual frame (whose brackets vanish, asserted
numerically) from the engine's derivative of the Gram and one float inverse
of it, the dual-side Gram; a closed-form Christoffel oracle that shares no
code path with it (complex step, numpy's inverse, the classical form)
cross-checks it.
At float sample points the covariant tensor, the pairing map, the bracket
and the torsion are entries of one :class:`PointStore`; a complex-step
oracle that takes no DiffEngine derivative checks them.

Over a glued space every operator follows the seam rule of
:attr:`~diffglue.space.GluedPoint.sides`: block values off the locus, and
over the locus the pair of block values, constrained to the compatible
subspace; the action t(h) is a glued function, half-weighted instead.
A glued tensor value is one float matrix per side; over the locus,
membership of the pair in the tensor square of the compatible subspace is
a linear feasibility check run at evaluation time.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .errors import IncompatibleConnections, IncompatiblePair, ValidationError
from .fields import PolyField, random_poly
from .forms import (BlockForm, Checks, CompatResult, FibreElement, GluedFunction,
                    LambdaSection, assemble_section, compute_fibre,
                    coordinate_form, pair_residual, require_inside,
                    section_element, zero_block_form)
from .metric import BlockMetric, GluedMetric
from .numerics import (EPS_NUM, OVER_POINTS_ERRORS, DiffEngine, coordinate_arrays,
                       float_semantics, invert_matrix_generic, nan_first, point_count,
                       _at_point, _dot, _each_point, _leaves, _over_points, _primal,
                       _stack_points)
from .space import LOCUS, EuclideanBlock, GluedPoint, GluedSpace

MEMO_POINTS = 4096   # float points a Koszul closure remembers before it starts over


@dataclass(frozen=True, eq=False)
class BlockConnection:
    """Christoffel coefficient field on one block (compared and hashed by
    identity, as the point store keys on it)."""

    block: EuclideanBlock
    christoffel: Callable   # coords -> Gamma[k][i][j], generic arithmetic

    def gamma(self, coords) -> np.ndarray:
        return _primal(self.christoffel(list(coords)))


def zero_connection(block: EuclideanBlock) -> BlockConnection:
    d = block.dim
    zero = [[[0.0] * d for _ in range(d)] for _ in range(d)]
    return BlockConnection(block, lambda x: zero)


def _covariant_rows(gam, sval, jac) -> list:
    """rows[i][j] = jac[j][i] - Gamma^k_{ij} s_k from Gamma, s and its Jacobian at a point."""
    d = len(sval)
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            total = jac[j][i]
            for k in range(d):
                total = total - gam[k][i][j] * sval[k]
            row.append(total)
        rows.append(row)
    return rows


def _contract(tv, rows) -> list:
    """Direction slot of a covariant tensor contracted against the dual values tv."""
    return [_dot(tv, col) for col in zip(*rows)]


# -- dual-side machinery -----------------------------------------------------
#
# Dual-side fields are single callables x -> [d coefficients] against the
# coordinate frame, like the field of a BlockForm.

def action_block(t: Callable, h: Callable, engine: DiffEngine,
                 block: EuclideanBlock) -> Callable:
    """Scalar field x -> sum_a t_a(x) * d_a h(x); composable and dual-safe."""
    return lambda x: _dot(t(x), engine.gradient(h, x, within=block.contains))


def lie_bracket_dual_block(t: Callable, u: Callable, engine: DiffEngine,
                           block: EuclideanBlock) -> Callable:
    """Classical bracket of coefficient fields: [t,u]^b = t^a d_a u^b - u^a d_a t^b."""
    def field(x):
        ju = engine.jacobian(u, x, within=block.contains)
        jt = engine.jacobian(t, x, within=block.contains)
        return _bracket_values(t(x), u(x), jt, ju)

    return field


def _bracket_values(tv, uv, jt, ju) -> list:
    """[t,u]^b = t^a d_a u^b - u^a d_a t^b from the values and Jacobians at a point."""
    out = []
    for b in range(len(tv)):
        total = 0.0
        for a in range(len(tv)):
            total = total + tv[a] * ju[b][a] - uv[a] * jt[b][a]
        out.append(total)
    return out


def phi_apply_block(g: BlockMetric, s: BlockForm) -> Callable:
    """Pairing-map image of a covector field: x -> Gram(x) @ s(x) (generic)."""

    def field(x):
        sv = s(x)
        return _image(g.gram_generic(x), sv)

    return field


def _image(rows, v) -> list:
    """Matrix rows applied to the vector v (generic)."""
    return [_dot(row, v) for row in rows]


def covariant_dual_block(C: BlockConnection, t: Callable, u: Callable,
                         engine: DiffEngine, coords) -> np.ndarray:
    """Dual-bundle covariant derivative (nabla*_t u)^c = t^a (d_a u^c + G^c_ab u^b)."""
    d = C.block.dim
    gam = C.gamma(coords)
    tv = _primal(t(list(coords)))
    uv = _primal(u(list(coords)))
    du = _primal(engine.jacobian(u, list(coords), within=C.block.contains))  # du[c][a] = d_a u^c
    out = np.empty(d)
    for c in range(d):
        out[c] = float(tv @ du[c]) + float(tv @ gam[c] @ uv)
    return out


def torsion_dual_block(C: BlockConnection, t: Callable, u: Callable,
                       engine: DiffEngine, coords) -> np.ndarray:
    """Dual-side torsion value nabla*_t u - nabla*_u t - [t,u] at one point."""
    br = lie_bracket_dual_block(t, u, engine, C.block)
    brv = _primal(br(list(coords)))
    return covariant_dual_block(C, t, u, engine, coords) \
        - covariant_dual_block(C, u, t, engine, coords) - brv


# -- Koszul solver ------------------------------------------------------------

def koszul_solve(g: BlockMetric, engine: DiffEngine, points: Sequence = ()) -> BlockConnection:
    """Unique symmetric metric-compatible connection, by the Koszul identity.

    Evaluates the Koszul formula on the coordinate dual frame (the three
    bracket terms vanish for coordinate frames; asserted numerically at the
    block seeds) in the dual-side Gram Gd = Gram^-1, whose derivative is
    -Gd R_c Gd with R_c = d_c Gram: one engine Jacobian of the flattened
    Gram, one Gauss-Jordan inverse of the Gram (raising SingularGram) and
    a generic contraction, for a <= b and mirrored, serve a float point, a
    pass over coordinate arrays and a dual input alike.
    :func:`christoffel_closed_form` checks it by another route.

    The closure keeps its value at each float point (at most MEMO_POINTS, then
    it starts over) as an immutable tuple nest, exactly: Gamma at a point
    depends only on the metric there.  Dual inputs are solved afresh.  The
    float ``points`` are solved here, in one pass of the same solve over
    their coordinate arrays, which gives each point the bits of its own
    solve; if that pass raises, they are left to be solved one at a time,
    so an error surfaces at the point that causes it.
    """
    block = g.block
    d = block.dim

    # coordinate dual-frame brackets must vanish at the seeds; assert rather than trust
    frame = [coordinate_form(block, a) for a in range(d)]
    seeds = coordinate_arrays(block.seed_points)
    for a in range(d):
        for b in range(d):
            br = lie_bracket_dual_block(frame[a], frame[b], engine, block)
            if not np.max(np.abs(_over_points(br(seeds), len(block.seed_points)))) <= EPS_NUM:
                raise ValidationError("coordinate-frame bracket failed to vanish")

    def flat_gram(x):
        """Gram, flattened row-major: entry (i, j) at i * d + j."""
        return [v for row in g.gram_generic(x) for v in row]

    def solve(x):
        # jac[i * d + j][c] = R_c[i][j] = d_c Gram[i][j]; gd = Gram^-1 is the dual-side Gram
        jac = engine.jacobian(flat_gram, x, within=block.contains)
        gram = g.gram_generic(x)
        gd = invert_matrix_generic(gram)
        gd_cols = list(zip(*gd))
        # p[c][a][b] = (Gd R_c)[a][b]: column b of R_c is flat[b::d]
        cols = [[flat[b::d] for b in range(d)] for flat in zip(*jac)]
        p = [[[_dot(row, col) for col in cols_c] for row in gd] for cols_c in cols]
        # Gamma^k_ab = 1/2 sum_c Gram[k][c] (Gd R_c Gd)[a][b] - 1/2 (p[a][b][k] + p[b][a][k])
        gamma = [[[0.0] * d for _ in range(d)] for _ in range(d)]
        for a in range(d):
            for b in range(a, d):
                q = [_dot(p[c][a], gd_cols[b]) for c in range(d)]   # (Gd R_c Gd)[a][b]
                for k in range(d):
                    gamma[k][a][b] = gamma[k][b][a] = \
                        0.5 * (_dot(gram[k], q) - p[a][b][k] - p[b][a][k])
        return gamma

    memo = {}

    def christoffel(x):
        key = tuple(x)
        if not all(isinstance(c, float) for c in key):
            return solve(x)
        if key not in memo:
            if len(memo) >= MEMO_POINTS:
                memo.clear()
            memo[key] = tuple(tuple(map(tuple, plane)) for plane in solve(x))
        return memo[key]

    keys = list(dict.fromkeys(tuple(map(float, p)) for p in points))[:MEMO_POINTS]
    if keys:
        try:
            with float_semantics():
                gamma = _over_points(solve(coordinate_arrays(keys)), len(keys))
        except OVER_POINTS_ERRORS:
            pass
        else:
            for key, value in zip(keys, np.moveaxis(gamma, -1, 0).tolist()):
                memo[key] = tuple(tuple(map(tuple, plane)) for plane in value)

    return BlockConnection(block, christoffel)


def christoffel_closed_form(g: BlockMetric, engine: DiffEngine) -> Callable:
    """Closed-form Christoffel oracle on the dual-side Gram.

    Gamma^k_{ij} = 1/2 sum_l G_dual^{-1}[k,l] (d_i Gd[j,l] + d_j Gd[i,l]
    - d_l Gd[i,j]) with the dual-Gram derivatives taken analytically through
    the inverse: dGd = -Gd (dGram) Gd, and dGram by :func:`complex_step`.
    Float-only; this is the independent cross-check route for koszul_solve,
    so it takes no derivative through ``engine`` (which it does not use).
    The returned field takes one point, giving a (d, d, d) array, or
    coordinate arrays over points, giving one such array per point: the
    Gram and its Jacobian are evaluated once over the points, and the
    algebra above runs over all of them.
    """
    def christoffel(x):
        with float_semantics():
            gram, jac = complex_step(g.gram_generic, x)
        gd = np.linalg.inv(gram)
        # dgd[a, i, j] = d_a Gd[i, j] = -(Gd (d_a Gram) Gd)[i, j]
        dgd = -np.einsum("...ij,...jka,...kl->...ail", gd, jac, gd)
        # rhs[l, i, j] = d_i Gd[j, l] + d_j Gd[i, l] - d_l Gd[i, j]
        rhs = np.einsum("...ijl->...lij", dgd) + np.einsum("...jil->...lij", dgd) - dgd
        return 0.5 * np.einsum("...kl,...lij->...kij", gram, rhs)

    return christoffel


# -- complex-step oracle ---------------------------------------------------------
#
# An oracle for the point store's covariant derivative, bracket and torsion
# that shares no code path with it: no DiffEngine, no store helper, numpy
# algebra on complex-step values and derivatives.

CS_STEP = 1e-20


class _Stepped(complex):
    """A value computed from a coordinate moved by a complex step, or (with
    ``coordinate`` set) the moved coordinate.  As the complex-step method
    prescribes, abs is the analytic one, -v or v by the sign of the real
    part, and arithmetic keeps the type (numpy scalars defer to it), so no
    abs drops the step.  A moved coordinate compares by its real part, so a
    field that branches on its coordinates takes the float point's branch,
    as on a dual; a computed value does not compare, as a complex does not."""

    __array_ufunc__ = None
    coordinate = False

    def __abs__(self):
        return -self if self.real < 0 else +self


for _name in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv", "pow",
              "rpow", "neg", "pos"):
    setattr(_Stepped, f"__{_name}__", lambda self, *other, op=getattr(complex, f"__{_name}__"):
            v if (v := op(self, *other)) is NotImplemented else _Stepped(v))
for _name in ("lt", "le", "gt", "ge"):
    setattr(_Stepped, f"__{_name}__", lambda self, other, op=getattr(operator, _name):
            op(self.real, other) if self.coordinate else NotImplemented)


class _SteppedArray(np.ndarray):
    """Coordinate arrays moved by a complex step, and what numpy computes
    from them: abs is the analytic one at each point."""

    def __abs__(self):
        return np.where(self.real < 0, -self, self).view(_SteppedArray)


def complex_step(field: Callable, x) -> tuple:
    """Value and Jacobian (derivative axis last) of a block field at the float
    point x, from its values at x + ih e_a: Re and Im / h (Martins, Sturdza
    and Alonso, ACM TOMS 29(3), 2003), which subtract nothing, so lose
    nothing to cancellation.  Over coordinate arrays both get a leading
    point axis.  A field that cannot take complex values (one that compares
    a value computed from its coordinates, say) raises ValidationError."""
    count = point_count(x)
    steps = []
    for a in range(len(x)):
        z = list(x)
        if count is None:
            z[a] = _Stepped(z[a], CS_STEP)
            z[a].coordinate = True
        else:
            z[a] = (z[a] + 1j * CS_STEP).view(_SteppedArray)
        try:
            shape, leaves = _leaves(field(z))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"complex-step oracle: a field does not take complex "
                                  f"coordinates at {_each_point(x)[0]}: {exc}") from exc
        steps.append(leaves)
    lead = () if count is None else (count,)
    out = np.empty((len(x), len(steps[0])) + lead, dtype=complex)   # [axis, output, point]
    for a, leaves in enumerate(steps):
        for k, v in enumerate(leaves):
            out[a, k] = v
    out = out.T.reshape(lead + shape + (len(x),))
    return out[..., 0].real, out.imag / CS_STEP


def _oracle_tensor(gamma: np.ndarray, s: BlockForm, x) -> tuple:
    """s at x, its Jacobian ds[j, i] = d_i s_j and its covariant tensor
    ds^T - Gamma s, with (Gamma s)[i, j] = Gamma[k, i, j] s_k."""
    sv, ds = complex_step(s, x)
    return sv, ds, ds.T - gamma.transpose(1, 2, 0) @ sv


def oracle_covariant(C: BlockConnection, g: BlockMetric, sdir: BlockForm, s: BlockForm,
                     x) -> np.ndarray:
    """nabla s along phi(sdir) = Gram sdir at the float point x."""
    return g.gram(x) @ sdir.at(x) @ _oracle_tensor(C.gamma(x), s, x)[2]


def oracle_torsion(C: BlockConnection, g: BlockMetric, s: BlockForm, r: BlockForm,
                   x) -> np.ndarray:
    """T(s,r) = nabla_s r - nabla_r s - [s,r] at the float point x, with
    [s,r] = Gram^-1 [phi s, phi r] by a linear solve."""
    gram, dgram = complex_step(g.gram_generic, x)
    gamma = C.gamma(x)
    (sv, ds, ts), (rv, dr, tr) = _oracle_tensor(gamma, s, x), _oracle_tensor(gamma, r, x)
    # d_a (Gram v)_b = d_a Gram[b, c] v_c + Gram[b, c] d_a v_c
    dps, dpr = (dgram.transpose(0, 2, 1) @ v + gram @ dv for v, dv in ((sv, ds), (rv, dr)))
    ps, pr = gram @ sv, gram @ rv
    return ps @ tr - pr @ ts - np.linalg.solve(gram, dpr @ ps - dps @ pr)


def perturb_connection(C: BlockConnection, rng: np.random.Generator) -> BlockConnection:
    """Add a fixed random offset to the Christoffel field (spot checks)."""
    d = C.block.dim
    delta = rng.uniform(0.2, 1.0, size=(d, d, d)) * 0.1

    def christoffel(x):
        base = C.christoffel(list(x))
        return [[[base[k][i][j] + delta[k][i][j] for j in range(d)]
                 for i in range(d)] for k in range(d)]

    return BlockConnection(C.block, christoffel)


# -- compatibility checks -----------------------------------------------------

def _pair_value(gram, sv, tv):
    """g(s, t) = s_i Gram_ij t_j from the Gram and both fields' values (generic)."""
    d = len(sv)
    total = 0.0
    for i in range(d):
        for j in range(d):
            total = total + sv[i] * gram[i][j] * tv[j]
    return total


class PointStore:
    """The one evaluator at float sample points: values that the
    compatibility checks, the torsion checks, the split suites, leibniz and
    bracket-split share, each built once, when first asked for, and kept.

    A value is keyed by the objects it depends on and the point: the
    Christoffels of a block connection, a block metric's Gram, its probe and
    its inverse, a block field's probe and value, a field's covariant tensor
    under a connection, the pairing-map image of a field and its probe, the
    bracket of two fields and their torsion.  It is built in the engine's
    generic arithmetic, the same at a point as over points.  A build that
    raises keeps nothing, so the error recurs at the point that causes it.
    Float results are read-only.  The complex-step oracle
    (:func:`oracle_covariant`, :func:`oracle_torsion`) checks it.

    :meth:`batch` hands the store the points of one block side: the probe,
    value, ``at``, Gram, tensor and ``compat_sides`` entries missing there
    are built by the same build function, run once over the missing points'
    coordinate arrays (which gives each point the bits of its own build),
    and kept under the per-point keys.  ``batches``, ``batched_points`` and
    ``point_builds`` count, per entry kind, the passes over points, the
    points they built and the entries built at one point.
    """

    def __init__(self, engine: DiffEngine):
        self.engine = engine
        self._memo = {}
        self.batches = Counter()
        self.batched_points = Counter()
        self.point_builds = Counter()

    def batch(self, entry: Callable, *args, points: Sequence) -> None:
        """Build ``entry(*args, x)`` at each of the float ``points`` where it
        is missing, in one pass over those points.  A pass that raises keeps
        nothing: each entry is then built at its point when first asked for
        there, so an error names the point that causes it."""
        try:
            with float_semantics():
                entry(*args, _Points(points))
        except OVER_POINTS_ERRORS:
            pass

    def _entry(self, key: tuple, x, build: Callable):
        """Entry ``key`` at the point x, ``build(x)`` if missing.  At the
        points of a :class:`_Points` x, the list of the entry's stored values
        there, the missing ones built by one ``build`` over them (a single
        one at its point)."""
        table = self._memo.get(key)
        if table is None:
            table = self._memo[key] = {}
        value = table.get(x)
        if value is None:   # no value built is None
            if type(x) is _Points:
                return self._entries(key, table, x, build)
            value = table[x] = build(x)
            self.point_builds[key[0]] += 1
        elif type(value) is _Slice:
            return value.at_point()
        return value

    def _entries(self, key: tuple, table: dict, points: "_Points", build: Callable) -> list:
        missing = [x for x in points.keys if x not in table]
        if len(missing) > 1:
            table.update(zip(missing, build(
                points if len(missing) == len(points.keys) else _Points(missing))))
            self.batches[key[0]] += 1
            self.batched_points[key[0]] += len(missing)
        get = table.get
        return [v if (v := get(x)) is not None else self._entry(key, x, build)
                for x in points.keys]

    def gamma(self, C: BlockConnection, x):
        """Christoffels of C at x; at the points of a :class:`_Points`, each
        point's stacked, point axis last."""
        if type(x) is _Points:
            return np.ascontiguousarray(np.array([self.gamma(C, p) for p in x.keys],
                                                 dtype=float).transpose(1, 2, 3, 0))
        return self._entry(("gamma", C), x, lambda x: C.christoffel(list(x)))

    def _generic(self, key: tuple, x, build: Callable):
        """:meth:`_entry` of a generic value; over points, the value over
        them, gathered from the passes that built them if there were several
        (then kept as one pass, so the next gather over them is free)."""
        value = self._entry(key, x, build)
        if type(x) is not _Points:
            return value
        batch = _gathered(value)
        if type(value[0]) is not _Slice or batch is not value[0].batch:
            self._memo[key].update((p, _Slice(batch, k)) for k, p in enumerate(x.keys))
        return batch.value

    def probe(self, field: Callable, x, within: Callable):
        """``engine.probe`` of ``field`` (scalar or vector valued) at x."""
        return self._generic(("probe", field), x, lambda x: _slices(
            x, self.engine.probe(field, _coords(x), within)))

    def value(self, field: Callable, x):
        """``field(x)``, generic as the field returns it."""
        return self._generic(("value", field), x, lambda x: _slices(x, field(_coords(x))))

    def gradient(self, h: Callable, x, within: Callable) -> np.ndarray:
        """Float value of ``engine.gradient(h, x, within)`` for a scalar field h."""
        eng = self.engine
        return _primal(eng.rows(eng.combine(lambda v: (v,), self.probe(h, x, within)))[0])

    def at(self, s: BlockForm, x) -> np.ndarray:
        """``s.at(x)``: the float value at a point of the block (elsewhere
        ``s.at`` raises)."""
        def build(x):
            for p in x.keys if type(x) is _Points else (x,):
                require_inside(s.block, p)
            return _arrays(x, self.value(s, x))

        return self._entry(("at", s), x, build)

    def gram(self, g: BlockMetric, x) -> np.ndarray:
        return self._entry(("gram", g), x, lambda x: _arrays(x, self.value(g.gram_generic, x)))

    def gram_inverse(self, g: BlockMetric, x) -> list:
        """``invert_matrix_generic`` of the Gram at x."""
        return self._entry(("gram inverse", g), x,
                           lambda x: invert_matrix_generic(self.value(g.gram_generic, x)))

    def tensor(self, C: BlockConnection, s: BlockForm, x) -> np.ndarray:
        """Covariant tensor rows[i][j] = d_i s_j - Gamma^k_{ij} s_k of s under C
        at x, from the stored Christoffels and the probe and value of s."""
        return self._entry(("tensor", C, s), x, lambda x: _arrays(x, _covariant_rows(
            self.gamma(C, x), self.value(s, x),
            self.engine.rows(self.probe(s, x, C.block.contains)))))

    def scaled_tensor(self, C: BlockConnection, h: Callable, s: BlockForm, x) -> np.ndarray:
        """Covariant tensor of the product h * s under C at x, from the
        probes of h and s (not kept: each product is asked for once)."""
        gam = self.gamma(C, x)
        hx = self.value(h, x)
        sval = [hx * v for v in self.value(s, x)]
        within = C.block.contains
        jac = self.engine.rows(self.engine.combine(
            lambda hv, sv: [hv * v for v in sv], self.probe(h, x, within), self.probe(s, x, within)))
        return _primal(_covariant_rows(gam, sval, jac))

    def compat_sides(self, C: BlockConnection, g: BlockMetric, s: BlockForm, t: BlockForm,
                     x) -> tuple:
        """d(g(s,t)) and g(nabla s, t) + g(s, nabla t) at x; the right side
        is a float matrix product at each point."""
        def build(x):
            within = g.block.contains
            probes = (self.probe(g.gram_generic, x, within), self.probe(s, x, within),
                      self.probe(t, x, within))
            lhs = _arrays(x, self.engine.rows(self.engine.combine(
                lambda gram, sv, tv: (_pair_value(gram, sv, tv),), *probes))[0])
            parts = (lhs, self.gram(g, x), self.tensor(C, s, x), self.at(t, x),
                     self.tensor(C, t, x), self.at(s, x))

            def sides(lhs, gram, ts, at_t, tt, at_s):
                return lhs, _frozen(ts @ gram @ at_t + tt @ gram @ at_s)

            return [sides(*v) for v in zip(*parts)] if type(x) is _Points else sides(*parts)

        return self._entry(("compat", C, g, s, t), x, build)

    def phi(self, g: BlockMetric, s: BlockForm, x) -> list:
        """Pairing-map image phi(g, s) = Gram @ s at x."""
        return self._entry(("phi", g, s), x,
                           lambda x: _image(self.value(g.gram_generic, x), self.value(s, x)))

    def phi_probe(self, g: BlockMetric, s: BlockForm, x):
        """Probe of phi(g, s) at x, from the Gram and s probes."""
        within = g.block.contains
        return self._entry(("phi probe", g, s), x, lambda x: self.engine.combine(
            _image, self.probe(g.gram_generic, x, within), self.probe(s, x, within)))

    def bracket(self, g: BlockMetric, s: BlockForm, r: BlockForm, x) -> np.ndarray:
        """Pairing-conjugated bracket [s,r] = Gram^-1 [phi s, phi r] at x."""
        def build(x):
            require_inside(g.block, x)
            rows = self.engine.rows
            ju, jt = rows(self.phi_probe(g, r, x)), rows(self.phi_probe(g, s, x))
            dual = _bracket_values(self.phi(g, s, x), self.phi(g, r, x), jt, ju)
            return _frozen(_primal(_image(self.gram_inverse(g, x), dual)))

        return self._entry(("bracket", g, s, r), x, build)

    def torsion(self, C: BlockConnection, g: BlockMetric, s: BlockForm, r: BlockForm,
                x) -> np.ndarray:
        """Torsion T(s,r) = nabla_s r - nabla_r s - [s,r] at x, from the
        stored tensors and bracket."""
        def build(x):
            require_inside(C.block, x)
            sr = _contract(self.phi(g, s, x), self.tensor(C, r, x))
            rs = _contract(self.phi(g, r, x), self.tensor(C, s, x))
            br = self.bracket(g, s, r, x)
            return _frozen(_primal(sr) - _primal(rs) - br)

        return self._entry(("torsion", C, g, s, r), x, build)


class _Points:
    """Float points of one block side, handed to an entry's build in one
    piece: their coordinate tuples (the store's keys) and their coordinate
    arrays."""

    __slots__ = ("keys", "_coords")

    def __init__(self, keys: Sequence):
        self.keys, self._coords = list(dict.fromkeys(keys)), None

    @property
    def coords(self) -> list:
        if self._coords is None:
            self._coords = coordinate_arrays(self.keys)
        return self._coords


class _Batch:
    """A generic value built over ``count`` points."""

    __slots__ = ("value", "count")

    def __init__(self, value, count: int):
        self.value, self.count = value, count


class _Slice:
    """Point ``k`` of a :class:`_Batch`; the store reads it as that point's
    own nest (``_at_point``, made when first asked for at the point)."""

    __slots__ = ("batch", "k", "_value")

    def __init__(self, batch: _Batch, k: int):
        self.batch, self.k, self._value = batch, k, None

    def at_point(self):
        if self._value is None:
            self._value = _at_point(self.batch.value, self.k)
        return self._value


def _coords(x):
    return x.coords if type(x) is _Points else x


def _slices(x, value):
    """A generic value built at x: itself at a point, one slice per point over points."""
    if type(x) is not _Points:
        return value
    batch = _Batch(value, len(x.keys))
    return [_Slice(batch, k) for k in range(batch.count)]


def _gathered(values: list) -> _Batch:
    """The pass over points of per-point generic values: the pass that built
    them all, in order, or else a new one stacked from their nests."""
    first = values[0]
    if type(first) is _Slice and first.batch.count == len(values) and all(
            type(v) is _Slice and v.batch is first.batch and v.k == k
            for k, v in enumerate(values)):
        return first.batch
    return _Batch(_stack_points([v.at_point() if type(v) is _Slice else v for v in values]),
                  len(values))


def _arrays(x, value):
    """A float entry built at x: a read-only array at a point; over points,
    one read-only C-contiguous array per point."""
    if type(x) is not _Points:
        return _frozen(_primal(value))
    n = len(x.keys)
    over = _over_points(value, n)
    return list(_frozen(over.reshape(-1, n).T.copy().reshape((n,) + over.shape[:-1])))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def block_sides(points: Sequence[GluedPoint]) -> tuple:
    """The block-1 and the block-2 coordinates of the sides of ``points``, in
    their order: what the checks over the points hand the point store."""
    return tuple([x for p in points for w, x in p.sides if w == side] for side in (1, 2))


def check_metric_compatible_block(C: BlockConnection, g: BlockMetric,
                                  pairs: Sequence, points: Sequence,
                                  store: PointStore, tol: float) -> CompatResult:
    """d(g(s,t)) = g(nabla s, t) + g(s, nabla t) at sampled points, pair by
    pair, up to the first sample that fails, which is the witness; the
    pairs share each field's values at a point through ``store``."""
    out = Checks()
    for s, t in pairs:
        for x in points:
            lhs, rhs = store.compat_sides(C, g, s, t, tuple(x))
            res = float(np.max(np.abs(lhs - rhs)))
            out.check(res, tol, point=list(x), residual=res,
                      lhs=lhs.tolist(), rhs=rhs.tolist())
            if out.witnesses:
                return out.compat()
    return out.compat()


def check_connections_compatible(space: GluedSpace, nabla1: BlockConnection,
                                 nabla2: BlockConnection, sections: Sequence,
                                 store: PointStore) -> CompatResult:
    """Locus pullback agreement of the two connection tensors.

    For each sampled locus point and section of ``sections`` (the space's
    :func:`section_family`), both tensor values are pulled onto the locus
    through the tangential covector maps and compared.  Point-set loci have
    a zero pullback target, so the check is vacuously true there.  The
    tensors are ``store`` entries, which later checks over the locus reuse.
    """
    eng = space.engine
    out = Checks()
    if space.locus.kind == "point_set":
        return out.compat()
    tol = eng.config.tol("connections")
    samples = space.region_samples()[LOCUS]
    xs1, xs2 = block_sides(samples)
    for s in sections:
        store.batch(store.tensor, nabla1, s.s1, points=xs1)
        store.batch(store.tensor, nabla2, s.s2, points=xs2)
    for p in samples:
        fr = space.locus_frames(p.coords)
        p1 = fr.t1.T
        p2 = fr.t2.T
        for s in sections:
            lhs = p1 @ store.tensor(nabla1, s.s1, p.coords) @ p1.T
            rhs = p2 @ store.tensor(nabla2, s.s2, p.coords2) @ p2.T
            res = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0
            out.check(res, tol, point=list(p.coords), residual=res,
                      pulled1=lhs.tolist(), pulled2=rhs.tolist())
    return out.compat()


# -- glued connection ----------------------------------------------------------


def joint_range_residual(fibre, a1: np.ndarray, a2: np.ndarray) -> float:
    """Feasibility of (a1, a2) as block projections of a pair-fibre 2-tensor."""
    system = fibre.tensor_system
    target = np.concatenate([a1.reshape(-1), a2.reshape(-1)])
    sol, *_ = np.linalg.lstsq(system, target, rcond=None)
    return float(np.max(np.abs(system @ sol - target)))


def tensor_pair_gate(space: GluedSpace, point: GluedPoint, matrices: list) -> list:
    """``matrices``, one tensor value per side of ``point``; over the locus
    the pair must lie in the tensor square of the compatible subspace."""
    if len(matrices) == 2:
        a1, a2 = matrices
        res = joint_range_residual(compute_fibre(space, point), a1, a2)
        scale = 1.0 + max(float(np.max(np.abs(a1))), float(np.max(np.abs(a2))))
        if not res <= space.engine.config.tol("tensor-membership") * scale:
            raise IncompatiblePair(
                f"tensor pair escapes the compatible square at {point.coords} "
                f"(residual {res:.3e})")
    return matrices


class GluedConnection:
    """Pair of compatible block connections with the three-case evaluation.
    Its glued values at a sample point are read from its point ``store``:
    :meth:`tensor_pair`, :meth:`covariant` and :meth:`torsion` are the one
    evaluator of each, and the checks over it read the store too."""

    def __init__(self, space: GluedSpace, metric: GluedMetric,
                 nabla1: BlockConnection, nabla2: BlockConnection, store: PointStore):
        self.space = space
        self.metric = metric
        self.nabla1 = nabla1
        self.nabla2 = nabla2
        self.store = store

    def block_args(self, w: int, *sections: LambdaSection) -> tuple:
        """Block w's connection and metric, then each section's block-w field."""
        return ((self.nabla1, self.nabla2)[w - 1], (self.metric.g1, self.metric.g2)[w - 1],
                *((s.s1, s.s2)[w - 1] for s in sections))

    def tensor_pair(self, s: LambdaSection, point: GluedPoint) -> list:
        """nabla s at ``point``: the stored tensor of each side, through
        :func:`tensor_pair_gate`."""
        tensors = []
        for w, x in point.sides:
            nabla, _, sw = self.block_args(w, s)
            tensors.append(self.store.tensor(nabla, sw, x))
        return tensor_pair_gate(self.space, point, tensors)

    def covariant(self, sdir: LambdaSection, s: LambdaSection,
                  point: GluedPoint) -> FibreElement:
        """nabla s along phi(sdir) at ``point``: each side's stored phi(sdir)
        applied to the gated tensor pair, as a section value."""
        values = []
        for (w, x), m in zip(point.sides, self.tensor_pair(s, point)):
            _, g, dw = self.block_args(w, sdir)
            values.append(_primal(self.store.phi(g, dw, x)) @ m)
        return section_element(compute_fibre(self.space, point), values, self.space.engine)

    def torsion(self, s: LambdaSection, r: LambdaSection, point: GluedPoint) -> FibreElement:
        """T(s,r) at ``point``: the stored block torsions, as a section value."""
        return section_element(compute_fibre(self.space, point),
                               [self.store.torsion(*self.block_args(w, s, r), x)
                                for w, x in point.sides], self.space.engine)


def oracle_element(C: GluedConnection, point: GluedPoint, oracle: Callable,
                   *sections: LambdaSection) -> FibreElement:
    """The section value at ``point`` of ``oracle``'s block values
    (:func:`oracle_covariant`, :func:`oracle_torsion`), one per side."""
    return section_element(compute_fibre(C.space, point),
                           [oracle(*C.block_args(w, *sections), x) for w, x in point.sides],
                           C.space.engine)


def glue_connections(space: GluedSpace, metric: GluedMetric, nabla1: BlockConnection,
                     nabla2: BlockConnection, sections: Sequence,
                     store: PointStore) -> GluedConnection:
    """Gate the pair on ``sections`` (see :func:`check_connections_compatible`)
    and assemble it with ``store``."""
    result = check_connections_compatible(space, nabla1, nabla2, sections, store)
    if not result:
        raise IncompatibleConnections(f"connections incompatible: {result.witness}")
    return GluedConnection(space, metric, nabla1, nabla2, store)


# -- glued dual sections and the operator calculus -----------------------------


@dataclass(frozen=True)
class DualSection:
    """Dual section over the glued space, via block coefficient fields
    ``x -> [d coefficients]``.

    Over a locus point the pair acts on the compatible subspace only,
    through the half-weighted pairing (consistent with the glued metric).
    """

    space: GluedSpace
    t1: Callable
    t2: Callable


def phi_glued(G: GluedMetric, s: LambdaSection) -> DualSection:
    return DualSection(G.space, phi_apply_block(G.g1, s.s1), phi_apply_block(G.g2, s.s2))


def action(t: DualSection, h: GluedFunction) -> GluedFunction:
    """t(h): the glued function of the block actions ``t_w(dh_w)``, so actions
    compose; its ``value`` half-weights the pair over the locus."""
    space = t.space
    eng = space.engine
    return GluedFunction(space, action_block(t.t1, h.h1, eng, space.block1),
                         action_block(t.t2, h.h2, eng, space.block2))


def check_symmetric(C: GluedConnection, pairs: Sequence, points: Sequence[GluedPoint],
                    tol: float) -> CompatResult:
    """Sampled torsion bound over a spanning family of section pairs; the
    block torsions are entries of C's point store."""
    out = Checks()
    for s, r in pairs:
        for p in points:
            val = C.torsion(s, r, p)
            res = float(np.max(np.abs(val.components))) if val.components.size else 0.0
            out.check(res, tol, point=list(p.coords), region=p.region,
                      torsion=val.components.tolist(), residual=res)
    return out.compat()


def check_metric_compatible_glued(C: GluedConnection, pairs: Sequence,
                                  points: Sequence[GluedPoint], tol: float) -> CompatResult:
    """d(g(s,t)) = g(nabla s, t) + g(s, nabla t) over the glued space.

    The identity is evaluated through the block splits (the observable
    content over every region); over locus points the split values of
    g(s,t) must also agree (the collapse property of compatible metrics),
    which makes the glued function well-defined there.
    """
    space, store = C.space, C.store
    out = Checks()
    xs = block_sides(points)
    # each section's tensors first: their pass over the points the gate left
    # builds the probes there, which each pair's pass then gathers once
    for s in dict.fromkeys(s for pair in pairs for s in pair):
        for w in (1, 2):
            nabla, _, sw = C.block_args(w, s)
            store.batch(store.tensor, nabla, sw, points=xs[w - 1])
    for s, t in pairs:
        for w in (1, 2):
            store.batch(store.compat_sides, *C.block_args(w, s, t), points=xs[w - 1])
        for p in points:
            sides = [store.compat_sides(*C.block_args(w, s, t), x) for w, x in p.sides]
            res = max((float(np.max(np.abs(lhs - rhs))) for lhs, rhs in sides), key=nan_first)
            if len(sides) == 2:
                # collapse: the split values of g(s,t) agree over the locus,
                # so the function is glued there.  Point-set loci admit
                # mixing section pairs for which no glued function exists;
                # the identity is vacuous at fibre level for those and only
                # the block (pair level) identities apply.
                values = []
                for w, x in p.sides:
                    _, g, sw, tw = C.block_args(w, s, t)
                    values.append(_primal(_pair_value(store.value(g.gram_generic, x),
                                                      store.value(sw, x), store.value(tw, x))))
                v1, v2 = values
                collapse = abs(v1 - v2) / (1.0 + abs(v1) + abs(v2))
                if space.locus.kind != "point_set":
                    res = max(res, collapse, key=nan_first)
                if collapse <= space.engine.config.tol("glued-function"):
                    # well-posed glued function: its split differentials
                    # must form a compatible pair over the locus fibre
                    (dk1, _), (dk2, _) = sides
                    _, mem = pair_residual(compute_fibre(space, p), dk1, dk2)
                    res = max(res, mem, key=nan_first)
            out.check(res, tol, point=list(p.coords), region=p.region, residual=res)
    return out.compat()


# -- section and function families ---------------------------------------------

def pushforward_form(space: GluedSpace, s1: BlockForm) -> BlockForm:
    """Block-2 section matching s1 through the gluing map.

    s2(z) = J_{f^-1}(z)^T s1(f^-1(z)), with the map's analytic inverse
    Jacobian (every gluing map carries one), so outer derivatives of s2 see
    no inner finite-difference noise and no matrix is inverted per call.
    """
    f = space.f

    def field(z):
        rows = f.inverse_jacobian(list(z))
        w = s1(f.inverse(list(z)))
        return [_dot(col, w) for col in zip(*rows)]

    return BlockForm(space.block2, field)


def block_form_family(block: EuclideanBlock, rng: np.random.Generator):
    """Coordinate sections, low-degree scaled sections, then random sections
    without end: a lazy family, each random section drawn from ``rng`` when
    taken, so a caller draws only the prefix it takes."""
    d = block.dim
    for a in range(d):
        yield coordinate_form(block, a)
    for a in range(d):
        for b in range(d):
            p = PolyField.coordinate(d, b)
            yield BlockForm(block, lambda x, a=a, p=p: [p(x) if i == a else 0.0
                                                        for i in range(d)])
    while True:
        polys = [random_poly(rng, d) for _ in range(d)]
        yield BlockForm(block, lambda x, polys=polys: [f(x) for f in polys])


def compatible_section_pairs(space: GluedSpace, rng: np.random.Generator) -> list:
    """Compatible (s1, s2) pairs for glued-space suites: each block's
    coordinate and scaled sections and eight random ones.

    Point-set loci accept independent pairs (including one-sided ones);
    otherwise block-1 family members are pushed through the gluing map.
    """
    def family(block):
        return list(islice(block_form_family(block, rng), block.dim * (block.dim + 1) + 8))

    fam1 = family(space.block1)
    if space.locus.kind == "point_set":
        fam2 = family(space.block2)
        pairs = list(zip(fam1, fam2[::-1]))
        pairs.append((fam1[0], zero_block_form(space.block2)))
        pairs.append((zero_block_form(space.block1), fam2[0]))
        return pairs
    return [(s1, pushforward_form(space, s1)) for s1 in fam1]


def section_family(space: GluedSpace) -> tuple:
    """The seeded compatible sections of the space, drawn from ``plan.seed``
    and assembled: what the connection gate and every suite that quantifies
    over sections read (a run builds them once, on its scenario context)."""
    raw = compatible_section_pairs(space, np.random.default_rng(space.plan.seed))
    return tuple(assemble_section(space, s1, s2) for s1, s2 in raw)


def _image_residual_fields(space: GluedSpace) -> list:
    """Smooth fields on block 2 vanishing on the glued image (seam extras)."""
    if space.locus.kind == "point_set":
        fields = []
        for j in range(space.block2.dim):
            pts = [space.map_forward(y) for y in space.locus.points]

            def q(z, j=j, pts=pts):
                total = 1.0
                for p in pts:
                    total = total * (z[j] - p[j])
                return total

            fields.append(q)
        return fields
    if space.locus.kind == "submanifold":
        def residual(z, j):
            t = space.locus.invert(space.f.inverse(list(z)))
            proj = space.f.forward(space.locus.chart(list(t)))
            return z[j] - proj[j]

        return [lambda z, j=j: residual(z, j) for j in range(space.block2.dim)]
    return []


def glued_function_family(space: GluedSpace, rng: np.random.Generator) -> list:
    """Compatible scalar-function pairs: mirrored polynomials plus seam extras (unvalidated)."""
    out = []
    for _ in range(5):
        h1 = random_poly(rng, space.block1.dim)

        def h2(z, h1=h1):
            return h1(space.f.inverse(list(z)))

        out.append(GluedFunction(space, h1, h2))
    extras = _image_residual_fields(space)
    zero1 = lambda x: 0.0
    for q in extras[: 2]:
        out.append(GluedFunction(space, zero1, q))
    # constant and coordinate-like controls
    out.append(GluedFunction(space, lambda x: 1.0, lambda z: 1.0))
    return out
