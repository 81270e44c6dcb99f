"""Connections on the cotangent-like bundle, over blocks and glued spaces.

A block connection is a Christoffel coefficient field Gamma[k][i][j] acting
on covector sections by (nabla s)_{ij} = d_i s_j - Gamma^k_{ij} s_k, with the
first index the direction-form slot.  The Levi-Civita solver assembles the
Koszul right-hand side in the coordinate dual frame (whose brackets vanish,
asserted numerically) and solves the dual Gram system; an independent
closed-form Christoffel oracle built on the dual-side Gram cross-checks it.

Over a glued space every operator follows the seam rule of
:attr:`~diffglue.space.GluedPoint.sides`: block values off the locus, and
over the locus the pair of block values, constrained to the compatible
subspace; the action t(h) is a glued function, half-weighted instead.
A glued tensor value is one float matrix per side; over the locus,
membership of the pair in the tensor square of the compatible subspace is
a linear feasibility check run at evaluation time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IncompatibleConnections, IncompatiblePair, ValidationError
from .fields import PolyField, random_poly
from .forms import (BlockForm, Checks, CompatResult, FibreElement, GluedFunction,
                    LambdaSection, assemble_section, compute_fibre,
                    coordinate_form, pair_residual, require_inside, rho_pair_inverse,
                    section_element, zero_block_form)
from .metric import BlockMetric, GluedMetric
from .numerics import (EPS_NUM, OVER_POINTS_ERRORS, DiffEngine, coordinate_arrays,
                       float_semantics, invert_matrix_generic, nan_first, point_count,
                       _at_point, _dot, _over_points, _primal, _stack_points)
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


def apply_block(C: BlockConnection, s: BlockForm, engine: DiffEngine) -> Callable:
    """Tensor field x -> rows[i][j] = d_i s_j - Gamma^k_{ij} s_k (generic)."""
    return lambda x: _covariant_rows(C.christoffel(list(x)), s(x),
                                     engine.jacobian(s, x, within=C.block.contains))


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


def covariant_block(C: BlockConnection, t: Callable, s: BlockForm,
                    engine: DiffEngine) -> BlockForm:
    """Contraction of apply_block in the direction slot against the dual field t."""
    tensor = apply_block(C, s, engine)

    def field(x):
        tv = t(x)
        return _contract(tv, tensor(x))

    return BlockForm(C.block, field)


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


def phi_invert_block(g: BlockMetric, t: Callable) -> BlockForm:
    def field(x):
        tv = t(x)
        return _image(invert_matrix_generic(g.gram_generic(x)), tv)

    return BlockForm(g.block, field)


def lie_bracket_forms_block(g: BlockMetric, s: BlockForm, r: BlockForm,
                            engine: DiffEngine) -> BlockForm:
    """Pairing-conjugated bracket of covector fields."""
    bracket = lie_bracket_dual_block(phi_apply_block(g, s), phi_apply_block(g, r),
                                     engine, g.block)
    return phi_invert_block(g, bracket)


def torsion_block(C: BlockConnection, g: BlockMetric, s: BlockForm, r: BlockForm,
                  engine: DiffEngine) -> BlockForm:
    """T(s,r) = nabla_s r - nabla_r s - [s,r], all through the pairing map."""
    cov_sr = covariant_block(C, phi_apply_block(g, s), r, engine)
    cov_rs = covariant_block(C, phi_apply_block(g, r), s, engine)
    br = lie_bracket_forms_block(g, s, r, engine)
    minus_one = lambda x: -1.0
    return cov_sr + cov_rs.scaled(minus_one) + br.scaled(minus_one)


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

    Evaluates the Koszul right-hand side on the coordinate dual frame (the
    three bracket terms vanish for coordinate frames; asserted numerically
    at the block seeds) and solves the dual Gram system for the Christoffel
    coefficients.

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

    def dual_gram(x):
        """Dual-side Gram, flattened row-major: entry (b, c) at b * d + c."""
        return [v for row in invert_matrix_generic(g.gram_generic(x)) for v in row]

    def solve(x):
        # dgs[b * d + c][a] = d_a of dual Gram entry (b, c)
        dgs = engine.jacobian(dual_gram, x, within=block.contains)
        gram = g.gram_generic(x)
        gamma = [[[0.0] * d for _ in range(d)] for _ in range(d)]
        for a in range(d):
            for b in range(d):
                rhs = [dgs[b * d + c][a] + dgs[c * d + a][b] - dgs[a * d + b][c]
                       for c in range(d)]
                for k in range(d):
                    gamma[k][a][b] = 0.5 * _dot(gram[k], rhs)
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
    the inverse: dGd = -Gd (dGram) Gd.  Float-only; this is the independent
    cross-check route for koszul_solve.  The returned field takes one point,
    giving a (d, d, d) array, or coordinate arrays over points, giving one
    such array per point: the Gram and its Jacobian are evaluated once over
    the points, and the algebra above runs on each point's matrices.
    """
    block = g.block
    d = block.dim

    def gram_flat(x):
        return [v for row in g.gram_generic(x) for v in row]

    def at_point(gram, jac):
        gd = np.linalg.inv(gram)
        # dgram[a, i, j] = d_a Gram[i, j]
        dgram = jac.T.reshape(d, d, d)
        dgd = np.empty((d, d, d))
        for a in range(d):
            dgd[a] = -gd @ dgram[a] @ gd
        gamma = np.empty((d, d, d))
        for i in range(d):
            for j in range(d):
                rhs = np.array([dgd[i][j, l] + dgd[j][i, l] - dgd[l][i, j]
                                for l in range(d)])
                gamma[:, i, j] = 0.5 * (gram @ rhs)
        return gamma

    def christoffel(x):
        count = point_count(x)
        with float_semantics():
            grams = _over_points(g.gram_generic(x), count or 1)
            jacs = _over_points(engine.jacobian(gram_flat, x, within=block.contains), count or 1)
        # one C-ordered matrix per point, as a single point's evaluation gives
        out = [at_point(gram, jac) for gram, jac in
               zip(np.moveaxis(grams, -1, 0).copy(), np.moveaxis(jacs, -1, 0).copy())]
        return out[0] if count is None else np.array(out)

    return christoffel


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


def _gram_pair_field(g: BlockMetric, s: BlockForm, t: BlockForm) -> Callable:
    """Scalar field x -> g(s, t)(x) = s_i Gram_ij t_j, dual-safe."""
    return lambda x: _pair_value(g.gram_generic(x), s(x), t(x))


class PointStore:
    """Values at float sample points that the compatibility checks, the
    torsion checks, bracket-split and leibniz share, each built once, when
    first asked for, and kept.

    A value is keyed by the objects it depends on and the point: the
    Christoffels of a block connection, a block metric's Gram, its probe and
    its inverse, a block field's probe and value, a field's covariant tensor
    under a connection, the pairing-map image of a field and its probe, the
    bracket of two fields and their torsion.  It is built in the generic
    arithmetic of the direct route (``apply_block``, ``engine.gradient`` of
    ``_gram_pair_field``, ``lie_bracket_forms_block``, ``torsion_block``),
    so it has the same bits.  A build that raises keeps nothing, so the
    error recurs where the direct route raises.  Float results are
    read-only.

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
        """Float value of ``apply_block(C, s, engine)`` at x."""
        return self._entry(("tensor", C, s), x, lambda x: _arrays(x, _covariant_rows(
            self.gamma(C, x), self.value(s, x),
            self.engine.rows(self.probe(s, x, C.block.contains)))))

    def scaled_tensor(self, C: BlockConnection, h: Callable, s: BlockForm, x) -> np.ndarray:
        """Float value of ``apply_block(C, s.scaled(h), engine)`` at x, from
        the probes of h and s (not kept: each product is asked for once)."""
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
        """Value of ``phi_apply_block(g, s)`` at x."""
        return self._entry(("phi", g, s), x,
                           lambda x: _image(self.value(g.gram_generic, x), self.value(s, x)))

    def phi_probe(self, g: BlockMetric, s: BlockForm, x):
        """Probe of ``phi_apply_block(g, s)`` at x, from the Gram and s probes."""
        within = g.block.contains
        return self._entry(("phi probe", g, s), x, lambda x: self.engine.combine(
            _image, self.probe(g.gram_generic, x, within), self.probe(s, x, within)))

    def bracket(self, g: BlockMetric, s: BlockForm, r: BlockForm, x) -> np.ndarray:
        """``lie_bracket_forms_block(g, s, r, engine).at(x)``."""
        def build(x):
            require_inside(g.block, x)
            rows = self.engine.rows
            ju, jt = rows(self.phi_probe(g, r, x)), rows(self.phi_probe(g, s, x))
            dual = _bracket_values(self.phi(g, s, x), self.phi(g, r, x), jt, ju)
            return _frozen(_primal(_image(self.gram_inverse(g, x), dual)))

        return self._entry(("bracket", g, s, r), x, build)

    def torsion(self, C: BlockConnection, g: BlockMetric, s: BlockForm, r: BlockForm,
                x) -> np.ndarray:
        """``torsion_block(C, g, s, r, engine).at(x)``: nabla_s r - nabla_r s
        - [s,r] from the stored tensors and bracket."""
        def build(x):
            require_inside(C.block, x)
            sr = _contract(self.phi(g, s, x), self.tensor(C, r, x))
            rs = _contract(self.phi(g, r, x), self.tensor(C, s, x))
            br = self.bracket(g, s, r, x)
            return _frozen(_primal([a + -1.0 * b + -1.0 * c for a, b, c in zip(sr, rs, br)]))

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
    """d(g(s,t)) = g(nabla s, t) + g(s, nabla t) at sampled points; the pairs
    share each field's values at a point through ``store``."""
    out = Checks()
    for s, t in pairs:
        for x in points:
            lhs, rhs = store.compat_sides(C, g, s, t, tuple(x))
            res = float(np.max(np.abs(lhs - rhs)))
            out.check(res, tol, point=list(x), residual=res,
                      lhs=lhs.tolist(), rhs=rhs.tolist())
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


class GluedTensorField:
    """Section of the tensor square over the glued space, via block splits."""

    def __init__(self, space: GluedSpace, f1: Callable, f2: Callable):
        self.space = space
        self.f1 = f1
        self.f2 = f2

    def at(self, point: GluedPoint) -> list:
        """One float matrix per entry of ``point.sides``, through
        :func:`tensor_pair_gate`."""
        return tensor_pair_gate(self.space, point,
                                [_primal((self.f1, self.f2)[w - 1](x)) for w, x in point.sides])


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
    """Pair of compatible block connections with the three-case evaluation;
    the checks over it read block values from its point ``store``."""

    def __init__(self, space: GluedSpace, metric: GluedMetric,
                 nabla1: BlockConnection, nabla2: BlockConnection, store: PointStore):
        self.space = space
        self.metric = metric
        self.nabla1 = nabla1
        self.nabla2 = nabla2
        self.store = store

    def apply(self, s: LambdaSection) -> GluedTensorField:
        eng = self.space.engine
        return GluedTensorField(self.space,
                                apply_block(self.nabla1, s.s1, eng),
                                apply_block(self.nabla2, s.s2, eng))


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


def lie_bracket_forms(G: GluedMetric, s: LambdaSection, r: LambdaSection) -> LambdaSection:
    """Pairing-conjugated bracket, by the three-case splitting."""
    eng = G.space.engine
    return LambdaSection(G.space,
                         lie_bracket_forms_block(G.g1, s.s1, r.s1, eng),
                         lie_bracket_forms_block(G.g2, s.s2, r.s2, eng))


def covariant_derivative(C: GluedConnection, t: DualSection,
                         s: LambdaSection) -> LambdaSection:
    """Covariant derivative along a dual section, by the case formula."""
    eng = C.space.engine
    return LambdaSection(C.space,
                         covariant_block(C.nabla1, t.t1, s.s1, eng),
                         covariant_block(C.nabla2, t.t2, s.s2, eng))


def covariant_via_tensor(C: GluedConnection, t: DualSection, s: LambdaSection,
                         point: GluedPoint) -> FibreElement:
    """Direct-contraction route: evaluate the glued tensor, then contract.

    Runs through the glued apply (including the pair-membership gate) and
    contracts the direction slot against the dual components, instead of
    assembling block covariant derivatives.  Must agree with
    covariant_derivative at every point.
    """
    matrices = C.apply(s).at(point)
    fibre = compute_fibre(C.space, point)
    values = [_primal((t.t1, t.t2)[w - 1](list(x))) @ m
              for (w, x), m in zip(point.sides, matrices)]
    if len(values) == 1:
        return FibreElement(fibre, values[0])
    return rho_pair_inverse(fibre, *values, tol=C.space.engine.config.tol("membership"))


def torsion(C: GluedConnection, s: LambdaSection, r: LambdaSection) -> LambdaSection:
    """T(s,r) = nabla_s r - nabla_r s - [s,r]: the pair of block torsions."""
    G, eng = C.metric, C.space.engine
    return LambdaSection(C.space,
                         torsion_block(C.nabla1, G.g1, s.s1, r.s1, eng),
                         torsion_block(C.nabla2, G.g2, s.s2, r.s2, eng))


def check_symmetric(C: GluedConnection, pairs: Sequence, points: Sequence[GluedPoint],
                    tol: float) -> CompatResult:
    """Sampled torsion bound over a spanning family of section pairs; the
    block torsions are entries of C's point store."""
    space, store = C.space, C.store
    nablas, metrics = (C.nabla1, C.nabla2), (C.metric.g1, C.metric.g2)
    out = Checks()
    for s, r in pairs:
        for p in points:
            fibre = compute_fibre(space, p)
            val = section_element(fibre, [store.torsion(nablas[w - 1], metrics[w - 1],
                                                        (s.s1, s.s2)[w - 1], (r.s1, r.s2)[w - 1], x)
                                          for w, x in p.sides], space.engine)
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
    nablas, metrics = (C.nabla1, C.nabla2), (C.metric.g1, C.metric.g2)
    out = Checks()
    xs = block_sides(points)
    # each section's tensors first: their pass over the points the gate left
    # builds the probes there, which each pair's pass then gathers once
    for s in dict.fromkeys(s for pair in pairs for s in pair):
        for w in (1, 2):
            store.batch(store.tensor, nablas[w - 1], (s.s1, s.s2)[w - 1], points=xs[w - 1])
    for s, t in pairs:
        for w in (1, 2):
            store.batch(store.compat_sides, nablas[w - 1], metrics[w - 1], (s.s1, s.s2)[w - 1],
                        (t.s1, t.s2)[w - 1], points=xs[w - 1])
        for p in points:
            sides = [store.compat_sides(nablas[w - 1], metrics[w - 1],
                                        (s.s1, s.s2)[w - 1], (t.s1, t.s2)[w - 1], x)
                     for w, x in p.sides]
            res = max((float(np.max(np.abs(lhs - rhs))) for lhs, rhs in sides), key=nan_first)
            if len(sides) == 2:
                # collapse: the split values of g(s,t) agree over the locus,
                # so the function is glued there.  Point-set loci admit
                # mixing section pairs for which no glued function exists;
                # the identity is vacuous at fibre level for those and only
                # the block (pair level) identities apply.
                v1, v2 = (_primal(_pair_value(store.value(metrics[w - 1].gram_generic, x),
                                              store.value((s.s1, s.s2)[w - 1], x),
                                              store.value((t.s1, t.s2)[w - 1], x)))
                          for w, x in p.sides)
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


def block_form_family(block: EuclideanBlock, rng: np.random.Generator,
                      extra: int = 8) -> list:
    """Coordinate sections, low-degree scaled sections, and random sections."""
    d = block.dim
    out = [coordinate_form(block, a) for a in range(d)]
    for a in range(d):
        for b in range(d):
            p = PolyField.coordinate(d, b)
            out.append(BlockForm(block, lambda x, a=a, p=p: [p(x) if i == a else 0.0
                                                             for i in range(d)]))
    for _ in range(extra):
        polys = [random_poly(rng, d) for _ in range(d)]
        out.append(BlockForm(block, lambda x, polys=polys: [f(x) for f in polys]))
    return out


def compatible_section_pairs(space: GluedSpace, rng: np.random.Generator,
                             extra: int = 8) -> list:
    """Compatible (s1, s2) pairs for glued-space suites.

    Point-set loci accept independent pairs (including one-sided ones);
    otherwise block-1 family members are pushed through the gluing map.
    """
    fam1 = block_form_family(space.block1, rng, extra)
    if space.locus.kind == "point_set":
        fam2 = block_form_family(space.block2, rng, extra)
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
