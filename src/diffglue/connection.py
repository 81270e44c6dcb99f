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

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IncompatibleConnections, IncompatiblePair, ValidationError
from .fields import PolyField, random_poly
from .forms import (BlockForm, Checks, CompatResult, FibreElement, GluedFunction,
                    LambdaSection, assemble_section, compute_fibre,
                    coordinate_form, pair_residual, rho_pair_inverse,
                    zero_block_form)
from .metric import BlockMetric, GluedMetric
from .numerics import (EPS_NUM, DiffEngine, invert_matrix_generic, nan_first, _dot,
                       _primal)
from .space import LOCUS, EuclideanBlock, GluedPoint, GluedSpace

MEMO_POINTS = 4096   # float points a Koszul closure remembers before it starts over


@dataclass(frozen=True)
class BlockConnection:
    """Christoffel coefficient field on one block."""

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
    d = C.block.dim

    def tensor(x):
        gam = C.christoffel(list(x))
        sval = s(x)
        jac = engine.jacobian(s, x, within=C.block.contains)
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

    return tensor


def covariant_block(C: BlockConnection, t: Callable, s: BlockForm,
                    engine: DiffEngine) -> BlockForm:
    """Contraction of apply_block in the direction slot against the dual field t."""
    tensor = apply_block(C, s, engine)

    def field(x):
        tv = t(x)
        return [_dot(tv, col) for col in zip(*tensor(x))]

    return BlockForm(C.block, field)


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
    d = block.dim

    def field(x):
        ju = engine.jacobian(u, x, within=block.contains)
        jt = engine.jacobian(t, x, within=block.contains)
        tv, uv = t(x), u(x)
        out = []
        for b in range(d):
            total = 0.0
            for a in range(d):
                total = total + tv[a] * ju[b][a] - uv[a] * jt[b][a]
            out.append(total)
        return out

    return field


def phi_apply_block(g: BlockMetric, s: BlockForm) -> Callable:
    """Pairing-map image of a covector field: x -> Gram(x) @ s(x) (generic)."""

    def field(x):
        sv = s(x)
        return [_dot(row, sv) for row in g.gram_generic(x)]

    return field


def phi_invert_block(g: BlockMetric, t: Callable) -> BlockForm:
    def field(x):
        tv = t(x)
        return [_dot(row, tv) for row in invert_matrix_generic(g.gram_generic(x))]

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

def koszul_solve(g: BlockMetric, engine: DiffEngine) -> BlockConnection:
    """Unique symmetric metric-compatible connection, by the Koszul identity.

    Evaluates the Koszul right-hand side on the coordinate dual frame (the
    three bracket terms vanish for coordinate frames; asserted numerically
    at the block seeds) and solves the dual Gram system for the Christoffel
    coefficients.

    The closure keeps its value at each float point (at most MEMO_POINTS, then
    it starts over) as an immutable tuple nest, exactly: Gamma at a point
    depends only on the metric there.  Dual inputs are solved afresh.
    """
    block = g.block
    d = block.dim

    # coordinate dual-frame brackets must vanish; assert rather than trust
    frame = [coordinate_form(block, a) for a in range(d)]
    for seed in block.seed_points:
        for a in range(d):
            for b in range(d):
                br = lie_bracket_dual_block(frame[a], frame[b], engine, block)
                vals = [abs(_primal(c)) for c in br(list(seed))]
                if max(vals) > EPS_NUM:
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

    return BlockConnection(block, christoffel)


def christoffel_closed_form(g: BlockMetric, engine: DiffEngine) -> Callable:
    """Closed-form Christoffel oracle on the dual-side Gram.

    Gamma^k_{ij} = 1/2 sum_l G_dual^{-1}[k,l] (d_i Gd[j,l] + d_j Gd[i,l]
    - d_l Gd[i,j]) with the dual-Gram derivatives taken analytically through
    the inverse: dGd = -Gd (dGram) Gd.  Float-only; this is the independent
    cross-check route for koszul_solve.
    """
    block = g.block
    d = block.dim

    def gram_flat(x):
        return [v for row in g.gram_generic(x) for v in row]

    def christoffel(x):
        gram = g.gram(x)
        gd = np.linalg.inv(gram)
        # dgram[a, i, j] = d_a Gram[i, j]
        dgram = _primal(engine.jacobian(gram_flat, x, within=block.contains)).T.reshape(d, d, d)
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

def _gram_pair_field(g: BlockMetric, s: BlockForm, t: BlockForm) -> Callable:
    """Scalar field x -> g(s, t)(x) = s_i Gram_ij t_j, dual-safe."""
    d = g.block.dim

    def field(x):
        gram = g.gram_generic(x)
        sv, tv = s(x), t(x)
        total = 0.0
        for i in range(d):
            for j in range(d):
                total = total + sv[i] * gram[i][j] * tv[j]
        return total

    return field


def _compat_sides(C: BlockConnection, g: BlockMetric, s: BlockForm, t: BlockForm,
                  coords, engine: DiffEngine) -> tuple:
    """d(g(s,t)) and g(nabla s, t) + g(s, nabla t) at one point."""
    lhs = _primal(engine.gradient(_gram_pair_field(g, s, t), list(coords),
                                  within=g.block.contains))
    gram = g.gram(list(coords))
    rhs = _primal(apply_block(C, s, engine)(coords)) @ gram @ t.at(coords) \
        + _primal(apply_block(C, t, engine)(coords)) @ gram @ s.at(coords)
    return lhs, rhs


def check_metric_compatible_block(C: BlockConnection, g: BlockMetric,
                                  pairs: Sequence, points: Sequence,
                                  engine: DiffEngine, tol: float) -> CompatResult:
    """d(g(s,t)) = g(nabla s, t) + g(s, nabla t) at sampled points."""
    out = Checks()
    for s, t in pairs:
        for x in points:
            lhs, rhs = _compat_sides(C, g, s, t, x, engine)
            res = float(np.max(np.abs(lhs - rhs)))
            out.check(res, tol, point=list(x), residual=res,
                      lhs=lhs.tolist(), rhs=rhs.tolist())
    return out.compat()


def check_connections_compatible(space: GluedSpace, nabla1: BlockConnection,
                                 nabla2: BlockConnection) -> CompatResult:
    """Locus pullback agreement of the two connection tensors.

    For each sampled locus point and section of the space's family, both
    tensor values are pulled onto the locus through the tangential covector
    maps and compared.  Point-set loci have a zero pullback target, so the
    check is vacuously true there.
    """
    eng = space.engine
    out = Checks()
    if space.locus.kind == "point_set":
        return out.compat()
    sections = section_family(space)
    tol = eng.config.tol("connections")
    for p in space.region_samples()[LOCUS]:
        fr = space.locus_frames(p.coords)
        p1 = fr.t1.T
        p2 = fr.t2.T
        for s in sections:
            a1 = _primal(apply_block(nabla1, s.s1, eng)(p.coords))
            a2 = _primal(apply_block(nabla2, s.s2, eng)(p.coords2))
            lhs = p1 @ a1 @ p1.T
            rhs = p2 @ a2 @ p2.T
            res = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0
            out.check(res, tol, point=list(p.coords), residual=res,
                      pulled1=lhs.tolist(), pulled2=rhs.tolist())
    return out.compat()


# -- glued connection ----------------------------------------------------------


def joint_range_residual(fibre, a1: np.ndarray, a2: np.ndarray) -> float:
    """Feasibility of (a1, a2) as block projections of a pair-fibre 2-tensor."""
    b1 = fibre.block_basis(1).T
    b2 = fibre.block_basis(2).T
    system = np.vstack([np.kron(b1, b1), np.kron(b2, b2)])
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
        """One float matrix per entry of ``point.sides``; over the locus the
        pair must lie in the tensor square of the compatible subspace."""
        matrices = [_primal((self.f1, self.f2)[w - 1](x)) for w, x in point.sides]
        if len(matrices) == 2:
            a1, a2 = matrices
            res = joint_range_residual(compute_fibre(self.space, point), a1, a2)
            scale = 1.0 + max(float(np.max(np.abs(a1))), float(np.max(np.abs(a2))))
            if res > self.space.engine.config.tol("tensor-membership") * scale:
                raise IncompatiblePair(
                    f"tensor pair escapes the compatible square at {point.coords} "
                    f"(residual {res:.3e})")
        return matrices


class GluedConnection:
    """Pair of compatible block connections with the three-case evaluation."""

    def __init__(self, space: GluedSpace, metric: GluedMetric,
                 nabla1: BlockConnection, nabla2: BlockConnection):
        self.space = space
        self.metric = metric
        self.nabla1 = nabla1
        self.nabla2 = nabla2

    def apply(self, s: LambdaSection) -> GluedTensorField:
        eng = self.space.engine
        return GluedTensorField(self.space,
                                apply_block(self.nabla1, s.s1, eng),
                                apply_block(self.nabla2, s.s2, eng))


def glue_connections(space: GluedSpace, metric: GluedMetric,
                     nabla1: BlockConnection, nabla2: BlockConnection) -> GluedConnection:
    """Gate the pair through both compatibility checks and assemble."""
    result = check_connections_compatible(space, nabla1, nabla2)
    if not result:
        raise IncompatibleConnections(f"connections incompatible: {result.witness}")
    return GluedConnection(space, metric, nabla1, nabla2)


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
    """Sampled torsion bound over a spanning family of section pairs."""
    out = Checks()
    for s, r in pairs:
        field = torsion(C, s, r)
        for p in points:
            val = field.at(p)
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
    space = C.space
    eng = space.engine
    g1, g2 = C.metric.g1, C.metric.g2
    out = Checks()
    for s, t in pairs:
        k = GluedFunction(space, _gram_pair_field(g1, s.s1, t.s1),
                          _gram_pair_field(g2, s.s2, t.s2))
        for p in points:
            sides = [_compat_sides((C.nabla1, C.nabla2)[w - 1], (g1, g2)[w - 1],
                                   (s.s1, s.s2)[w - 1], (t.s1, t.s2)[w - 1], x, eng)
                     for w, x in p.sides]
            res = max((float(np.max(np.abs(lhs - rhs))) for lhs, rhs in sides), key=nan_first)
            if len(sides) == 2:
                # collapse: the split values of g(s,t) agree over the locus,
                # so the function is glued there.  Point-set loci admit
                # mixing section pairs for which no glued function exists;
                # the identity is vacuous at fibre level for those and only
                # the block (pair level) identities apply.
                v1, v2 = k.side_values(p)
                collapse = abs(v1 - v2) / (1.0 + abs(v1) + abs(v2))
                if space.locus.kind != "point_set":
                    res = max(res, collapse, key=nan_first)
                if collapse <= 1e-6:
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
    def field(z):
        rows = space.f.inverse_jacobian(list(z))
        w = s1(space.f.inverse(list(z)))
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
    """The seeded compatible sections of the space, drawn from ``plan.seed`` and
    assembled once (memoized on the space, like fibres); the connection gate
    and every suite that quantifies over sections read them."""
    if "_section_family" not in space.__dict__:
        raw = compatible_section_pairs(space, np.random.default_rng(space.plan.seed))
        space._section_family = tuple(assemble_section(space, s1, s2) for s1, s2 in raw)
    return space._section_family


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
