"""Connections on the cotangent-like bundle, over blocks and glued spaces.

A block connection is a Christoffel coefficient field Gamma[k][i][j] acting
on covector sections by (nabla s)_{ij} = d_i s_j - Gamma^k_{ij} s_k, with the
first index the direction-form slot.  The Levi-Civita solver assembles the
Koszul right-hand side in the coordinate dual frame (whose brackets vanish,
asserted numerically) and solves the dual Gram system; an independent
closed-form Christoffel oracle built on the dual-side Gram cross-checks it.

Over a glued space every operator follows the three-case rule of the seam
calculus: block values off the locus, and over the locus the pair of block
values, constrained to the compatible subspace.  Tensor values over locus
points are represented by their pair of block projections; membership of
the pair in the tensor square of the compatible subspace is a linear
feasibility check run at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import IncompatibleConnections, IncompatiblePair, ValidationError
from .fields import PolyField, random_poly
from .forms import (BlockForm, CompatResult, FibreElement, GluedFunction,
                    LambdaSection, compute_fibre, coordinate_form,
                    pair_residual, rho_pair_inverse, zero_block_form)
from .metric import BlockMetric, GluedMetric
from .numerics import EPS_NUM, DiffEngine, invert_matrix_generic, _primal
from .space import BLOCK1, BLOCK2, LOCUS, EuclideanBlock, GluedPoint, GluedSpace


@dataclass(frozen=True)
class BlockConnection:
    """Christoffel coefficient field on one block."""

    block: EuclideanBlock
    christoffel: Callable   # coords -> Gamma[k][i][j], generic arithmetic

    def gamma(self, coords) -> np.ndarray:
        raw = self.christoffel(list(coords))
        d = self.block.dim
        return np.asarray([[[_primal(raw[k][i][j]) for j in range(d)]
                            for i in range(d)] for k in range(d)], dtype=float)


def zero_connection(block: EuclideanBlock) -> BlockConnection:
    d = block.dim
    zero = [[[0.0] * d for _ in range(d)] for _ in range(d)]
    return BlockConnection(block, lambda x: zero)


def apply_block(C: BlockConnection, s: BlockForm, engine: DiffEngine) -> Callable:
    """Tensor field x -> rows[i][j] = d_i s_j - Gamma^k_{ij} s_k (generic)."""
    d = C.block.dim

    def tensor(x):
        gam = C.christoffel(list(x))
        sval = [f(x) for f in s.components]
        jac = [engine.gradient(f, x, within=C.block.contains) for f in s.components]
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


def tensor_array(tensor: Callable, x) -> np.ndarray:
    rows = tensor(x)
    return np.asarray([[_primal(v) for v in row] for row in rows], dtype=float)


def covariant_block(C: BlockConnection, t_comps: Sequence[Callable],
                    s: BlockForm, engine: DiffEngine) -> BlockForm:
    """Contraction of apply_block in the direction slot against dual components."""
    d = C.block.dim
    tensor = apply_block(C, s, engine)

    def component(x, j):
        rows = tensor(x)
        total = 0.0
        for i in range(d):
            total = total + t_comps[i](x) * rows[i][j]
        return total

    return BlockForm(C.block, tuple((lambda x, j=j: component(x, j)) for j in range(d)))


# -- dual-side machinery -----------------------------------------------------

def action_block(t_comps: Sequence[Callable], h: Callable, engine: DiffEngine,
                 block: EuclideanBlock) -> Callable:
    """Scalar field x -> sum_a t_a(x) * d_a h(x); composable and dual-safe."""

    def field(x):
        grad = engine.gradient(h, x, within=block.contains)
        total = 0.0
        for a in range(block.dim):
            total = total + t_comps[a](x) * grad[a]
        return total

    return field


def lie_bracket_dual_block(t: Sequence[Callable], u: Sequence[Callable],
                           engine: DiffEngine, block: EuclideanBlock) -> tuple:
    """Classical bracket of coefficient fields: [t,u]^b = t^a d_a u^b - u^a d_a t^b."""
    d = block.dim

    def component(x, b):
        gu = engine.gradient(u[b], x, within=block.contains)
        gt = engine.gradient(t[b], x, within=block.contains)
        total = 0.0
        for a in range(d):
            total = total + t[a](x) * gu[a] - u[a](x) * gt[a]
        return total

    return tuple((lambda x, b=b: component(x, b)) for b in range(d))


def phi_apply_block(g: BlockMetric, s: BlockForm) -> tuple:
    """Pairing-map image of a covector field: components Gram @ s (generic)."""
    d = g.block.dim

    def component(x, a):
        gram = g.gram_generic(x)
        total = 0.0
        for b in range(d):
            total = total + gram[a][b] * s.components[b](x)
        return total

    return tuple((lambda x, a=a: component(x, a)) for a in range(d))


def phi_invert_block(g: BlockMetric, comps: Sequence[Callable]) -> BlockForm:
    d = g.block.dim

    def component(x, a):
        inv = invert_matrix_generic(g.gram_generic(x))
        total = 0.0
        for b in range(d):
            total = total + inv[a][b] * comps[b](x)
        return total

    return BlockForm(g.block, tuple((lambda x, a=a: component(x, a)) for a in range(d)))


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


def covariant_dual_block(C: BlockConnection, t: Sequence[Callable],
                         u: Sequence[Callable], engine: DiffEngine,
                         coords) -> np.ndarray:
    """Dual-bundle covariant derivative (nabla*_t u)^c = t^a (d_a u^c + G^c_ab u^b)."""
    d = C.block.dim
    gam = C.gamma(coords)
    tv = np.asarray([_primal(f(list(coords))) for f in t])
    uv = np.asarray([_primal(f(list(coords))) for f in u])
    du = np.asarray([[_primal(v) for v in
                      engine.gradient(f, list(coords), within=C.block.contains)]
                     for f in u])  # du[c][a] = d_a u^c
    out = np.empty(d)
    for c in range(d):
        out[c] = float(tv @ du[c]) + float(tv @ gam[c] @ uv)
    return out


def torsion_dual_block(C: BlockConnection, t: Sequence[Callable],
                       u: Sequence[Callable], engine: DiffEngine,
                       coords) -> np.ndarray:
    """Dual-side torsion value nabla*_t u - nabla*_u t - [t,u] at one point."""
    br = lie_bracket_dual_block(t, u, engine, C.block)
    brv = np.asarray([_primal(f(list(coords))) for f in br])
    return covariant_dual_block(C, t, u, engine, coords) \
        - covariant_dual_block(C, u, t, engine, coords) - brv


# -- Koszul solver ------------------------------------------------------------

def _dual_gram_entry_field(g: BlockMetric, b: int, c: int) -> Callable:
    """Entry (b, c) of the dual-side Gram as a generic scalar field."""
    return lambda x: invert_matrix_generic(g.gram_generic(x))[b][c]


def koszul_solve(g: BlockMetric, engine: DiffEngine) -> BlockConnection:
    """Unique symmetric metric-compatible connection, by the Koszul identity.

    Evaluates the Koszul right-hand side on the coordinate dual frame (the
    three bracket terms vanish for coordinate frames; asserted numerically
    at the block seeds) and solves the dual Gram system for the Christoffel
    coefficients.
    """
    block = g.block
    d = block.dim

    # coordinate dual-frame brackets must vanish; assert rather than trust
    frame = [tuple((lambda x, i=i, a=a: 1.0 if i == a else 0.0) for i in range(d))
             for a in range(d)]
    for seed in block.seed_points:
        for a in range(d):
            for b in range(d):
                br = lie_bracket_dual_block(frame[a], frame[b], engine, block)
                vals = [abs(_primal(c(list(seed)))) for c in br]
                if max(vals) > EPS_NUM:
                    raise ValidationError("coordinate-frame bracket failed to vanish")

    entry_fields = [[_dual_gram_entry_field(g, b, c) for c in range(d)] for b in range(d)]

    def christoffel(x):
        # dgs[a][b][c] = d_a of dual Gram entry (b, c)
        grads = [[engine.gradient(entry_fields[b][c], x, within=block.contains)
                  for c in range(d)] for b in range(d)]
        gram = g.gram_generic(x)
        gamma = [[[0.0] * d for _ in range(d)] for _ in range(d)]
        for a in range(d):
            for b in range(d):
                rhs = [grads[b][c][a] + grads[c][a][b] - grads[a][b][c]
                       for c in range(d)]
                for k in range(d):
                    total = 0.0
                    for c in range(d):
                        total = total + gram[k][c] * rhs[c]
                    gamma[k][a][b] = 0.5 * total
        return gamma

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

    def christoffel(x):
        gram = g.gram(x)
        gd = np.linalg.inv(gram)
        dgram = np.empty((d, d, d))
        for i in range(d):
            for j in range(d):
                grad = engine.gradient_array(
                    lambda xx, i=i, j=j: g.entries[i][j](xx), x, within=block.contains)
                dgram[:, i, j] = grad
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


def perturb_connection(C: BlockConnection, rng: np.random.Generator,
                       scale: float = 0.1) -> BlockConnection:
    """Add a fixed random offset to the Christoffel field (spot checks)."""
    d = C.block.dim
    delta = rng.uniform(0.2, 1.0, size=(d, d, d)) * scale

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
        total = 0.0
        for i in range(d):
            for j in range(d):
                total = total + s.components[i](x) * gram[i][j] * t.components[j](x)
        return total

    return field


def _compat_sides(C: BlockConnection, g: BlockMetric, s: BlockForm, t: BlockForm,
                  coords, engine: DiffEngine) -> tuple:
    """d(g(s,t)) and g(nabla s, t) + g(s, nabla t) at one point."""
    lhs = engine.gradient_array(_gram_pair_field(g, s, t), list(coords),
                                within=g.block.contains)
    gram = g.gram(list(coords))
    rhs = tensor_array(apply_block(C, s, engine), coords) @ gram @ t.at(coords) \
        + tensor_array(apply_block(C, t, engine), coords) @ gram @ s.at(coords)
    return lhs, rhs


def check_metric_compatible_block(C: BlockConnection, g: BlockMetric,
                                  pairs: Sequence, points: Sequence,
                                  engine: DiffEngine, tol: float) -> CompatResult:
    """d(g(s,t)) = g(nabla s, t) + g(s, nabla t) at sampled points."""
    worst, witness, n = 0.0, None, 0
    for s, t in pairs:
        for x in points:
            lhs, rhs = _compat_sides(C, g, s, t, x, engine)
            res = float(np.max(np.abs(lhs - rhs)))
            n += 1
            if res > worst:
                worst = res
                witness = {"point": list(x), "residual": res,
                           "lhs": lhs.tolist(), "rhs": rhs.tolist()}
    return CompatResult(worst <= tol, worst, None if worst <= tol else witness, n)


def check_connections_compatible(space: GluedSpace, nabla1: BlockConnection,
                                 nabla2: BlockConnection,
                                 engine: Optional[DiffEngine] = None,
                                 pairs: Optional[Sequence] = None) -> CompatResult:
    """Locus pullback agreement of the two connection tensors.

    For each sampled locus point and compatible section pair, both tensor
    values are pulled onto the locus through the tangential covector maps
    and compared.  Point-set loci have a zero pullback target, so the check
    is vacuously true there.
    """
    space.require_hypotheses()
    eng = engine or space.engine
    if space.locus.kind == "point_set":
        return CompatResult(True, 0.0, None, 0)
    if pairs is None:
        pairs = compatible_section_pairs(space, np.random.default_rng(space.plan.seed))
    worst, witness, n = 0.0, None, 0
    for y in space.locus_points():
        fr = space.locus_frames(y)
        p1 = fr.t1.T
        p2 = fr.t2.T
        for s1, s2 in pairs:
            a1 = tensor_array(apply_block(nabla1, s1, eng), y)
            a2 = tensor_array(apply_block(nabla2, s2, eng), fr.image)
            lhs = p1 @ a1 @ p1.T
            rhs = p2 @ a2 @ p2.T
            res = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0
            n += 1
            if res > worst:
                worst = res
                witness = {"point": list(y), "residual": res,
                           "pulled1": lhs.tolist(), "pulled2": rhs.tolist()}
    tol = max(10.0 * eng.config.suite_tol, EPS_NUM * 100)
    return CompatResult(worst <= tol, worst, None if worst <= tol else witness, n)


# -- glued connection ----------------------------------------------------------


@dataclass(frozen=True)
class TensorValue:
    """Value of a glued bundle-squared section at one point.

    Over locus points both block projections are carried; membership of the
    pair in the tensor square of the compatible subspace is recorded as the
    least-squares feasibility residual.
    """

    point: GluedPoint
    m1: Optional[np.ndarray]
    m2: Optional[np.ndarray]
    membership_residual: float = 0.0


def joint_range_residual(fibre, a1: np.ndarray, a2: np.ndarray) -> float:
    """Feasibility of (a1, a2) as block projections of a pair-fibre 2-tensor."""
    b1 = fibre.basis[:, : fibre.d1].T
    b2 = fibre.basis[:, fibre.d1:].T
    system = np.vstack([np.kron(b1, b1), np.kron(b2, b2)])
    target = np.concatenate([a1.reshape(-1), a2.reshape(-1)])
    sol, *_ = np.linalg.lstsq(system, target, rcond=None)
    return float(np.max(np.abs(system @ sol - target)))


class GluedTensorField:
    """Section of the tensor square over the glued space, via block splits."""

    def __init__(self, space: GluedSpace, f1: Callable, f2: Callable,
                 check_membership: bool = True):
        self.space = space
        self.f1 = f1
        self.f2 = f2
        self.check_membership = check_membership

    def at(self, point: GluedPoint) -> TensorValue:
        if point.region == BLOCK1:
            return TensorValue(point, tensor_array(self.f1, point.coords), None)
        if point.region == BLOCK2:
            return TensorValue(point, None, tensor_array(self.f2, point.coords))
        a1 = tensor_array(self.f1, point.coords)
        a2 = tensor_array(self.f2, point.coords2)
        res = 0.0
        if self.check_membership:
            fibre = compute_fibre(self.space, point)
            res = joint_range_residual(fibre, a1, a2)
            scale = 1.0 + max(float(np.max(np.abs(a1))), float(np.max(np.abs(a2))))
            if res > 1e-6 * scale:
                raise IncompatiblePair(
                    f"tensor pair escapes the compatible square at {point.coords} "
                    f"(residual {res:.3e})")
        return TensorValue(point, a1, a2, res)


class GluedConnection:
    """Pair of compatible block connections with the three-case evaluation."""

    def __init__(self, space: GluedSpace, metric: GluedMetric,
                 nabla1: BlockConnection, nabla2: BlockConnection):
        self.space = space
        self.metric = metric
        self.nabla1 = nabla1
        self.nabla2 = nabla2

    def apply(self, s: LambdaSection, engine: Optional[DiffEngine] = None) -> GluedTensorField:
        eng = engine or self.space.engine
        return GluedTensorField(self.space,
                                apply_block(self.nabla1, s.s1, eng),
                                apply_block(self.nabla2, s.s2, eng))


def glue_connections(space: GluedSpace, metric: GluedMetric,
                     nabla1: BlockConnection, nabla2: BlockConnection,
                     engine: Optional[DiffEngine] = None,
                     pairs: Optional[Sequence] = None) -> GluedConnection:
    """Gate the pair through both compatibility checks and assemble."""
    result = check_connections_compatible(space, nabla1, nabla2, engine, pairs)
    if not result:
        raise IncompatibleConnections(f"connections incompatible: {result.witness}")
    return GluedConnection(space, metric, nabla1, nabla2)


# -- glued dual sections and the operator calculus -----------------------------


@dataclass(frozen=True)
class DualSection:
    """Dual section over the glued space, via block coefficient fields.

    Over a locus point the pair acts on the compatible subspace only,
    through the half-weighted pairing (consistent with the glued metric).
    """

    space: GluedSpace
    t1: tuple
    t2: tuple

    def at(self, point: GluedPoint) -> np.ndarray:
        if point.region == BLOCK1:
            return np.asarray([_primal(f(list(point.coords))) for f in self.t1])
        if point.region == BLOCK2:
            return np.asarray([_primal(f(list(point.coords))) for f in self.t2])
        fibre = compute_fibre(self.space, point)
        v1 = np.asarray([_primal(f(list(point.coords))) for f in self.t1])
        v2 = np.asarray([_primal(f(list(point.coords2))) for f in self.t2])
        b1 = fibre.basis[:, : fibre.d1]
        b2 = fibre.basis[:, fibre.d1:]
        return 0.5 * (b1 @ v1) + 0.5 * (b2 @ v2)


def phi_glued(G: GluedMetric, s: LambdaSection) -> DualSection:
    return DualSection(G.space, phi_apply_block(G.g1, s.s1), phi_apply_block(G.g2, s.s2))


def action(t: DualSection, h: GluedFunction, engine: Optional[DiffEngine] = None) -> Callable:
    """t(h): pointwise pairing with the differential; half-weighted on the locus."""
    space = t.space
    eng = engine or space.engine
    a1 = action_block(t.t1, h.h1, eng, space.block1)
    a2 = action_block(t.t2, h.h2, eng, space.block2)

    def value(point: GluedPoint) -> float:
        if point.region == BLOCK1:
            return float(_primal(a1(list(point.coords))))
        if point.region == BLOCK2:
            return float(_primal(a2(list(point.coords))))
        return 0.5 * float(_primal(a1(list(point.coords)))) \
            + 0.5 * float(_primal(a2(list(point.coords2))))

    return value


def lie_bracket_forms(G: GluedMetric, s: LambdaSection, r: LambdaSection,
                      engine: Optional[DiffEngine] = None) -> LambdaSection:
    """Pairing-conjugated bracket, by the three-case splitting."""
    eng = engine or G.space.engine
    return LambdaSection(G.space,
                         lie_bracket_forms_block(G.g1, s.s1, r.s1, eng),
                         lie_bracket_forms_block(G.g2, s.s2, r.s2, eng))


def covariant_derivative(C: GluedConnection, t: DualSection,
                         s: LambdaSection, engine: Optional[DiffEngine] = None) -> LambdaSection:
    """Covariant derivative along a dual section, by the case formula."""
    eng = engine or C.space.engine
    return LambdaSection(C.space,
                         covariant_block(C.nabla1, t.t1, s.s1, eng),
                         covariant_block(C.nabla2, t.t2, s.s2, eng))


def covariant_derivative_along_form(C: GluedConnection, r: LambdaSection,
                                    s: LambdaSection,
                                    engine: Optional[DiffEngine] = None) -> LambdaSection:
    return covariant_derivative(C, phi_glued(C.metric, r), s, engine)


def covariant_via_tensor(C: GluedConnection, t: DualSection, s: LambdaSection,
                         point: GluedPoint,
                         engine: Optional[DiffEngine] = None) -> FibreElement:
    """Direct-contraction route: evaluate the glued tensor, then contract.

    Runs through the glued apply (including the pair-membership gate) and
    contracts the direction slot against the dual components, instead of
    assembling block covariant derivatives.  Must agree with
    covariant_derivative at every point.
    """
    eng = engine or C.space.engine
    tv = C.apply(s, eng).at(point)
    fibre = compute_fibre(C.space, point)
    if point.region == BLOCK1:
        tau = t.at(point)
        return FibreElement(fibre, tau @ tv.m1)
    if point.region == BLOCK2:
        tau = t.at(point)
        return FibreElement(fibre, tau @ tv.m2)
    tau1 = np.asarray([_primal(f(list(point.coords))) for f in t.t1])
    tau2 = np.asarray([_primal(f(list(point.coords2))) for f in t.t2])
    return rho_pair_inverse(fibre, tau1 @ tv.m1, tau2 @ tv.m2,
                            tol=eng.config.membership_tol)


def torsion(C: GluedConnection, s: LambdaSection, r: LambdaSection,
            engine: Optional[DiffEngine] = None) -> LambdaSection:
    """T(s,r) = nabla_s r - nabla_r s - [s,r], from the definition."""
    eng = engine or C.space.engine
    cov_sr = covariant_derivative_along_form(C, s, r, eng)
    cov_rs = covariant_derivative_along_form(C, r, s, eng)
    br = lie_bracket_forms(C.metric, s, r, eng)
    return cov_sr + cov_rs.scaled_const(-1.0) + br.scaled_const(-1.0)


@dataclass(frozen=True)
class TorsionValue:
    point: GluedPoint
    value: FibreElement


def torsion_values(C: GluedConnection, s: LambdaSection, r: LambdaSection,
                   points: Sequence[GluedPoint],
                   engine: Optional[DiffEngine] = None) -> list:
    field = torsion(C, s, r, engine)
    return [TorsionValue(p, field.at(p)) for p in points]


def check_symmetric(C: GluedConnection, pairs: Sequence, points: Sequence[GluedPoint],
                    tol: float, engine: Optional[DiffEngine] = None) -> CompatResult:
    """Sampled torsion bound over a spanning family of section pairs."""
    worst, witness, n = 0.0, None, 0
    for s, r in pairs:
        field = torsion(C, s, r, engine)
        for p in points:
            val = field.at(p)
            res = float(np.max(np.abs(val.components))) if val.components.size else 0.0
            n += 1
            if res > worst:
                worst = res
                witness = {"point": list(p.coords), "region": p.region,
                           "torsion": val.components.tolist(), "residual": res}
    return CompatResult(worst <= tol, worst, None if worst <= tol else witness, n)


def check_metric_compatible_glued(C: GluedConnection, pairs: Sequence,
                                  samples: dict, tol: float,
                                  engine: Optional[DiffEngine] = None) -> CompatResult:
    """d(g(s,t)) = g(nabla s, t) + g(s, nabla t) over the glued space.

    The identity is evaluated through the block splits (the observable
    content over every region); over locus points the split values of
    g(s,t) must also agree (the collapse property of compatible metrics),
    which makes the glued function well-defined there.
    """
    space = C.space
    eng = engine or space.engine
    g1, g2 = C.metric.g1, C.metric.g2
    worst, witness, n = 0.0, None, 0
    for s, t in pairs:
        k1 = _gram_pair_field(g1, s.s1, t.s1)
        k2 = _gram_pair_field(g2, s.s2, t.s2)

        def block_residual(which, coords):
            side = (C.nabla1, g1, s.s1, t.s1) if which == 1 else (C.nabla2, g2, s.s2, t.s2)
            lhs, rhs = _compat_sides(*side, coords, eng)
            return float(np.max(np.abs(lhs - rhs)))

        for p in samples[BLOCK1]:
            res = block_residual(1, p.coords)
            n += 1
            if res > worst:
                worst, witness = res, {"point": list(p.coords), "region": BLOCK1,
                                       "residual": res}
        for p in samples[BLOCK2]:
            res = block_residual(2, p.coords)
            n += 1
            if res > worst:
                worst, witness = res, {"point": list(p.coords), "region": BLOCK2,
                                       "residual": res}
        for p in samples[LOCUS]:
            res = max(block_residual(1, p.coords), block_residual(2, p.coords2))
            # collapse: the split values of g(s,t) agree over the locus, so
            # the function is glued there.  Point-set loci admit mixing
            # section pairs for which no glued function exists; the identity
            # is vacuous at fibre level for those and only the block (pair
            # level) identities apply.
            v1 = float(_primal(k1(list(p.coords))))
            v2 = float(_primal(k2(list(p.coords2))))
            collapse = abs(v1 - v2) / (1.0 + abs(v1) + abs(v2))
            collapse_expected = space.locus.kind != "point_set"
            if collapse_expected:
                res = max(res, collapse)
            if collapse <= 1e-6:
                # well-posed glued function: its split differentials must
                # form a compatible pair over the locus fibre
                dk1 = eng.gradient_array(k1, list(p.coords), within=g1.block.contains)
                dk2 = eng.gradient_array(k2, list(p.coords2), within=g2.block.contains)
                fibre = compute_fibre(space, p)
                _, mem = pair_residual(fibre, dk1, dk2)
                res = max(res, mem)
            n += 1
            if res > worst:
                worst, witness = res, {"point": list(p.coords), "region": LOCUS,
                                       "residual": res}
    return CompatResult(worst <= tol, worst, None if worst <= tol else witness, n)


# -- section and function families ---------------------------------------------

def pushforward_form(space: GluedSpace, s1: BlockForm,
                     engine: Optional[DiffEngine] = None) -> BlockForm:
    """Block-2 section matching s1 through a globally extending gluing map.

    Components: s2_j(z) = sum_i d(f^-1)_i/dz_j (z) * s1_i(f^-1(z)).  The
    inverse Jacobian comes from the map's analytic Jacobian when present;
    a finite-difference inner Jacobian would inject noise that outer
    derivatives amplify.
    """
    eng = engine or space.engine
    d2 = space.block2.dim

    def component(z, j):
        y = space.f.inverse(list(z))
        if space.f.jacobian is not None:
            rows = invert_matrix_generic(space.f.jacobian(list(y)))
        else:
            rows = eng.jacobian(space.f.inverse, z)
        w = s1(y)
        total = 0.0
        for i in range(space.block1.dim):
            total = total + rows[i][j] * w[i]
        return total

    return BlockForm(space.block2, tuple((lambda z, j=j: component(z, j))
                                         for j in range(d2)))


def block_form_family(block: EuclideanBlock, rng: np.random.Generator,
                      extra: int = 8) -> list:
    """Coordinate sections, low-degree scaled sections, and random sections."""
    out = [coordinate_form(block, a) for a in range(block.dim)]
    for a in range(block.dim):
        for b in range(block.dim):
            p = PolyField.coordinate(block.dim, b)
            comps = tuple((lambda x, i=i, a=a, p=p: p(x) if i == a else 0.0)
                          for i in range(block.dim))
            out.append(BlockForm(block, comps))
    for _ in range(extra):
        polys = [random_poly(rng, block.dim, degree=2) for _ in range(block.dim)]
        out.append(BlockForm(block, tuple((lambda x, f=f: f(x)) for f in polys)))
    return out


def compatible_section_pairs(space: GluedSpace, rng: np.random.Generator,
                             extra: int = 8) -> list:
    """Compatible (s1, s2) pairs for glued-space suites.

    Point-set loci accept independent pairs (including one-sided ones);
    otherwise block-1 family members are pushed through the gluing map,
    which requires a globally extending map.
    """
    fam1 = block_form_family(space.block1, rng, extra)
    if space.locus.kind == "point_set":
        fam2 = block_form_family(space.block2, rng, extra)
        pairs = list(zip(fam1, fam2[::-1]))
        pairs.append((fam1[0], zero_block_form(space.block2)))
        pairs.append((zero_block_form(space.block1), fam2[0]))
        return pairs
    if not space.f.extends_globally:
        raise ValidationError(
            "cannot synthesize compatible sections: gluing map does not extend "
            "globally; provide explicit section pairs")
    return [(s1, pushforward_form(space, s1)) for s1 in fam1]


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


def glued_function_family(space: GluedSpace, rng: np.random.Generator,
                          count: int = 5) -> list:
    """Compatible scalar-function pairs: mirrored polynomials plus seam extras."""
    if space.locus.kind != "point_set" and not space.f.extends_globally:
        raise ValidationError("cannot synthesize glued functions without a "
                              "globally extending gluing map")
    out = []
    for _ in range(count):
        h1 = random_poly(rng, space.block1.dim, degree=2)

        def h2(z, h1=h1):
            return h1(space.f.inverse(list(z)))

        out.append(GluedFunction(space, h1, h2).validate())
    extras = _image_residual_fields(space)
    zero1 = lambda x: 0.0
    for q in extras[: 2]:
        out.append(GluedFunction(space, zero1, q).validate())
    # constant and coordinate-like controls
    out.append(GluedFunction(space, lambda x: 1.0, lambda z: 1.0).validate())
    return out
