"""Covector fields on blocks, glued fibres, and glued sections.

Over a block point the cotangent-like fibre is the coordinate covector
space R^dim.  Over a locus point it is the subspace of compatible pairs
(a, b) in R^dim1 x R^dim2 cut out by matching the tangential pullbacks of
the two sides: rows of the relation matrix are sampled tangent directions
of the locus (all of them for an open subdomain, the parametrization
directions for a submanifold, none for a point set).

Glued sections are stored through their block splits (s1, s2) and follow
the seam rule of :attr:`~diffglue.space.GluedPoint.sides`: off the locus the
block value is the fibre element; over it the pair of side values is solved
for fibre coordinates in the compatible-pair basis, and pairs that escape
the subspace are rejected.  Glued functions half-weight their side values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (DimensionMismatch, IncompatiblePair, IncompatibleSections,
                     NotAFunctionOnGluedSpace, OutsideDomain, RankAmbiguous)
from .numerics import EPS_NUM, SVD_CUTOFF_REL, DiffEngine, _primal, nan_first
from .space import LOCUS, EuclideanBlock, GluedPoint, GluedSpace, seam_mean


@dataclass(frozen=True, eq=False)
class BlockForm:
    """Covector field on a block: one callable ``x -> [dim components]`` in
    the coordinate coframe, with generic arithmetic (dual-safe).  Compared
    and hashed by identity, as the point store keys on it."""

    block: EuclideanBlock
    field: Callable

    def __call__(self, coords) -> list:
        out = self.field(coords)
        if len(out) != self.block.dim:
            raise DimensionMismatch(
                f"form has {len(out)} components on a dim-{self.block.dim} block")
        return out

    def at(self, coords) -> np.ndarray:
        require_inside(self.block, coords)
        return _primal(self(coords))

    def __add__(self, other: "BlockForm") -> "BlockForm":
        return BlockForm(self.block,
                         lambda x: [a + b for a, b in zip(self(x), other(x))])


def require_inside(block: EuclideanBlock, coords) -> None:
    """The domain check of a float value at a block point."""
    if not block.contains(list(coords)):
        raise OutsideDomain(f"{tuple(coords)} outside {block.name}")


def zero_block_form(block: EuclideanBlock) -> BlockForm:
    return BlockForm(block, lambda x: [0.0] * block.dim)


def coordinate_form(block: EuclideanBlock, axis: int) -> BlockForm:
    return BlockForm(block, lambda x: [1.0 if i == axis else 0.0
                                       for i in range(block.dim)])


def differential_block(block: EuclideanBlock, h: Callable, engine: DiffEngine) -> BlockForm:
    """Differential of a scalar field: components are the gradient."""
    return BlockForm(block, lambda x: engine.gradient(h, x, within=block.contains))


@dataclass(frozen=True)
class CompatResult:
    """Outcome of a sampled compatibility check; falsy results carry a witness."""

    ok: bool
    max_residual: float = 0.0
    witness: Optional[dict] = None
    samples: int = 0

    def __bool__(self):
        return self.ok


class Checks:
    """Worst residual and its witness, failing witnesses and sample count."""

    def __init__(self):
        self.worst = 0.0
        self.worst_witness: Optional[dict] = None
        self.witnesses: list = []
        self.samples = 0

    def check(self, res: float, tol: float, samples: int = 1, **witness) -> None:
        """Track a residual over ``samples`` evaluations; above tol it fails."""
        if nan_first(res) > nan_first(self.worst):
            self.worst = res
            self.worst_witness = witness
        self.samples += samples
        if not res <= tol:
            self.witnesses.append(witness)

    def expect(self, ok: bool, samples: int = 1, **witness) -> bool:
        """Count ``samples`` evaluations of a check without a residual."""
        self.samples += samples
        if not ok:
            self.witnesses.append(witness)
        return ok

    def fold(self, r: CompatResult, **context) -> None:
        """Fold in a CompatResult; context wraps its witness."""
        self.worst = max(self.worst, r.max_residual, key=nan_first)
        self.samples += r.samples
        if not r:
            self.witnesses.append(dict(context, witness=r.witness) if context
                                  else r.witness)

    def compat(self) -> CompatResult:
        """The outcome; a failing one carries the witness of the worst residual."""
        ok = not self.witnesses
        return CompatResult(ok, self.worst, None if ok else self.worst_witness, self.samples)


@dataclass(frozen=True)
class FibreModel:
    """Concrete basis model of the glued fibre at one point.

    ``basis`` rows are basis vectors: length dim1 / dim2 over block points,
    length dim1+dim2 (compatible pairs) over locus points.
    """

    point: GluedPoint
    basis: np.ndarray
    d1: int
    d2: int

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def block_basis(self, which: int) -> np.ndarray:
        """Block-``which`` parts of the pair basis over a locus point."""
        return self.basis[:, : self.d1] if which == 1 else self.basis[:, self.d1:]

    @functools.cached_property
    def tensor_system(self) -> np.ndarray:
        """Block projections of pair-fibre 2-tensors over a locus point: rows
        ``kron(B1, B1)`` then ``kron(B2, B2)`` of the block bases ``Bw``,
        built once per fibre for the tensor-membership checks."""
        b1 = self.block_basis(1).T
        b2 = self.block_basis(2).T
        return np.vstack([np.kron(b1, b1), np.kron(b2, b2)])

    def part(self, which: int, components: np.ndarray) -> np.ndarray:
        """rho_which: block-``which`` covector carried by fibre coordinates."""
        sides = self.point.sides
        if which not in (w for w, _ in sides):
            raise IncompatiblePair(
                f"rho{which} undefined over block-{3 - which}-only points")
        return components if len(sides) == 1 else components @ self.block_basis(which)


@dataclass(frozen=True)
class FibreElement:
    fibre: FibreModel
    components: np.ndarray

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float).reshape(-1)
        if comp.shape[0] != self.fibre.dim:
            raise DimensionMismatch(
                f"element has {comp.shape[0]} components in a dim-{self.fibre.dim} fibre")
        object.__setattr__(self, "components", comp)


def relation_matrix(space: GluedSpace, y) -> np.ndarray:
    """Linear relations cutting the compatible pairs out of R^(d1+d2)."""
    fr = space.locus_frames(y)
    d1, d2 = space.block1.dim, space.block2.dim
    k = fr.t1.shape[1]
    if k == 0:
        return np.zeros((0, d1 + d2))
    return np.hstack([fr.t1.T, -fr.t2.T])


def nullspace_basis(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal nullspace rows under the relative singular-value cutoff.

    Rank decisions falling inside the cutoff band fail loudly rather than
    guess (RankAmbiguous).
    """
    rows, cols = matrix.shape
    if rows == 0:
        return np.eye(cols)
    _, sing, vt = np.linalg.svd(matrix)
    smax = sing[0] if sing.size else 0.0
    if smax == 0.0:
        return np.eye(cols)
    cut = SVD_CUTOFF_REL * smax
    for s in sing:
        if 0.1 * cut < s < 10.0 * cut:
            raise RankAmbiguous(
                f"singular value {s:.3e} inside the cutoff band around {cut:.3e}")
    rank = int(np.sum(sing > cut))
    basis = vt[rank:]
    # canonical sign: first significant entry of each basis vector positive
    out = []
    for v in basis:
        idx = int(np.argmax(np.abs(v) > 1e-12))
        if v[idx] < 0:
            v = -v
        out.append(v)
    return np.asarray(out).reshape(-1, cols)


def compute_fibre(space: GluedSpace, point: GluedPoint) -> FibreModel:
    """Fibre of the glued cotangent-like bundle at a point.

    Block-only points carry the block fibre; locus points carry the
    nullspace of the sampled compatibility relations.  Results are memoized
    on the space (fibres are pure functions of the point).
    """
    cache = space.__dict__.setdefault("_fibre_cache", {})
    key = (point.region, point.coords)
    hit = cache.get(key)
    if hit is not None:
        return hit
    d1, d2 = space.block1.dim, space.block2.dim
    if point.region == LOCUS:
        basis = nullspace_basis(relation_matrix(space, point.coords))
    else:
        (which, _), = point.sides
        basis = np.eye((d1, d2)[which - 1])
    fibre = FibreModel(point, basis, d1, d2)
    cache[key] = fibre
    return fibre


def rho1(element: FibreElement) -> np.ndarray:
    return element.fibre.part(1, element.components)


def rho2(element: FibreElement) -> np.ndarray:
    return element.fibre.part(2, element.components)


def pair_residual(fibre: FibreModel, a, b) -> tuple:
    """Least-squares coordinates of (a, b) in the pair basis and the residual."""
    target = np.concatenate([np.asarray(a, float).reshape(-1),
                             np.asarray(b, float).reshape(-1)])
    comps, *_ = np.linalg.lstsq(fibre.basis.T, target, rcond=None)
    res = float(np.max(np.abs(fibre.basis.T @ comps - target)))
    return comps, res


def rho_pair_inverse(fibre: FibreModel, a, b, tol: float = EPS_NUM) -> FibreElement:
    """Element of the locus fibre with the given block parts."""
    if fibre.point.region != LOCUS:
        raise IncompatiblePair("rho_pair_inverse needs a locus fibre")
    comps, res = pair_residual(fibre, a, b)
    scale = 1.0 + float(np.max(np.abs(np.concatenate([np.atleast_1d(a), np.atleast_1d(b)]))))
    if not res <= tol * scale:
        raise IncompatiblePair(
            f"pair escapes the compatible subspace at {fibre.point.coords} "
            f"(residual {res:.3e})")
    return FibreElement(fibre, comps)


class LambdaSection:
    """Section of the glued bundle, stored through its block splits."""

    def __init__(self, space: GluedSpace, s1: BlockForm, s2: BlockForm):
        self.space = space
        self.s1 = s1
        self.s2 = s2

    def side_values(self, point: GluedPoint) -> list:
        return [(self.s1, self.s2)[w - 1].at(x) for w, x in point.sides]

    def at(self, point: GluedPoint) -> FibreElement:
        fibre = compute_fibre(self.space, point)
        return section_element(fibre, self.side_values(point), self.space.engine)

    def __add__(self, other: "LambdaSection") -> "LambdaSection":
        return LambdaSection(self.space, self.s1 + other.s1, self.s2 + other.s2)


def section_element(fibre: FibreModel, values: list, engine: DiffEngine) -> FibreElement:
    """The element of a section with block values ``values``, one per side
    of the fibre's point: over the locus the pair, within the membership
    bound, as derived sections (brackets, covariant derivatives) carry the
    engine's derivative error into their locus values."""
    if len(values) == 1:
        return FibreElement(fibre, values[0])
    return rho_pair_inverse(fibre, *values, tol=engine.config.tol("membership"))


def assemble_section(space: GluedSpace, s1: BlockForm, s2: BlockForm) -> LambdaSection:
    """Assemble block sections into a glued section, checking locus compatibility."""
    for p in space.region_samples()[LOCUS]:
        try:
            rho_pair_inverse(compute_fibre(space, p), s1.at(p.coords), s2.at(p.coords2))
        except IncompatiblePair as exc:
            raise IncompatibleSections(
                f"sections disagree over locus point {p.coords}: {exc}") from exc
    return LambdaSection(space, s1, s2)


@dataclass(frozen=True)
class GluedFunction:
    """Scalar function on the glued space given by a compatible block pair."""

    space: GluedSpace
    h1: Callable
    h2: Callable

    def validate(self):
        for p in self.space.region_samples()[LOCUS]:
            v1, v2 = self.side_values(p)
            if not abs(v1 - v2) <= EPS_NUM * (1.0 + abs(v1) + abs(v2)):
                raise NotAFunctionOnGluedSpace(
                    f"h1({p.coords}) = {v1} but h2(f({p.coords})) = {v2}")
        return self

    def side_values(self, point: GluedPoint) -> list:
        """Float value of each side of ``point``, block 1 first."""
        return [_primal((self.h1, self.h2)[w - 1](list(x))) for w, x in point.sides]

    def value(self, point: GluedPoint) -> float:
        return seam_mean(self.side_values(point))


def differential_glued(space: GluedSpace, h: GluedFunction) -> LambdaSection:
    """Differential of a glued function, by the three-case rule.

    Off the locus this is the block differential; over the locus it is the
    compatible pair of both block differentials, for ``h`` a genuine glued
    function (one that passes :meth:`GluedFunction.validate`).
    """
    d1 = differential_block(space.block1, h.h1, space.engine)
    d2 = differential_block(space.block2, h.h2, space.engine)
    return LambdaSection(space, d1, d2)

