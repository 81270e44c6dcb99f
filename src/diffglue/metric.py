"""Pseudo-metrics on block and glued fibres and their pairing maps.

A block metric is a smooth field of symmetric positive-definite Gram
matrices on the coordinate coframe.  Over a glued space the induced metric
follows the seam rule (:attr:`~diffglue.space.GluedPoint.sides` and
:func:`~diffglue.space.seam_mean`): the block Gram off the locus, and over
the locus the half-weighted sum of both block evaluations on the compatible
pair parts.

Compatibility of two block metrics is decided per locus kind:

* point set -- every pair of covectors is compatible there, so the rule
  quantifies over the full coordinate product: the two Grams must agree
  entrywise (requires equal block dimensions);
* open subdomain -- the compatible pairs form the graph of the transposed
  Jacobian, and the definition reduces to agreement on all basis pairs of
  that graph;
* submanifold -- the compatible-pair space contains pairs with one zero
  component, on which the literal agreement rule cannot hold for any
  positive-definite pair; the meaningful surviving condition is agreement
  of the dual Grams on the locus-tangent pushforwards, which is exactly
  the open-subdomain rule when the locus is open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DimensionMismatch, IncompatibleMetrics, OutsideDomain,
                     SingularGram, ValidationError)
from .forms import (Checks, CompatResult, FibreElement, FibreModel,
                    compute_fibre)
from .numerics import EPS_NUM, PD_FLOOR_REL, _primal
from .space import LOCUS, EuclideanBlock, GluedPoint, GluedSpace, seam_mean


@dataclass(frozen=True, eq=False)
class BlockMetric:
    """Field of Gram matrices of the fibre metric on the coordinate coframe
    (compared and hashed by identity, as the point store keys on it)."""

    block: EuclideanBlock
    entries: tuple   # dim x dim nest of scalar fields

    def __post_init__(self):
        entries = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        d = self.block.dim
        if len(entries) != d or any(len(r) != d for r in entries):
            raise DimensionMismatch("Gram entry grid does not match block dimension")
        for p in self.block.seed_points:
            g = self.gram(p)
            _require_spd(g, where=f"{self.block.name} seed {p}")

    def gram(self, coords) -> np.ndarray:
        return _primal(self.gram_generic(coords))

    def gram_generic(self, coords) -> list:
        """Gram entries with generic arithmetic (dual-safe)."""
        return [[f(coords) for f in row] for row in self.entries]


def _require_spd(g: np.ndarray, where: str = ""):
    if np.max(np.abs(g - g.T)) > EPS_NUM * (1.0 + np.max(np.abs(g))):
        raise ValidationError(f"Gram not symmetric at {where}")
    eig = np.linalg.eigvalsh(0.5 * (g + g.T))
    if eig[0] <= PD_FLOOR_REL * max(eig[-1], 1.0):
        raise ValidationError(f"Gram not positive-definite at {where} (min eig {eig[0]:.3e})")


def constant_metric(block: EuclideanBlock, matrix) -> BlockMetric:
    m = np.asarray(matrix, dtype=float)
    entries = tuple(tuple((lambda x, v=m[i, j]: v) for j in range(block.dim))
                    for i in range(block.dim))
    return BlockMetric(block, entries)


def eval_block_metric(g: BlockMetric, coords, u, v) -> float:
    """u^T Gram(x) v with a domain guard."""
    if not g.block.contains(list(coords)):
        raise OutsideDomain(f"{tuple(coords)} outside {g.block.name}")
    gram = g.gram(coords)
    return float(np.asarray(u, float) @ gram @ np.asarray(v, float))


# -- compatibility ---------------------------------------------------------

def _inverse(matrix: np.ndarray, g: BlockMetric, coords) -> np.ndarray:
    """Inverse of a matrix built from g's Gram at coords; SingularGram if it has none."""
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"{exc}: Gram of {g.block.name} at {tuple(coords)}") from exc


def check_metrics_compatible(space: GluedSpace, g1: BlockMetric,
                             g2: BlockMetric) -> CompatResult:
    """Sampled locus compatibility of two block metrics (rule per locus kind)."""
    tol = space.engine.config.tol("metrics")
    out = Checks()
    kind = space.locus.kind
    for p in space.region_samples()[LOCUS]:
        fr = space.locus_frames(p.coords)
        gram1 = g1.gram(p.coords)
        gram2 = g2.gram(p.coords2)
        if kind == "point_set":
            if gram1.shape != gram2.shape:
                out.check(np.inf, tol, samples=0, point=list(p.coords),
                          detail="full-product rule needs equal block dimensions")
                return out.compat()
            lhs, rhs = gram1, gram2
        else:
            # dual Grams compared on the locus-tangent pushforwards; for an
            # open locus this is the compatible-pair graph rule
            lhs = fr.t1.T @ _inverse(gram1, g1, p.coords) @ fr.t1
            rhs = fr.t2.T @ _inverse(gram2, g2, p.coords2) @ fr.t2
        res = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0
        entry = {}
        if lhs.size:
            i, j = np.unravel_index(int(np.argmax(np.abs(lhs - rhs))), lhs.shape)
            entry = {"pair": [int(i), int(j)], "lhs": float(lhs[i, j]),
                     "rhs": float(rhs[i, j])}
        out.check(res, tol, point=list(p.coords), rule=kind, **entry, residual=res)
    return out.compat()


def canonical_pair_elements(space: GluedSpace, g1: BlockMetric, g2: BlockMetric,
                            fibre: FibreModel) -> list:
    """Compatible pairs on which compatible metrics collapse exactly.

    Point set: coordinate-identified pairs (u, u).  Open subdomain: the
    whole pair basis.  Submanifold: minimum-dual-norm lifts of the locus
    tangent covectors on both sides.
    Returns a list of (a, b) block-part pairs.
    """
    y = fibre.point.coords
    fy = fibre.point.coords2
    kind = space.locus.kind
    if kind == "point_set":
        d = min(space.block1.dim, space.block2.dim)
        eye = np.eye(max(space.block1.dim, space.block2.dim))
        return [(eye[i, : space.block1.dim], eye[i, : space.block2.dim])
                for i in range(d)]
    if kind == "open_subdomain":
        return list(zip(fibre.block_basis(1), fibre.block_basis(2)))
    fr = space.locus_frames(y)
    inv1 = _inverse(g1.gram(y), g1, y)
    inv2 = _inverse(g2.gram(fy), g2, fy)
    m1 = _inverse(fr.t1.T @ inv1 @ fr.t1, g1, y)
    m2 = _inverse(fr.t2.T @ inv2 @ fr.t2, g2, fy)
    out = []
    for tau in np.eye(fr.t1.shape[1]):
        a = inv1 @ fr.t1 @ (m1 @ tau)
        b = inv2 @ fr.t2 @ (m2 @ tau)
        out.append((a, b))
    return out


class GluedMetric:
    """Three-case induced metric on the glued bundle."""

    def __init__(self, space: GluedSpace, g1: BlockMetric, g2: BlockMetric):
        self.space = space
        self.g1 = g1
        self.g2 = g2

    def eval(self, point: GluedPoint, e1: FibreElement, e2: FibreElement) -> float:
        return seam_mean([eval_block_metric((self.g1, self.g2)[w - 1], x,
                                            e1.fibre.part(w, e1.components),
                                            e2.fibre.part(w, e2.components))
                          for w, x in point.sides])

    def gram_at(self, point: GluedPoint, fibre: Optional[FibreModel] = None) -> np.ndarray:
        """Gram of the glued metric in the fibre basis at a point."""
        sides = point.sides
        grams = [(self.g1, self.g2)[w - 1].gram(x) for w, x in sides]
        if len(sides) == 2:
            fibre = fibre or compute_fibre(self.space, point)
            grams = [fibre.block_basis(w) @ gram @ fibre.block_basis(w).T
                     for (w, _), gram in zip(sides, grams)]
        return seam_mean(grams)

    def pairing_apply(self, point: GluedPoint, e: FibreElement) -> np.ndarray:
        return self.gram_at(point, e.fibre) @ e.components

    def pairing_invert(self, point: GluedPoint, dual_components,
                       fibre: Optional[FibreModel] = None) -> FibreElement:
        fibre = fibre or compute_fibre(self.space, point)
        gram = self.gram_at(point, fibre)
        try:
            comps = np.linalg.solve(gram, np.asarray(dual_components, dtype=float))
        except np.linalg.LinAlgError as exc:
            raise SingularGram(str(exc)) from exc
        return FibreElement(fibre, comps)


def glue_metrics(space: GluedSpace, g1: BlockMetric, g2: BlockMetric) -> GluedMetric:
    """Assemble the glued metric after the compatibility gate.

    Also verifies symmetry and positive-definiteness of the glued Gram on
    every sampled locus fibre, which is the computable content of the
    induced-metric theorem.
    """
    result = check_metrics_compatible(space, g1, g2)
    if not result:
        raise IncompatibleMetrics(f"metrics incompatible: {result.witness}")
    G = GluedMetric(space, g1, g2)
    for p in space.region_samples()[LOCUS]:
        _require_spd(G.gram_at(p), where=f"glued fibre at {p.coords}")
    return G
