"""The model category: Euclidean blocks glued along a diffeomorphism.

Blocks are open subsets of R^n with the standard smooth structure.  A glued
space identifies a locus Y inside block 1 with its image f(Y) inside block 2,
and every point of the result falls into exactly one of three regions:
block-1-only, the locus, or block-2-only.  The locus comes in three kinds --
a finite point set, an open subdomain, or a parametrized submanifold -- which
determine how much tangential information survives at the seam.

The seam rule lives here: :attr:`GluedPoint.sides` lists the block
coordinates a point has (one side off the locus, both over it, block 1
first), and every glued object evaluates its block data on each side.  The
pair of side values is either kept as a compatible pair (sections, tensors)
or half-weighted by :func:`seam_mean` (the metric, pairings, functions).

Where checks evaluate is decided here too: :meth:`GluedSpace.region_samples`
classifies the block grids and the sampled locus points once per space, and
every sampled check and post-construction locus loop reads those points.
The plan's seed does not move them; it drives the random families, whose
sections (:func:`~diffglue.connection.section_family`) a run builds once and
keeps on its scenario context, not on the space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (DiffglueError, DimensionMismatch, HypothesisNotAsserted,
                     LocusOutsideBlock, NotADiffeomorphism, OutsideDomain,
                     ValidationError)
from .numerics import EPS_DOM, EPS_NUM, DiffEngine, SamplePlan, _primal

BLOCK1, LOCUS, BLOCK2 = "block1", "locus", "block2"


@dataclass(frozen=True)
class EuclideanBlock:
    """Open subset of R^dim described by a membership predicate."""

    dim: int
    contains: Callable[[Sequence[float]], bool]
    seed_points: tuple
    name: str = "block"

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"{self.name}: dim must be >= 1")
        object.__setattr__(self, "seed_points",
                           tuple(tuple(float(c) for c in p) for p in self.seed_points))
        if not self.seed_points:
            raise ValidationError(f"{self.name}: needs at least one seed point")
        for p in self.seed_points:
            if len(p) != self.dim:
                raise ValidationError(f"{self.name}: seed point {p} has wrong dimension")
            if not self.contains(p):
                raise ValidationError(f"{self.name}: seed point {p} outside domain")
            # openness probe: an eps ball around each seed must stay inside
            for i in range(self.dim):
                for s in (+EPS_DOM, -EPS_DOM):
                    probe = list(p)
                    probe[i] += s
                    if not self.contains(probe):
                        raise ValidationError(
                            f"{self.name}: domain not open at seed {p} (axis {i})")


@dataclass(frozen=True)
class PointSetLocus:
    points: tuple

    kind = "point_set"

    def __post_init__(self):
        object.__setattr__(self, "points",
                           tuple(tuple(float(c) for c in p) for p in self.points))


@dataclass(frozen=True)
class OpenSubdomainLocus:
    contains: Callable[[Sequence[float]], bool]
    sample_points: tuple

    kind = "open_subdomain"

    def __post_init__(self):
        object.__setattr__(self, "sample_points",
                           tuple(tuple(float(c) for c in p) for p in self.sample_points))


@dataclass(frozen=True)
class SubmanifoldLocus:
    """Locus parametrized by phi: R^k -> block-1 coordinates, k < dim1."""

    param_dim: int
    chart: Callable
    invert: Callable          # right inverse of chart, used for membership
    param_samples: tuple

    kind = "submanifold"

    def __post_init__(self):
        object.__setattr__(self, "param_samples",
                           tuple(tuple(float(c) for c in p) for p in self.param_samples))


@dataclass(frozen=True)
class GluingMap:
    """Diffeomorphism from the locus onto its image in block 2.

    The forward and inverse formulas must stay valid on the whole block:
    the verification suites push block-1 test data through f when building
    compatible families.  ``jacobian(y)`` is J_f(y), dim2 rows of dim1 entries,
    and ``inverse_jacobian(z)`` is J_{f^-1}(z), dim1 rows of dim2 entries.
    """

    forward: Callable
    inverse: Callable
    jacobian: Callable
    inverse_jacobian: Callable


@dataclass(frozen=True)
class HypothesisFlags:
    pullback_equality_asserted: bool = False
    omega_diffeology_equality_asserted: bool = False

    @property
    def asserted(self) -> bool:
        return self.pullback_equality_asserted and self.omega_diffeology_equality_asserted


@dataclass(frozen=True)
class GluedPoint:
    """Point of the glued space, tagged by region.

    Locus points carry block-1 coordinates in ``coords`` and the image
    coordinates under f in ``coords2``.
    """

    region: str
    coords: tuple
    coords2: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))
        if self.coords2 is not None:
            object.__setattr__(self, "coords2", tuple(float(c) for c in self.coords2))

    @property
    def sides(self) -> tuple:
        """``(block, coords)`` of each block the point lies in, block 1 first:
        one side off the locus, ``((1, coords), (2, coords2))`` over it."""
        if self.region == LOCUS:
            return ((1, self.coords), (2, self.coords2))
        return ((1 if self.region == BLOCK1 else 2, self.coords),)


def seam_mean(values):
    """Half-weighted value over the seam: the one side's value off the
    locus, ``0.5 * a + 0.5 * b`` for the two sides over it."""
    if len(values) == 1:
        return values[0]
    a, b = values
    return 0.5 * a + 0.5 * b


@dataclass(frozen=True)
class LocusFrames:
    """Tangential data of the locus at one point.

    ``t1`` has shape (dim1, k): columns span the locus tangent directions in
    block-1 coordinates; ``t2 = J_f(y) @ t1`` (dim2, k) pushes them through f
    (k = 0 on a point set).  Pullbacks of covectors act by the transposes.
    """

    t1: np.ndarray
    t2: np.ndarray


class GluedSpace:
    """Two Euclidean blocks glued along a diffeomorphism of a locus."""

    def __init__(self, block1, block2, locus, f, flags, engine=None, plan=None):
        if not flags.asserted:
            raise HypothesisNotAsserted(
                "gluing hypotheses not asserted; pass HypothesisFlags(True, True) "
                "(point-set loci assert them automatically)")
        self.block1 = block1
        self.block2 = block2
        self.locus = locus
        self.f = f
        self.flags = flags
        self.engine = DiffEngine() if engine is None else engine
        self.plan = plan or SamplePlan()
        self._samples = None

    # -- locus geometry ----------------------------------------------------
    def locus_points(self) -> list:
        """Sampled locus points in block-1 coordinates."""
        if self.locus.kind == "point_set":
            pts = list(self.locus.points)
        elif self.locus.kind == "open_subdomain":
            pts = list(self.locus.sample_points)
        else:
            pts = [tuple(self.locus.chart(list(t))) for t in self.locus.param_samples]
        return pts[: self.plan.locus_count]

    def locus_contains(self, coords) -> bool:
        if self.locus.kind == "point_set":
            return any(_close(coords, p) for p in self.locus.points)
        if self.locus.kind == "open_subdomain":
            return bool(self.locus.contains(coords))
        t = self.locus.invert(list(coords))
        back = self.locus.chart(list(t))
        return _close(back, coords)

    def map_forward(self, y) -> tuple:
        return tuple(float(v) for v in self.f.forward(list(y)))

    def map_inverse(self, z) -> tuple:
        return tuple(float(v) for v in self.f.inverse(list(z)))

    def f_jacobian(self, y) -> np.ndarray:
        """Jacobian of f at a locus point (dim2 x dim1)."""
        return np.asarray(self.f.jacobian(list(y)), dtype=float)

    def locus_frames(self, y) -> LocusFrames:
        d1, d2 = self.block1.dim, self.block2.dim
        if self.locus.kind == "point_set":
            return LocusFrames(np.zeros((d1, 0)), np.zeros((d2, 0)))
        if self.locus.kind == "open_subdomain":
            t1 = np.eye(d1)
        else:
            # jacobian rows are d(chart_j)/dt_i, so the array itself has the
            # tangent directions as columns
            t = self.locus.invert(list(y))
            t1 = _primal(self.engine.jacobian(self.locus.chart, list(t))).reshape(
                d1, self.locus.param_dim)
        return LocusFrames(t1, self.f_jacobian(y) @ t1)

    # -- sampling ----------------------------------------------------------
    def block_grid(self, which: int) -> list:
        """Per-axis interior grid of one block, locus points included.

        Each axis through the first seed point is sampled at ``per_axis``
        points spanning the seed points' range widened by 1 on both sides.
        """
        block = self.block1 if which == 1 else self.block2
        seeds = block.seed_points
        lo = [min(s[i] for s in seeds) - 1.0 for i in range(block.dim)]
        hi = [max(s[i] for s in seeds) + 1.0 for i in range(block.dim)]
        pts = []
        for axis in range(block.dim):
            for v in np.linspace(lo[axis], hi[axis], self.plan.per_axis):
                p = list(seeds[0])
                p[axis] = float(v)
                if block.contains(p):
                    pts.append(tuple(p))
        return pts

    def in_glued_image(self, z) -> bool:
        """Is a block-2 coordinate in f(Y)?"""
        try:
            y = self.map_inverse(z)
        except (DiffglueError, ArithmeticError):
            return False
        if len(y) != self.block1.dim:
            return False
        if not self.locus_contains(y):
            return False
        return _close(self.map_forward(y), z)

    def region_samples(self) -> dict:
        """Sample points by region: tuples of the block grid points off the locus
        and of the sampled locus points, classified once; each call gives a new dict."""
        if self._samples is None:
            grid = {w: [classify_point(self, w, p) for p in self.block_grid(w)] for w in (1, 2)}
            self._samples = {
                BLOCK1: tuple(p for p in grid[1] if p.region == BLOCK1),
                LOCUS: tuple(classify_point(self, 1, y) for y in self.locus_points()),
                BLOCK2: tuple(p for p in grid[2] if p.region == BLOCK2),
            }
        return dict(self._samples)

    def probe_sequences(self) -> list:
        """Geometric point sequences approaching each sampled locus point.

        Each entry is (locus_point, [approach points as GluedPoints]).  The
        approach stays inside block 1; for open subdomain loci the interior
        of Y cannot be reached from its complement, so the sequence may run
        inside the locus itself (degenerating to a block-smoothness probe).
        """
        out = []
        samples = self.region_samples()
        block1_pts = [p.coords for p in samples[BLOCK1]]
        for point in samples[LOCUS]:
            y = point.coords
            if block1_pts:
                arr = np.asarray(block1_pts, dtype=float)
                dists = np.linalg.norm(arr - np.asarray(y), axis=1)
                target = arr[int(np.argmin(dists))]
            else:
                target = np.asarray(self.block1.seed_points[0], dtype=float)
            d = target - np.asarray(y, dtype=float)
            norm = float(np.linalg.norm(d))
            if norm < EPS_NUM:
                continue
            d = d / norm
            r0 = min(1.0, norm / 2.0)
            seq = []
            for j in range(1, self.plan.probe_steps + 1):
                p = np.asarray(y) + (r0 * self.plan.probe_ratio ** j) * d
                p = [float(v) for v in p]
                if self.block1.contains(p):
                    seq.append(classify_point(self, 1, p))
            if seq:
                out.append((point, seq))
        return out


def _close(a, b) -> bool:
    """Componentwise agreement within EPS_NUM, relative to the size of the coordinates."""
    return all(abs(float(x) - float(y)) <= EPS_NUM * (1.0 + max(abs(float(x)), abs(float(y))))
               for x, y in zip(a, b))


def default_flags(locus) -> HypothesisFlags:
    """Point-set loci assert the hypotheses automatically: both pullback
    spaces are zero, so the standing conditions hold trivially."""
    if locus.kind == "point_set":
        return HypothesisFlags(True, True)
    return HypothesisFlags(False, False)


def build_glued_space(block1, block2, locus, f, flags=None,
                      engine=None, plan=None) -> GluedSpace:
    """Validate the gluing data and assemble a GluedSpace.

    Checks the hypothesis flags (in the GluedSpace constructor), locus
    containment, diffeomorphism round-trips and Jacobian invertibility probes.
    """
    if flags is None:
        flags = default_flags(locus)
    space = GluedSpace(block1, block2, locus, f, flags, engine=engine, plan=plan)

    locus_pts = space.locus_points()
    for y in locus_pts:
        if len(y) != block1.dim:
            raise LocusOutsideBlock(f"locus point {y} has wrong dimension")
        if not block1.contains(list(y)):
            raise LocusOutsideBlock(f"locus point {y} outside block 1")
        if not space.locus_contains(y):
            raise LocusOutsideBlock(f"locus sample {y} outside the locus")
        z = space.map_forward(y)
        if len(z) != block2.dim:
            raise NotADiffeomorphism(f"f({y}) has wrong dimension")
        if not block2.contains(list(z)):
            raise LocusOutsideBlock(f"f({y}) = {z} outside block 2")
        back = space.map_inverse(z)
        if not _close(back, y):
            raise NotADiffeomorphism(f"inverse round-trip fails at {y}: got {back}")
        again = space.map_forward(back)
        if not _close(again, z):
            raise NotADiffeomorphism(f"forward round-trip fails at f({y})")

    if locus.kind == "open_subdomain":
        for y in locus_pts:
            j = space.f_jacobian(y)
            if j.shape != (block2.dim, block1.dim) or j.shape[0] != j.shape[1]:
                raise NotADiffeomorphism("open-subdomain gluing needs square Jacobian")
            if abs(np.linalg.det(j)) <= 1e-10:
                raise NotADiffeomorphism(f"Jacobian of f singular at locus point {y}")
            _check_inverse_jacobian(space, y)
    elif locus.kind == "submanifold":
        k = locus.param_dim
        if k >= block1.dim:
            raise ValidationError("submanifold parameter count must be < block dim")
        for y in locus_pts:
            frames = space.locus_frames(y)
            if np.linalg.matrix_rank(frames.t1, tol=1e-10) < k:
                raise ValidationError(f"parametrization Jacobian rank-deficient at {y}")
            if np.linalg.matrix_rank(frames.t2, tol=1e-10) < k:
                raise NotADiffeomorphism(f"pushforward frame rank-deficient at {y}")
            _check_inverse_jacobian(space, y)
    return space


def _check_inverse_jacobian(space: GluedSpace, y) -> None:
    """J_f(y) @ J_{f^-1}(f(y)) must be the identity, within EPS_NUM scaled by both sizes."""
    j = space.f_jacobian(y)
    inv = np.asarray(space.f.inverse_jacobian(list(space.map_forward(y))), dtype=float)
    tol = EPS_NUM * (1.0 + np.abs(j).max() * np.abs(inv).max(initial=0.0))
    if inv.shape != j.shape[::-1] or not np.abs(j @ inv - np.eye(len(j))).max() <= tol:
        raise NotADiffeomorphism(f"J_f and J_f^-1 disagree at locus point {y}")


def classify_point(space: GluedSpace, which: int, coords) -> GluedPoint:
    """Classify tagged block coordinates into the three-region decomposition.

    Block-1 coordinates in Y and block-2 coordinates in f(Y) land on the
    same locus point (block-2 input is pulled back through the inverse).
    """
    coords = tuple(float(c) for c in coords)
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    block = (space.block1, space.block2)[which - 1]
    if len(coords) != block.dim:
        raise DimensionMismatch(f"{coords}: block {which} has dimension {block.dim}")
    if not block.contains(list(coords)):
        raise OutsideDomain(f"{coords} outside block {which}")
    if which == 1:
        if space.locus_contains(coords):
            return GluedPoint(LOCUS, coords, space.map_forward(coords))
        return GluedPoint(BLOCK1, coords)
    if space.in_glued_image(coords):
        return GluedPoint(LOCUS, space.map_inverse(coords), coords)
    return GluedPoint(BLOCK2, coords)
