"""Test oracles that no program path calls.

The dual-side bracket, covariant derivative and torsion of coefficient
fields on one block, the restriction and pullback maps onto a locus point,
and the plot test for vanishing forms.  The bracket shares
``connection._bracket_values`` with the point store, so its tests also
cover the store's bracket formula.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from diffglue.connection import BlockConnection, _bracket_values
from diffglue.forms import BlockForm, FibreElement, rho1, rho2
from diffglue.numerics import DiffEngine, _primal
from diffglue.space import EuclideanBlock, GluedSpace


# -- dual side ----------------------------------------------------------------
#
# Dual-side fields are single callables x -> [d coefficients] against the
# coordinate frame, like the field of a BlockForm.

def lie_bracket_dual_block(t: Callable, u: Callable, engine: DiffEngine,
                           block: EuclideanBlock) -> Callable:
    """Classical bracket of coefficient fields: [t,u]^b = t^a d_a u^b - u^a d_a t^b."""
    def field(x):
        ju = engine.jacobian(u, x, within=block.contains)
        jt = engine.jacobian(t, x, within=block.contains)
        return _bracket_values(t(x), u(x), jt, ju)

    return field


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


# -- restriction and pullback onto the locus --------------------------------------

@dataclass(frozen=True)
class PullbackOperators:
    """Restriction/pullback maps onto a locus point, in locus coordinates.

    Locus covectors are represented through the tangent frame: all of
    R^dim1 for an open locus, parameter components for a submanifold, the
    zero space for a point set.  ``f_star`` is linear on each fibre; for an
    open locus it is the transpose-Jacobian action of the gluing map.
    """

    space: GluedSpace
    point: tuple

    def _frames(self):
        return self.space.locus_frames(self.point)

    def i_star(self, a) -> np.ndarray:
        """Restriction of a block-1 covector to the locus."""
        fr = self._frames()
        return fr.t1.T @ np.asarray(a, dtype=float)

    def j_star(self, b) -> np.ndarray:
        """Restriction of a block-2 covector to the glued image."""
        fr = self._frames()
        if self.space.locus.kind == "open_subdomain":
            return np.asarray(b, dtype=float)
        return fr.t2.T @ np.asarray(b, dtype=float)

    def f_star(self, c) -> np.ndarray:
        """Pullback from the image side to the locus side."""
        if self.space.locus.kind == "open_subdomain":
            fr = self._frames()
            return fr.t2.T @ np.asarray(c, dtype=float)
        return np.asarray(c, dtype=float)

    def i_star_lambda(self, e: FibreElement) -> np.ndarray:
        return self.i_star(rho1(e))

    def fj_star_lambda(self, e: FibreElement) -> np.ndarray:
        return self.f_star(self.j_star(rho2(e)))


# -- vanishing forms ------------------------------------------------------------

def vanishing_at_point(form: BlockForm, plots: Sequence, engine: DiffEngine) -> float:
    """Vanishing forms on a single block.

    Evaluates the pullback of the form along centered plots at the center
    and returns the worst magnitude; a form vanishes at the base point when
    this is ~0 over a generating family of plots.
    """
    worst = 0.0
    for plot in plots:
        rows = engine.jacobian(plot.mapping, list(plot.basepoint))
        w = form(plot.mapping(list(plot.basepoint)))
        for i in range(plot.domain_dim):
            total = 0.0
            for j in range(form.block.dim):
                total += float(rows[j][i]) * float(w[j])
            worst = max(worst, abs(total))
    return worst
