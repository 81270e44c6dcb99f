"""Polynomial coefficient fields and small field-algebra helpers.

Scalar fields throughout the library are callables ``coords -> scalar``
whose body uses only generic arithmetic, so they evaluate equally on floats
and on :class:`~diffglue.numerics.DualScalar` inputs.  Vector fields (block
covector fields and their duals) are single callables ``coords -> [d
scalars]`` under the same rule.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

import numpy as np


class PolyField:
    """Multivariate polynomial as a map exponent-tuple -> coefficient; evaluation reads
    ``terms``, each coefficient with its factors' axes: exponents (2, 0, 1) give (0, 0, 2)."""

    __slots__ = ("dim", "coeffs", "terms")

    def __init__(self, dim: int, coeffs: dict):
        self.dim = dim
        self.coeffs = {}
        for exps, c in coeffs.items():
            key = tuple(int(e) for e in exps)
            if len(key) != dim:
                raise ValueError(f"exponent tuple {key} has wrong length for dim {dim}")
            if c != 0.0:
                self.coeffs[key] = self.coeffs.get(key, 0.0) + float(c)
        self.terms = tuple((c, tuple(a for a, e in enumerate(exps) for _ in range(e)))
                           for exps, c in self.coeffs.items())

    @classmethod
    def constant(cls, dim: int, value: float) -> "PolyField":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def coordinate(cls, dim: int, axis: int) -> "PolyField":
        exps = [0] * dim
        exps[axis] = 1
        return cls(dim, {tuple(exps): 1.0})

    def __call__(self, coords: Sequence):
        total = 0.0
        for c, axes in self.terms:
            term = c
            for a in axes:
                term = term * coords[a]
            total = total + term
        return total

    def __repr__(self):
        if not self.coeffs:
            return "PolyField(0)"
        parts = [f"{c:g}*x^{list(e)}" for e, c in sorted(self.coeffs.items())]
        return "PolyField(" + " + ".join(parts) + ")"


def random_poly(rng: np.random.Generator, dim: int) -> PolyField:
    """Dense random polynomial of total degree <= 2 with coefficients in [-1, 1]."""
    return PolyField(dim, {exps: rng.uniform(-1.0, 1.0)
                           for exps in product(range(3), repeat=dim) if sum(exps) <= 2})
