"""Polynomial coefficient fields and small field-algebra helpers.

Scalar fields throughout the library are callables ``coords -> scalar``
whose body uses only generic arithmetic, so they evaluate equally on floats
and on :class:`~diffglue.numerics.DualScalar` inputs.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class PolyField:
    """Multivariate polynomial as a map exponent-tuple -> coefficient."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: dict):
        self.dim = dim
        self.coeffs = {}
        for exps, c in coeffs.items():
            key = tuple(int(e) for e in exps)
            if len(key) != dim:
                raise ValueError(f"exponent tuple {key} has wrong length for dim {dim}")
            if c != 0.0:
                self.coeffs[key] = self.coeffs.get(key, 0.0) + float(c)

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
        for exps, c in self.coeffs.items():
            term = c
            for x, e in zip(coords, exps):
                for _ in range(e):
                    term = term * x
            total = total + term
        return total

    def __add__(self, other: "PolyField") -> "PolyField":
        merged = dict(self.coeffs)
        for k, v in other.coeffs.items():
            merged[k] = merged.get(k, 0.0) + v
        return PolyField(self.dim, merged)

    def __mul__(self, other):
        if isinstance(other, PolyField):
            out: dict = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    out[key] = out.get(key, 0.0) + c1 * c2
            return PolyField(self.dim, out)
        return PolyField(self.dim, {k: v * float(other) for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __repr__(self):
        if not self.coeffs:
            return "PolyField(0)"
        parts = [f"{c:g}*x^{list(e)}" for e, c in sorted(self.coeffs.items())]
        return "PolyField(" + " + ".join(parts) + ")"


def evaluate_vector(components: Sequence[Callable], coords) -> list:
    return [f(coords) for f in components]


def evaluate_vector_array(components, coords) -> np.ndarray:
    from .numerics import _primal
    return np.asarray([_primal(f(coords)) for f in components], dtype=float)


def evaluate_matrix(entries: Sequence[Sequence[Callable]], coords) -> list:
    return [[f(coords) for f in row] for row in entries]


def evaluate_matrix_array(entries, coords) -> np.ndarray:
    from .numerics import _primal
    return np.asarray([[_primal(f(coords)) for f in row] for row in entries], dtype=float)


def random_poly(rng: np.random.Generator, dim: int, degree: int = 2,
                scale: float = 1.0) -> PolyField:
    """Dense random polynomial of total degree <= degree with O(scale) coeffs."""
    coeffs = {}
    def rec(prefix, remaining):
        if len(prefix) == dim:
            coeffs[tuple(prefix)] = scale * rng.uniform(-1.0, 1.0)
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)
    rec([], degree)
    return PolyField(dim, coeffs)
