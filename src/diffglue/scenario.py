"""Scenario files: structured YAML documents describing a glued space,
its metrics and connections, numerics settings, and suite selection.

Maps, domains, and coefficient fields are named built-ins with coefficient
data; polynomial fields are coefficient maps keyed by comma-separated
monomial exponent tuples (``"2": 3.0`` is 3x^2 on a line, ``"1,1": 2.0``
is 2xy on a plane).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
import yaml

from .errors import NotADiffeomorphism, ParseError, ValidationError
from .fields import PolyField
from .metric import BlockMetric, glue_metrics
from .connection import (BlockConnection, PointStore, glue_connections,
                         glued_function_family, koszul_solve, section_family,
                         zero_connection)
from .numerics import DiffConfig, DiffEngine, DualScalar, SamplePlan, _primal
from .space import (LOCUS, EuclideanBlock, GluedSpace, GluingMap, HypothesisFlags,
                    OpenSubdomainLocus, PointSetLocus, SubmanifoldLocus,
                    build_glued_space)
from .suites import SUITES

SUITE_CATALOGUE = tuple(SUITES)


# -- poly / field parsing -----------------------------------------------------

def parse_key(key, arity: int, where: str, bound=math.inf) -> tuple:
    """Comma-separated integer key of ``arity`` entries, each in [0, bound)."""
    try:
        idx = tuple(int(p) for p in str(key).replace(" ", "").split(","))
    except ValueError as exc:
        raise ParseError(f"{where}: bad index key {key!r}") from exc
    if len(idx) != arity:
        raise ParseError(f"{where}: key {key!r} needs {arity} indices")
    if not all(0 <= i < bound for i in idx):
        raise ParseError(f"{where}: key {key!r} has an index outside [0, {bound})")
    return idx


def parse_poly(spec: dict, dim: int, where: str) -> PolyField:
    if not isinstance(spec, dict):
        raise ParseError(f"{where}: polynomial spec must be a mapping")
    return PolyField(dim, {parse_key(key, dim, f"{where} exponent"): float(val)
                           for key, val in spec.items()})


def parse_domain(spec: dict, dim: int, where: str) -> Callable:
    kind = spec.get("kind", "all")
    if kind == "all":
        return lambda x: True
    axis, = parse_key(spec.get("axis", 0), 1, where + ".axis", dim)
    if kind == "below":
        bound = float(spec["bound"])
        return lambda x, a=axis, b=bound: x[a] < b
    if kind == "above":
        bound = float(spec["bound"])
        return lambda x, a=axis, b=bound: x[a] > b
    if kind == "interval":
        lo, hi = float(spec["lo"]), float(spec["hi"])
        return lambda x, a=axis, lo=lo, hi=hi: lo < x[a] < hi
    if kind == "box":
        bounds = [(float(lo), float(hi)) for lo, hi in spec["bounds"]]
        if len(bounds) != dim:
            raise ParseError(f"{where}: box bounds arity mismatch")
        return lambda x, bs=bounds: all(lo < v < hi for v, (lo, hi) in zip(x, bs))
    raise ParseError(f"{where}: unknown domain kind {kind!r}")


def _cbrt(v):
    """Real cube root (generic); its derivative is undefined at 0."""
    if isinstance(v, DualScalar) and _primal(v) == 0.0:
        raise NotADiffeomorphism("cubic gluing map: the inverse has no derivative at z = 0")
    return abs(v) ** (1.0 / 3.0) * (1.0 if v >= 0 else -1.0)


def _cbrt_slope(z):
    """J_{f^-1}(z) = 1 / (3 cbrt(z)^2) of the cubic map, undefined at z = 0."""
    if _primal(z) == 0.0:
        raise NotADiffeomorphism("cubic gluing map: J_{f^-1} is undefined at z = 0")
    return 1.0 / (3.0 * _cbrt(z) ** 2)


def parse_map(spec: dict, d1: int, d2: int, where: str) -> GluingMap:
    kind = spec.get("kind", "identity")
    if kind == "identity":
        if d1 != d2:
            raise ParseError(f"{where}: identity map needs equal block dims")
        eye = np.eye(d1).tolist()
        return GluingMap(lambda y: list(y), lambda z: list(z),
                         jacobian=lambda y: eye, inverse_jacobian=lambda z: eye)
    if kind == "affine":
        mat = np.asarray(spec["matrix"], dtype=float)
        off = np.asarray(spec.get("offset", [0.0] * d2), dtype=float)
        if mat.shape != (d2, d1):
            raise ParseError(f"{where}: affine matrix must be {d2}x{d1}")
        if off.shape != (d2,):
            raise ParseError(f"{where}: affine offset must have {d2} entries")
        if not (np.isfinite(mat).all() and np.isfinite(off).all()):
            raise ParseError(f"{where}: affine matrix and offset must be finite")
        inv = np.linalg.inv(mat) if d1 == d2 else None
        if inv is None:
            raise ParseError(f"{where}: affine gluing needs square matrix")

        def forward(y, m=mat, o=off):
            return [sum(m[j][i] * y[i] for i in range(len(y))) + o[j]
                    for j in range(m.shape[0])]

        def inverse(z, m=inv, o=off):
            return [sum(m[i][j] * (z[j] - o[j]) for j in range(len(z)))
                    for i in range(m.shape[0])]

        return GluingMap(forward, inverse, jacobian=lambda y, m=mat.tolist(): m,
                         inverse_jacobian=lambda z, m=inv.tolist(): m)
    if kind == "cubic":
        if d1 != 1 or d2 != 1:
            raise ParseError(f"{where}: cubic map is one-dimensional")
        return GluingMap(lambda y: [y[0] ** 3],
                         lambda z: [_cbrt(z[0])],
                         jacobian=lambda y: [[3.0 * y[0] ** 2]],
                         inverse_jacobian=lambda z: [[_cbrt_slope(z[0])]])
    raise ParseError(f"{where}: unknown map kind {kind!r}")


def parse_points(raw, dim: int, where: str) -> tuple:
    """Coordinate tuples that must each have ``dim`` entries, each finite
    with a finite square (a metric or a chart squares them)."""
    points = tuple(tuple(float(c) for c in p) for p in raw)
    for p in points:
        if len(p) != dim:
            raise ParseError(f"{where}: point {list(p)} has {len(p)} coordinates, "
                             f"expected {dim}")
        if not all(math.isfinite(c * c) for c in p):
            raise ParseError(f"{where}: point {list(p)} needs finite coordinates "
                             f"with finite squares")
    return points


def parse_locus(spec: dict, d1: int, where: str):
    kind = spec.get("kind")
    if kind == "point_set":
        return PointSetLocus(parse_points(spec.get("points", []), d1, where + ".points"))
    if kind == "open_subdomain":
        dom = parse_domain(spec.get("domain", {}), d1, where + ".domain")
        samples = spec.get("sample_points")
        if not samples:
            raise ParseError(f"{where}: open_subdomain locus needs sample_points")
        return OpenSubdomainLocus(dom, parse_points(samples, d1, where + ".sample_points"))
    if kind == "submanifold":
        chart_spec = spec.get("chart", {})
        if chart_spec.get("kind") != "axis_embed":
            raise ParseError(f"{where}: unknown chart kind")
        axes = [parse_key(a, 1, where + ".chart.axes", d1)[0] for a in chart_spec["axes"]]
        if len(set(axes)) != len(axes):
            raise ParseError(f"{where}: chart axes {axes} must be distinct")
        k = len(axes)

        def chart(t, axes=axes, d=d1):
            out = [0.0] * d
            for i, a in enumerate(axes):
                out[a] = t[i]
            return out

        def invert(x, axes=axes):
            return [x[a] for a in axes]

        samples = spec.get("param_samples")
        if not samples:
            raise ParseError(f"{where}: submanifold locus needs param_samples")
        return SubmanifoldLocus(k, chart, invert,
                                parse_points(samples, k, where + ".param_samples"))
    raise ParseError(f"{where}: unknown locus kind {kind!r}")


def parse_block(spec: dict, name: str) -> EuclideanBlock:
    dim = int(spec["dim"])
    dom = parse_domain(spec.get("domain", {"kind": "all"}), dim, name + ".domain")
    seeds = spec.get("seed_points")
    if not seeds:
        raise ParseError(f"{name}: seed_points required")
    return EuclideanBlock(dim, dom, parse_points(seeds, dim, name + ".seed_points"), name)


def parse_metric(spec: dict, block: EuclideanBlock, where: str) -> BlockMetric:
    raw = spec.get("entries")
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: metric needs an 'entries' mapping")
    d = block.dim
    polys = {parse_key(key, 2, where, d): parse_poly(val, d, f"{where}[{key}]")
             for key, val in raw.items()}
    entries = []
    zero = PolyField.constant(d, 0.0)
    for i in range(d):
        row = []
        for j in range(d):
            row.append(polys.get((i, j)) or polys.get((j, i)) or zero)
        entries.append(tuple(row))
    return BlockMetric(block, tuple(entries))


def parse_connection(spec: dict, block: EuclideanBlock, where: str) -> BlockConnection:
    raw = spec.get("entries", {})
    d = block.dim
    polys = {parse_key(key, 3, where, d): parse_poly(val, d, f"{where}[{key}]")
             for key, val in raw.items()}
    zero = PolyField.constant(d, 0.0)

    def christoffel(x, polys=polys, zero=zero, d=d):
        return [[[polys.get((k, i, j), zero)(x) for j in range(d)]
                 for i in range(d)] for k in range(d)]

    return BlockConnection(block, christoffel)


# -- scenario ------------------------------------------------------------------


@dataclass
class Scenario:
    name: str
    raw: dict
    diff: DiffConfig
    plan: SamplePlan
    suites: tuple


@dataclass
class ScenarioContext:
    """Built objects of a scenario.  Each derived object (a block's Koszul
    factor, the glued metric, the section and function families, the point
    store, the glued connection of a connection pair) is built once and held
    here, not on the space, so a run's objects are freed with its context;
    ``nabla1``/``nabla2`` are the Koszul factors unless set.
    ``prime_koszul`` is set for a suite run, which asks a Koszul factor for
    every sample point, and left unset for a point query."""

    scenario: Scenario
    space: GluedSpace
    g1: BlockMetric
    g2: BlockMetric
    n1_spec: Optional[BlockConnection]
    n2_spec: Optional[BlockConnection]
    engine: DiffEngine
    prime_koszul: bool = False
    _memo: dict = field(default_factory=dict, repr=False)

    def _once(self, key, build: Callable):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def koszul(self, which: int) -> BlockConnection:
        """Levi-Civita connection of block ``which``'s metric.  With
        ``prime_koszul`` set, it is solved when built at the suites' sample
        points of the block: its grid and its side of each locus sample."""
        def build():
            points = []
            if self.prime_koszul:
                points = self.space.block_grid(which) + [
                    x for p in self.space.region_samples()[LOCUS] for w, x in p.sides
                    if w == which]
            return koszul_solve((self.g1, self.g2)[which - 1], self.engine, points)

        return self._once(("koszul", which), build)

    @property
    def nabla1(self) -> BlockConnection:
        return self.koszul(1) if self.n1_spec is None else self.n1_spec

    @property
    def nabla2(self) -> BlockConnection:
        return self.koszul(2) if self.n2_spec is None else self.n2_spec

    @property
    def sections(self) -> tuple:
        """The space's seeded section family (:func:`section_family`)."""
        return self._once("sections", lambda: section_family(self.space))

    @property
    def functions(self) -> list:
        """The glued probe functions that leibniz and bracket-split share
        (:func:`glued_function_family`, drawn from ``plan.seed + 2``)."""
        return self._once("functions", lambda: glued_function_family(
            self.space, np.random.default_rng(self.space.plan.seed + 2)))

    @property
    def store(self) -> PointStore:
        """The point store that the gate and the suites of a run share."""
        return self._once("store", lambda: PointStore(self.engine))

    def glued_metric(self):
        return self._once("metric", lambda: glue_metrics(self.space, self.g1, self.g2))

    def glued_connection(self, nabla1=None, nabla2=None):
        """Glued connection of a gated block pair, the scenario's by default."""
        pair = (nabla1 or self.nabla1, nabla2 or self.nabla2)
        return self._once(("glued", *pair), lambda: glue_connections(
            self.space, self.glued_metric(), *pair, self.sections, self.store))


@contextmanager
def _section(where: str):
    """Report malformed data in one section of a scenario as a ParseError."""
    try:
        yield
    except (KeyError, ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ParseError(f"{where}: malformed ({type(exc).__name__}: {exc})") from exc


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ParseError(f"{path}: invalid YAML{loc}: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: scenario document must be a mapping")
    name = raw.get("name") or "scenario"
    with _section(f"{path}: diff"):
        diff_spec = raw.get("diff", {})
        diff = DiffConfig(mode=diff_spec.get("mode", "forward_dual"),
                          fd_step=float(diff_spec.get("fd_step", 1e-5)))
    with _section(f"{path}: samples"):
        s = raw.get("samples", {})
        plan = SamplePlan(per_axis=int(s.get("per_axis", 16)),
                          locus_count=int(s.get("locus_count", 8)),
                          probe_steps=int(s.get("probe_steps", 6)),
                          probe_ratio=float(s.get("probe_ratio", 0.5)),
                          seed=int(s.get("seed", 0)))
    with _section(f"{path}: suites"):
        listed = raw.get("suites") or SUITE_CATALOGUE
        if not isinstance(listed, (list, tuple)):
            raise TypeError(f"expected a list of suite names, got {listed!r}")
        suites = tuple(listed)
    for su in suites:
        if su not in SUITE_CATALOGUE:
            raise ValidationError(f"unknown suite {su!r}; catalogue: {SUITE_CATALOGUE}")
    return Scenario(name, raw, diff, plan, suites)


def build_context(scenario: Scenario, mode: Optional[str] = None,
                  seed: Optional[int] = None, prime_koszul: bool = False) -> ScenarioContext:
    """Construct the space and block-level objects of a scenario
    (``prime_koszul``: see :class:`ScenarioContext`)."""
    raw = scenario.raw
    diff = scenario.diff if mode is None else replace(scenario.diff, mode=mode)
    with _section("--seed"):
        plan = scenario.plan if seed is None else replace(scenario.plan, seed=seed)
    engine = DiffEngine(diff)
    sp = raw.get("space")
    if not isinstance(sp, dict):
        raise ParseError("scenario: missing 'space' section")
    with _section("space.block1"):
        block1 = parse_block(sp["block1"], "block1")
    with _section("space.block2"):
        block2 = parse_block(sp["block2"], "block2")
    with _section("space.locus"):
        locus = parse_locus(sp["locus"], block1.dim, "space.locus")
    with _section("space.map"):
        gmap = parse_map(sp.get("map", {}), block1.dim, block2.dim, "space.map")
    with _section("space.hypothesis_flags"):
        flags_spec = sp.get("hypothesis_flags")
        flags = None if flags_spec is None else HypothesisFlags(
            bool(flags_spec.get("pullback_equality_asserted", False)),
            bool(flags_spec.get("omega_diffeology_equality_asserted", False)))
    space = build_glued_space(block1, block2, locus, gmap, flags,
                              engine=engine, plan=plan)

    mets = raw.get("metrics")
    if not isinstance(mets, dict) or "g1" not in mets or "g2" not in mets:
        raise ParseError("scenario: 'metrics' must define g1 and g2")
    with _section("metrics.g1"):
        g1 = parse_metric(mets["g1"], block1, "metrics.g1")
    with _section("metrics.g2"):
        g2 = parse_metric(mets["g2"], block2, "metrics.g2")

    conn = raw.get("connections", {"kind": "levi_civita"})
    n1_spec = n2_spec = None
    with _section("connections"):
        kind = conn.get("kind", "levi_civita")
        if kind == "explicit":
            n1_spec = parse_connection(conn.get("gamma1", {}), block1, "connections.gamma1")
            n2_spec = parse_connection(conn.get("gamma2", {}), block2, "connections.gamma2")
        elif kind == "flat":
            n1_spec, n2_spec = zero_connection(block1), zero_connection(block2)
        elif kind != "levi_civita":
            raise ParseError(f"connections: unknown kind {kind!r}")

    return ScenarioContext(scenario, space, g1, g2, n1_spec, n2_spec, engine, prime_koszul)


def fixture_path(name: str):
    from importlib import resources
    base = resources.files("diffglue") / "fixtures" / f"{name}.yaml"
    return base
