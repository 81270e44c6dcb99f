"""The engine's probe primitive and the per-run point store.

A probe is a field's outputs at the mode's probe inputs; ``rows`` of a probe
must be the Jacobian the engine computed before probes existed, and every
value the point store builds must equal the direct route (``apply_block``,
``engine.gradient`` of ``_gram_pair_field``, ``lie_bracket_forms_block`` and
``torsion_block``) bit for bit, whether it was built at its point or in a
pass over the points of a block side.
"""

import os
import struct
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffglue import connection as cx
from diffglue.errors import OutsideDomain, ValidationError
from diffglue.fields import PolyField
from diffglue.forms import BlockForm
from diffglue.metric import BlockMetric
from diffglue.numerics import DiffConfig, DiffEngine, DualScalar, _each_point, _primal, _seeds
from diffglue.scenario import build_context, fixture_path, load_scenario
from diffglue.space import EuclideanBlock
from diffglue.suites import SUITES, _points, _section_pairs

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "benchmarks"))
import ladder  # noqa: E402

MODES = ("forward_dual", "central_fd")
SCENARIOS = ("cross_flat", "cross_mixed_grams", "halfline_curved", "plane_axis_gluing",
             "ladder_d1", "ladder_d2", "ladder_d3")
# the entry kinds the store builds in passes over points
BATCHED = ("probe", "value", "at", "gram", "tensor", "compat")


def bits(v):
    """Bit pattern of a generic value or nest, so that -0.0 != 0.0."""
    if isinstance(v, DualScalar):
        return (bits(v.value), tuple(bits(p) for p in v.partials))
    if isinstance(v, (list, tuple, np.ndarray)):
        return tuple(bits(x) for x in v)
    return struct.pack("d", v)


def jacobian_before_probes(engine, mapping, coords, within=None):
    """The engine's Jacobian as two mode-specific loops, before it read probes."""
    n = len(coords)
    if engine.config.mode == "forward_dual":
        return [list(v.partials) if isinstance(v, DualScalar) else [0.0] * n
                for v in mapping(_seeds(coords))]
    h = engine.config.fd_step
    if within is not None:
        for i in range(n):
            for s in (+h, -h):
                probe = list(coords)
                probe[i] = probe[i] + s
                if not within(probe):
                    raise OutsideDomain(f"fd stencil leaves the domain at {tuple(coords)} "
                                        f"(axis {i})")
    stencils = []
    for i in range(n):
        up = list(coords)
        dn = list(coords)
        up[i] = up[i] + h
        dn[i] = dn[i] - h
        stencils.append(zip(mapping(up), mapping(dn)))
    return [[(a - b) / (2.0 * h) for a, b in row] for row in zip(*stencils)]


coefficient = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def sections(draw):
    """A PolyField section of a 1-4 dimensional block, and a point."""
    dim = draw(st.integers(1, 4))
    polys = [PolyField(dim, draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * dim),
                                                 coefficient, max_size=6)))
             for _ in range(dim)]
    coords = draw(st.lists(coefficient, min_size=dim, max_size=dim))
    return (lambda x: [f(x) for f in polys]), coords


@settings(max_examples=150, deadline=None)
@given(case=sections(), mode=st.sampled_from(MODES))
def test_rows_of_a_probe_are_the_jacobian_before_probes(case, mode):
    field, coords = case
    engine = DiffEngine(DiffConfig(mode))
    within = lambda x: True
    assert bits(engine.rows(engine.probe(field, coords, within))) \
        == bits(jacobian_before_probes(engine, field, coords, within))
    assert bits(engine.jacobian(field, coords)) == bits(jacobian_before_probes(engine, field, coords))


def test_combine_applies_the_field_at_each_probe_input():
    for mode in MODES:
        engine = DiffEngine(DiffConfig(mode))
        h = lambda x: x[0] * x[1] - 2.0
        s = lambda x: [x[0] * x[0], x[1] / 3.0]
        hs = lambda x: [h(x) * v for v in s(x)]
        combined = engine.combine(lambda hv, sv: [hv * v for v in sv],
                                  engine.probe(h, [0.7, -1.1]), engine.probe(s, [0.7, -1.1]))
        assert bits(engine.rows(combined)) == bits(engine.jacobian(hs, [0.7, -1.1]))


def scenario_context(name, mode, tmp_path):
    if name.startswith("ladder_"):
        path = tmp_path / f"{name}.yaml"
        path.write_text(ladder.ladder_yaml(int(name[-1]), 0))
    else:
        path = fixture_path(name)
    return build_context(load_scenario(path), mode=mode, prime_koszul=True)


def side_points(ctx, w, rng):
    """Every sample point's side-w coordinates, shuffled."""
    xs = [x for p in _points(ctx) for v, x in p.sides if v == w]
    return [xs[k] for k in rng.permutation(len(xs))]


def batch_entries(ctx, store, nablas, pairs, rng):
    """Hand ``store`` the shuffled points of each block side: first every
    other point for the sections' tensors, then all of them for the
    compatibility entries of each pair, so the second pass overlaps points
    the first already holds.  Asserts that no pass fell back."""
    for s, t in pairs:
        for w in (1, 2):
            xs = side_points(ctx, w, rng)
            sw, tw = (s.s1, s.s2)[w - 1], (t.s1, t.s2)[w - 1]
            store.batch(store.tensor, nablas[w - 1], sw, points=xs[::2])
            store.batch(store.compat_sides, nablas[w - 1], (ctx.g1, ctx.g2)[w - 1], sw, tw,
                        points=xs)
    assert store.batches["compat"] and not any(store.point_builds[k] for k in BATCHED)


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("mode", MODES)
def test_store_values_equal_the_direct_route(name, mode, tmp_path):
    check_store_values(scenario_context(name, mode, tmp_path), batched=False)


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("mode", MODES)
def test_store_values_built_over_points_equal_the_direct_route(name, mode, tmp_path):
    check_store_values(scenario_context(name, mode, tmp_path), batched=True)


def check_store_values(ctx, batched):
    space, eng = ctx.space, ctx.engine
    C = ctx.glued_connection()
    store = cx.PointStore(eng)
    nablas, metrics = (C.nabla1, C.nabla2), (ctx.g1, ctx.g2)
    functions = cx.glued_function_family(space, np.random.default_rng(0))
    if batched:
        batch_entries(ctx, store, nablas, _section_pairs(ctx), np.random.default_rng(2))
    checked = 0
    for s, t in _section_pairs(ctx):
        for p in _points(ctx, per_region=4):
            for w, x in p.sides:
                nabla, g = nablas[w - 1], metrics[w - 1]
                sw, tw = (s.s1, s.s2)[w - 1], (t.s1, t.s2)[w - 1]
                lhs, rhs = store.compat_sides(nabla, g, sw, tw, x)
                direct_lhs = _primal(eng.gradient(cx._gram_pair_field(g, sw, tw), list(x),
                                                  within=g.block.contains))
                gram = g.gram(list(x))
                direct_rhs = _primal(cx.apply_block(nabla, sw, eng)(x)) @ gram @ tw.at(x) \
                    + _primal(cx.apply_block(nabla, tw, eng)(x)) @ gram @ sw.at(x)
                assert bits(lhs) == bits(direct_lhs)
                assert bits(rhs) == bits(direct_rhs)
                assert bits(store.tensor(nabla, sw, x)) \
                    == bits(_primal(cx.apply_block(nabla, sw, eng)(x)))
                assert bits(store.at(sw, x)) == bits(sw.at(x))
                assert bits(store.gram(g, x)) == bits(gram)
                assert bits(store.value(sw, x)) == bits(sw(x))
                assert bits(store.probe(sw, x, g.block.contains)[1]) \
                    == bits(eng.probe(sw, x, g.block.contains)[1])
                for h in functions[:3]:
                    hw = (h.h1, h.h2)[w - 1]
                    assert bits(store.scaled_tensor(nabla, hw, sw, x)) \
                        == bits(_primal(cx.apply_block(nabla, sw.scaled(hw), eng)(x)))
                checked += 1
    assert checked > 20


class ProbeCounter:
    """Counts engine probes of block sections that a point store makes; a
    probe made inside ``jacobian`` comes from a direct route instead."""

    def __init__(self, monkeypatch):
        self.calls = Counter()
        probe = DiffEngine.probe

        def counted(engine, mapping, coords, within=None):
            if isinstance(mapping, BlockForm) and sys._getframe(1).f_code.co_name != "jacobian":
                for x in _each_point(coords):   # each point of a probe over points
                    self.calls[(mapping, tuple(x))] += 1
            return probe(engine, mapping, coords, within)

        monkeypatch.setattr(DiffEngine, "probe", counted)


@pytest.mark.parametrize("mode", MODES)
def test_each_section_is_probed_once_per_point(monkeypatch, mode):
    ctx = build_context(load_scenario(fixture_path("plane_axis_gluing")), mode=mode,
                        prime_koszul=True)
    counter = ProbeCounter(monkeypatch)
    store = ctx.store
    locus = {x for p in ctx.space.region_samples()["locus"] for _, x in p.sides}
    ctx.glued_connection()          # the gate: every section at every locus side
    gated = set(counter.calls)
    assert gated and {x for _, x in gated} <= locus
    tensors = []
    tensor = store.tensor

    def recorded(C, s, x):
        tensors.extend((s, p) for p in (x.keys if isinstance(x, cx._Points) else (x,)))
        return tensor(C, s, x)

    monkeypatch.setattr(store, "tensor", recorded)
    assert SUITES["metric-compat"](ctx).passed
    reused = [key for key in tensors if key[1] in locus]
    # metric-compat asks for locus tensors, and the gate built every one of them
    assert reused and set(reused) <= gated
    # the torsion path reads torsions and brackets from the store, and the
    # gate and metric-compat already probed every section it reads
    probed = set(counter.calls)
    reads = Counter()
    for entry in ("torsion", "bracket"):
        def read(*args, entry=entry, build=getattr(store, entry)):
            reads[entry] += 1
            return build(*args)

        monkeypatch.setattr(store, entry, read)
    for name, entry in (("symmetry", "torsion"), ("torsion-split", "torsion"),
                        ("bracket-split", "bracket")):
        reads.clear()
        assert SUITES[name](ctx).passed, name
        assert reads[entry], name
        assert set(counter.calls) == probed, name
    assert SUITES["levi-civita-inheritance"](ctx).passed
    assert counter.calls and set(counter.calls.values()) == {1}
    assert store.batches["probe"]


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("mode", MODES)
def test_torsion_and_bracket_entries_equal_the_direct_route(name, mode, tmp_path):
    check_torsion_and_bracket(scenario_context(name, mode, tmp_path), batched=False)


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("mode", MODES)
def test_torsion_and_bracket_from_entries_built_over_points_equal_the_direct_route(
        name, mode, tmp_path):
    check_torsion_and_bracket(scenario_context(name, mode, tmp_path), batched=True)


def check_torsion_and_bracket(ctx, batched):
    eng = ctx.engine
    C = ctx.glued_connection()
    store = cx.PointStore(eng)
    rng = np.random.default_rng(1)
    # the scenario's connections, and perturbed ones whose Christoffels are not memoized
    nablas = ((C.nabla1, C.nabla2),
              (cx.perturb_connection(C.nabla1, rng), cx.perturb_connection(C.nabla2, rng)))
    metrics = (ctx.g1, ctx.g2)
    checked = 0
    if batched:
        for pair in nablas:
            batch_entries(ctx, store, pair, _section_pairs(ctx, count=3), rng)
    for s, r in _section_pairs(ctx, count=3):
        for p in _points(ctx, per_region=3):
            for w, x in p.sides:
                g, sw, rw = metrics[w - 1], (s.s1, s.s2)[w - 1], (r.s1, r.s2)[w - 1]
                for a, b in ((sw, rw), (rw, sw)):
                    assert bits(store.bracket(g, a, b, x)) \
                        == bits(cx.lie_bracket_forms_block(g, a, b, eng).at(x))
                    for pair in nablas:
                        nabla = pair[w - 1]
                        assert bits(store.torsion(nabla, g, a, b, x)) \
                            == bits(cx.torsion_block(nabla, g, a, b, eng).at(x))
                checked += 1
    assert checked > 10


@pytest.mark.parametrize("name", SCENARIOS[:4] + ("ladder_d1", "ladder_d2", "ladder_d3",
                                                  "ladder_d4"))
@pytest.mark.parametrize("mode", MODES)
def test_the_gate_and_metric_compat_build_their_entries_over_points(name, mode, tmp_path):
    if name.startswith("ladder_"):
        path = tmp_path / f"{name}.yaml"
        path.write_text(ladder.ladder_yaml(int(name[-1]), 0))
    else:
        path = fixture_path(name)
    ctx = build_context(load_scenario(path), mode=mode, prime_koszul=True)
    store = ctx.store
    ctx.glued_connection()
    assert SUITES["metric-compat"](ctx).passed
    assert store.batches["compat"] and store.batches["tensor"]
    assert {k: store.point_builds[k] for k in BATCHED} == dict.fromkeys(BATCHED, 0)
    assert sum(store.batched_points.values()) > sum(store.batches.values())


def replace_section(ctx, index, field):
    """Section family with section ``index``'s block-1 field replaced by
    ``field(x, original)``."""
    family = list(ctx.sections)
    s = family[index]
    family[index] = cx.LambdaSection(ctx.space, BlockForm(s.s1.block,
                                                          lambda x: field(x, s.s1)), s.s2)
    ctx._memo["sections"] = tuple(family)
    return family[index]


@pytest.mark.parametrize("mode", MODES)
def test_a_section_that_branches_on_its_coordinates_is_built_point_by_point(mode):
    ctx = build_context(load_scenario(fixture_path("plane_axis_gluing")), mode=mode,
                        prime_koszul=True)
    eng = ctx.engine
    # a coordinate array has no truth value, so no pass over points can evaluate it
    s = replace_section(ctx, 2, lambda x, s1: s1(x) if x[0] > -100.0 else s1(x))
    store = ctx.store
    C = ctx.glued_connection()
    assert SUITES["metric-compat"](ctx).passed
    assert store.point_builds["tensor"] and store.point_builds["compat"]
    assert store.batches["tensor"] and store.batches["compat"]
    sections = ctx.sections
    checked = 0
    for p in _points(ctx, per_region=4):
        for w, x in p.sides:
            if w == 1:
                assert bits(store.tensor(C.nabla1, s.s1, x)) \
                    == bits(_primal(cx.apply_block(C.nabla1, s.s1, eng)(x)))
                lhs, rhs = store.compat_sides(C.nabla1, ctx.g1, sections[1].s1, s.s1, x)
                assert bits(lhs) == bits(_primal(eng.gradient(
                    cx._gram_pair_field(ctx.g1, sections[1].s1, s.s1), list(x),
                    within=ctx.g1.block.contains)))
                checked += 1
    assert checked >= 8


def raising_section(ctx, bad):
    """Section family with section 2's block-1 field raising at the points ``bad``."""
    family = list(ctx.sections)
    s = family[2]

    def field(x):
        key = tuple(float(_primal(v)) for v in x)
        if key in bad:
            raise ValidationError(f"section undefined at {key}")
        return s.s1(x)

    family[2] = cx.LambdaSection(ctx.space, BlockForm(s.s1.block, field), s.s2)
    ctx._memo["sections"] = tuple(family)


@pytest.mark.parametrize("mode", MODES)
def test_a_section_that_raises_gives_the_first_failing_point(mode):
    # the error names the first point in the suites' visit order where the
    # section raises, as evaluating point by point without a store does
    ctx = build_context(load_scenario(fixture_path("plane_axis_gluing")), mode=mode,
                        prime_koszul=True)
    samples = ctx.space.region_samples()
    ctx.glued_connection()
    first = samples["block1"][1].coords
    raising_section(ctx, {samples["block1"][2].coords, first})
    for name in ("metric-compat", "leibniz"):
        result = SUITES[name](ctx)
        assert result.witnesses == [{"error": "ValidationError",
                                     "detail": f"section undefined at {first}"}], name


@pytest.mark.parametrize("mode", MODES)
def test_a_section_that_raises_on_the_locus_fails_the_gate(mode):
    ctx = build_context(load_scenario(fixture_path("plane_axis_gluing")), mode=mode,
                        prime_koszul=True)
    locus = ctx.space.region_samples()["locus"]
    raising_section(ctx, {locus[3].coords, locus[1].coords})
    result = SUITES["metric-compat"](ctx)
    assert result.witnesses == [{"error": "ValidationError",
                                 "detail": f"section undefined at {locus[1].coords}"}]


def test_fd_stencil_leaving_the_domain_raises_as_before():
    engine = DiffEngine(DiffConfig("central_fd", fd_step=1e-5))
    half = EuclideanBlock(1, lambda x: x[0] < 0.0, [(-1.0,), (-2.0,)], "half")
    g = BlockMetric(half, ((PolyField(1, {(0,): 1.0, (2,): 0.5}),),))
    forms = cx.block_form_family(half, np.random.default_rng(0), extra=1)
    pairs = list(zip(forms, forms[1:]))
    C = cx.koszul_solve(g, engine)
    with pytest.raises(OutsideDomain) as err:
        cx.check_metric_compatible_block(C, g, pairs, [(-0.5,), (-4e-6,), (-1.0,)],
                                         cx.PointStore(engine), 1e-6)
    assert str(err.value) == "fd stencil leaves the domain at (-4e-06,) (axis 0)"
