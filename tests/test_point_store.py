"""The engine's probe primitive and the per-run point store.

A probe is a field's outputs at the mode's probe inputs; ``rows`` of a probe
must be the Jacobian the engine computed before probes existed.  Every entry
the point store builds in a pass over the points of a block side must equal
the entry a fresh store builds at its point, bit for bit; d(g(s,t)) must
equal ``engine.gradient`` of the scalar field g(s,t) bit for bit, and the
covariant tensors, brackets and torsions must agree with the complex-step
oracle within the ``split`` bound, scaled by the size of the value.
"""

import os
import struct
import sys
from collections import Counter
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffglue import connection as cx
from diffglue.errors import OutsideDomain, ValidationError
from diffglue.fields import PolyField
from diffglue.forms import BlockForm
from diffglue.metric import BlockMetric
from diffglue.numerics import (DiffConfig, DiffEngine, DualScalar, _each_point, _primal, _seeds,
                               coordinate_arrays, exp)
from diffglue.scenario import build_context, fixture_path, load_scenario, parse_map
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
    xs = [x for p in _points(ctx, None, None) for v, x in p.sides if v == w]
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


def oracle_tensor(C, s, x):
    """The complex-step oracle's covariant tensor of s under C at x."""
    return cx._oracle_tensor(C.gamma(x), s, x)[2]


def pair_field(g, s, t):
    """The scalar field g(s, t) = s_i Gram_ij t_j, dual-safe."""
    return lambda x: cx._pair_value(g.gram_generic(x), s(x), t(x))


def product(h, s):
    """The block form h * s."""
    return BlockForm(s.block, lambda x: [h(x) * v for v in s(x)])


def assert_close(value, oracle, tol):
    """``value`` within ``tol`` of ``oracle``, scaled by the oracle's size."""
    assert float(np.max(np.abs(value - oracle))) <= tol * (1.0 + float(np.max(np.abs(oracle))))


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("mode", MODES)
def test_store_values_equal_the_oracle(name, mode, tmp_path):
    check_store_values(scenario_context(name, mode, tmp_path), batched=False)


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("mode", MODES)
def test_store_values_built_over_points_equal_values_built_point_by_point(name, mode, tmp_path):
    check_store_values(scenario_context(name, mode, tmp_path), batched=True)


def store_values(store, nabla, g, sw, tw, hs, x):
    """The compatibility, tensor, ``at``, Gram, value, probe and Leibniz
    entries of ``store`` for the fields at x."""
    return [store.compat_sides(nabla, g, sw, tw, x), store.tensor(nabla, sw, x),
            store.at(sw, x), store.gram(g, x), store.value(sw, x),
            store.probe(sw, x, g.block.contains)[1]] + [
        store.scaled_tensor(nabla, hw, sw, x) for hw in hs]


def check_store_values(ctx, batched):
    space, eng = ctx.space, ctx.engine
    C = ctx.glued_connection()
    store = cx.PointStore(eng)
    nablas, metrics = (C.nabla1, C.nabla2), (ctx.g1, ctx.g2)
    functions = cx.glued_function_family(space, np.random.default_rng(0))
    tol = eng.config.tol("split")
    if batched:
        batch_entries(ctx, store, nablas, _section_pairs(ctx), np.random.default_rng(2))
    checked = 0
    for s, t in _section_pairs(ctx):
        for p in _points(ctx, 4, 4):
            for w, x in p.sides:
                nabla, g = nablas[w - 1], metrics[w - 1]
                sw, tw = (s.s1, s.s2)[w - 1], (t.s1, t.s2)[w - 1]
                hs = [(h.h1, h.h2)[w - 1] for h in functions[:3]]
                values = store_values(store, nabla, g, sw, tw, hs, x)
                if batched:
                    assert bits(values) == bits(store_values(cx.PointStore(eng), nabla, g, sw,
                                                             tw, hs, x))
                    checked += 1
                    continue
                (lhs, rhs), tensor, at, gram, value, outputs, *scaled = values
                assert bits(lhs) == bits(_primal(eng.gradient(pair_field(g, sw, tw),
                                                              list(x), within=g.block.contains)))
                assert bits(at) == bits(sw.at(x))
                assert bits(gram) == bits(g.gram(list(x)))
                assert bits(value) == bits(sw(x))
                assert bits(outputs) == bits(eng.probe(sw, x, g.block.contains)[1])
                ts, tt = oracle_tensor(nabla, sw, x), oracle_tensor(nabla, tw, x)
                assert_close(tensor, ts, tol)
                assert_close(rhs, ts @ gram @ tw.at(x) + tt @ gram @ sw.at(x), tol)
                for hw, st in zip(hs, scaled):
                    assert_close(st, oracle_tensor(nabla, product(hw, sw), x), tol)
                checked += 1
    assert checked > 20


class ProbeCounter:
    """Counts engine probes of block sections that a point store makes; a
    probe made inside ``jacobian`` comes from another route (bracket-split's
    nested actions)."""

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
    # the torsion path and covderiv-split read torsions, brackets and
    # pairing-map images from the store, and the gate and metric-compat
    # already probed every section they read
    probed = set(counter.calls)
    reads = Counter()
    for entry in ("torsion", "bracket", "phi"):
        def read(*args, entry=entry, build=getattr(store, entry)):
            reads[entry] += 1
            return build(*args)

        monkeypatch.setattr(store, entry, read)
    for name, entry in (("symmetry", "torsion"), ("torsion-split", "torsion"),
                        ("bracket-split", "bracket"), ("covderiv-split", "phi")):
        reads.clear()
        assert SUITES[name](ctx).passed, name
        assert reads[entry], name
        assert set(counter.calls) == probed, name
    assert SUITES["levi-civita-inheritance"](ctx).passed
    assert counter.calls and set(counter.calls.values()) == {1}
    assert store.batches["probe"]


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("mode", MODES)
def test_torsion_and_bracket_entries_equal_the_oracle(name, mode, tmp_path):
    check_torsion_and_bracket(scenario_context(name, mode, tmp_path), batched=False)


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("mode", MODES)
def test_torsion_and_bracket_from_entries_built_over_points_equal_entries_built_point_by_point(
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
    tol = eng.config.tol("split")
    checked = 0
    if batched:
        for pair in nablas:
            batch_entries(ctx, store, pair, _section_pairs(ctx, count=3), rng)
    for s, r in _section_pairs(ctx, count=3):
        for p in _points(ctx, 3, 3):
            for w, x in p.sides:
                g, sw, rw = metrics[w - 1], (s.s1, s.s2)[w - 1], (r.s1, r.s2)[w - 1]
                for a, b in ((sw, rw), (rw, sw)):
                    single = cx.PointStore(eng)
                    if batched:
                        assert bits(store.bracket(g, a, b, x)) == bits(single.bracket(g, a, b, x))
                    for pair in nablas:
                        nabla = pair[w - 1]
                        if batched:
                            assert bits(store.torsion(nabla, g, a, b, x)) \
                                == bits(single.torsion(nabla, g, a, b, x))
                            continue
                        torsion = cx.oracle_torsion(nabla, g, a, b, x)
                        assert_close(store.torsion(nabla, g, a, b, x), torsion, tol)
                        # [a,b] = nabla_a b - nabla_b a - T(a,b), for any connection
                        assert_close(store.bracket(g, a, b, x),
                                     cx.oracle_covariant(nabla, g, a, b, x)
                                     - cx.oracle_covariant(nabla, g, b, a, x) - torsion, tol)
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
    for p in _points(ctx, 4, 4):
        for w, x in p.sides:
            if w == 1:
                assert bits(store.tensor(C.nabla1, s.s1, x)) \
                    == bits(cx.PointStore(eng).tensor(C.nabla1, s.s1, x))
                lhs, rhs = store.compat_sides(C.nabla1, ctx.g1, sections[1].s1, s.s1, x)
                assert bits(lhs) == bits(_primal(eng.gradient(
                    pair_field(ctx.g1, sections[1].s1, s.s1), list(x),
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


@pytest.mark.parametrize("suite", ("covderiv-split", "torsion-split"))
def test_a_field_the_oracle_cannot_evaluate_fails_the_split_suite(suite):
    # a section that branches on a coordinate takes the branch of the float
    # point; one that compares a value computed from its coordinates has no
    # complex-step derivative, and the split suite fails with a witness
    # instead of passing unchecked
    ctx = build_context(load_scenario(fixture_path("plane_axis_gluing")), prime_koszul=True)
    replace_section(ctx, 1, lambda x, s1: s1(x) if x[0] > -100.0 else s1(x))
    assert SUITES[suite](ctx).passed
    ctx = build_context(load_scenario(fixture_path("plane_axis_gluing")), prime_koszul=True)
    replace_section(ctx, 1, lambda x, s1: s1(x) if 2.0 * x[0] > -100.0 else s1(x))
    result = SUITES[suite](ctx)
    assert not result.passed
    assert [w["error"] for w in result.witnesses] == ["ValidationError"]
    assert "complex-step oracle" in result.witnesses[0]["detail"]


def test_the_cubic_inverse_jacobian_has_no_complex_step_derivative():
    # the cubic map's J_{f^-1} converts z to a float to test for z = 0
    cubic = parse_map({"kind": "cubic"}, 1, 1, "map")
    with pytest.raises(ValidationError, match="complex"):
        cx.complex_step(lambda z: cubic.inverse_jacobian(z)[0], [0.5])
    value, jac = cx.complex_step(cubic.inverse, [8.0])
    assert value == pytest.approx([2.0]) and jac == pytest.approx(np.array([[1.0 / 12.0]]))


@pytest.mark.parametrize("field, x, slope", [
    (lambda x: [abs(exp(x[0]) - 2.0)], [0.3], [-np.exp(0.3)]),
    (lambda x: [abs(np.float64(2.0) * x[0] - 1.0)], [0.3], [-2.0]),
    (lambda x: [abs(x[0] * x[0] - 0.04)], coordinate_arrays([(0.3,), (-0.1,)]), [0.6, 0.2]),
], ids=["exp", "numpy scalar", "over points"])
def test_the_oracle_takes_the_analytic_abs_of_every_stepped_value(field, x, slope):
    # abs of a value computed from a moved coordinate, at a point or over
    # coordinate arrays, keeps the step: a modulus would give slope 0
    assert cx.complex_step(field, x)[1].ravel() == pytest.approx(slope, abs=1e-12)


def test_the_closed_form_differentiates_abs_of_a_computed_gram_entry():
    # g = 1 + 0.1 |x^2 + 1|: the oracle agrees with the solver, at a point
    # and over coordinate arrays, instead of reading dg = 0 and Gamma = 0
    line = EuclideanBlock(1, lambda x: True, [(1.0,), (-1.0,), (0.5,)], "line")
    g = BlockMetric(line, ((lambda x: 1.0 + 0.1 * abs(x[0] ** 2 + 1.0),),))
    engine = DiffEngine(DiffConfig())
    solved = [cx.koszul_solve(g, engine).gamma((x,)) for x in (0.3, -0.4)]
    oracle = cx.christoffel_closed_form(g, engine)
    assert solved[0] == pytest.approx(np.full((1, 1, 1), -0.0271), abs=1e-4)
    assert oracle([0.3]) == pytest.approx(solved[0], abs=1e-15)
    assert oracle(coordinate_arrays([(0.3,), (-0.4,)])) == pytest.approx(np.array(solved),
                                                                         abs=1e-15)
    # a comparison of a computed value still has no complex-step derivative
    with pytest.raises(ValidationError, match="complex"):
        cx.complex_step(lambda x: [x[0] if 2.0 * x[0] > 0.0 else -x[0]], [0.3])


def test_fd_stencil_leaving_the_domain_raises_as_before():
    engine = DiffEngine(DiffConfig("central_fd", fd_step=1e-5))
    half = EuclideanBlock(1, lambda x: x[0] < 0.0, [(-1.0,), (-2.0,)], "half")
    g = BlockMetric(half, ((PolyField(1, {(0,): 1.0, (2,): 0.5}),),))
    forms = list(islice(cx.block_form_family(half, np.random.default_rng(0)), 3))
    pairs = list(zip(forms, forms[1:]))
    C = cx.koszul_solve(g, engine)
    with pytest.raises(OutsideDomain) as err:
        cx.check_metric_compatible_block(C, g, pairs, [(-0.5,), (-4e-6,), (-1.0,)],
                                         cx.PointStore(engine), 1e-6)
    assert str(err.value) == "fd stencil leaves the domain at (-4e-06,) (axis 0)"
