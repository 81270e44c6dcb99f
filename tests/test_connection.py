"""Block connections: Leibniz operator, brackets, torsion, Koszul solver."""

import os
import sys

import numpy as np
import pytest

import diffglue as dg
from diffglue import connection as cx
from diffglue.cli import main
from diffglue.forms import coordinate_form
from diffglue.numerics import DiffEngine, _primal, coordinate_arrays, exp, point_count
from diffglue.scenario import build_context, fixture_path, load_scenario, parse_metric
from diffglue.suites import SUITES, derivative_trust_sweep
from oracles import lie_bracket_dual_block, torsion_dual_block

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "benchmarks"))
import ladder  # noqa: E402


def line(name="line", seeds=((1.0,), (-1.0,), (0.5,))):
    return dg.EuclideanBlock(1, lambda x: True, seeds, name)


def plane(name="plane"):
    return dg.EuclideanBlock(2, lambda x: True, [(0.5, 1.0), (-1.0, -0.5)], name)


@pytest.fixture
def engine():
    return dg.DiffEngine(dg.DiffConfig())


# -- covariant tensor ---------------------------------------------------------

def test_apply_flat_line(engine):
    b = line()
    C = dg.zero_connection(b)
    s = dg.BlockForm(b, lambda x: [x[0]])
    assert cx.PointStore(engine).tensor(C, s, (0.7,)) == pytest.approx(np.array([[1.0]]))


def test_apply_gamma_term(engine):
    # Gamma^1_11 = 1, s = dx: (nabla s)_11 = 0 - 1*1 = -1
    b = line()
    C = dg.BlockConnection(b, lambda x: [[[1.0]]])
    s = coordinate_form(b, 0)
    assert cx.PointStore(engine).tensor(C, s, (0.3,)) == pytest.approx(np.array([[-1.0]]))


def test_apply_leibniz_random(engine):
    # nabla(h s) = dh x s + h nabla s for any Christoffel field
    b = line()
    C = dg.BlockConnection(b, lambda x: [[[x[0] ** 2]]])
    h = lambda x: 1.0 + 2.0 * x[0]
    s = dg.BlockForm(b, lambda x: [x[0] ** 2 - 1.0])
    dh = dg.differential_block(b, h, engine)
    store = cx.PointStore(engine)
    for x in ((0.4,), (-1.1,)):
        lhs = store.scaled_tensor(C, h, s, x)
        rhs = np.outer(dh.at(x), s.at(x)) + h(list(x)) * store.tensor(C, s, x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


# -- action and brackets ------------------------------------------------------

def test_action_directional_derivative(engine):
    b = line()
    t = lambda x: [1.0]
    field = cx.action_block(t, lambda x: x[0] ** 2, engine, b)
    assert field((3.0,)) == pytest.approx(6.0)


def test_action_constant_function(engine):
    b = line()
    t = lambda x: [x[0] ** 3]
    field = cx.action_block(t, lambda x: 42.0, engine, b)
    assert field((0.7,)) == pytest.approx(0.0)


def test_bracket_constant_fields(engine):
    b = line()
    t = lambda x: [2.0]
    u = lambda x: [-3.0]
    br = lie_bracket_dual_block(t, u, engine, b)
    assert br((0.5,))[0] == pytest.approx(0.0)


def test_bracket_classic_example(engine):
    # [x d, d] = -d
    b = line()
    t = lambda x: [x[0]]
    u = lambda x: [1.0]
    br = lie_bracket_dual_block(t, u, engine, b)
    assert br((0.9,))[0] == pytest.approx(-1.0)


def test_bracket_antisymmetry(engine):
    b = line()
    t = lambda x: [x[0] ** 2]
    br = lie_bracket_dual_block(t, t, engine, b)
    assert br((1.3,))[0] == pytest.approx(0.0)


def test_bracket_jacobi(engine):
    b = plane()
    rng = np.random.default_rng(4)
    fields = []
    for _ in range(3):
        c = rng.uniform(-1, 1, size=(2, 3))
        fields.append(lambda x, c=c: [c[a][0] + c[a][1] * x[0] + c[a][2] * x[1] * x[0]
                                      for a in range(2)])
    t, u, v = fields
    def bracket(a, b_):
        return lie_bracket_dual_block(a, b_, engine, b)
    total = np.zeros(2)
    x = (0.4, -0.7)
    for a, b_, c_ in ((t, u, v), (u, v, t), (v, t, u)):
        inner = bracket(b_, c_)
        outer = bracket(a, inner)
        total += np.array(outer(x))
    assert total == pytest.approx(np.zeros(2), abs=1e-9)


def test_bracket_forms_identity_gram(engine):
    # with the identity Gram the form bracket reduces to the dual bracket:
    # [x dx, dx] = -dx
    b = line()
    g = dg.constant_metric(b, [[1.0]])
    s = dg.BlockForm(b, lambda x: [x[0]])
    r = coordinate_form(b, 0)
    store = cx.PointStore(engine)
    assert store.bracket(g, s, r, (0.4,)) == pytest.approx([-1.0])
    assert store.bracket(g, s, s, (0.4,)) == pytest.approx([0.0])


# -- covariant derivative --------------------------------------------------------
#
# nabla_t s is the direction slot of the covariant tensor contracted against t.

def test_covariant_flat(engine):
    b = line()
    C = dg.zero_connection(b)
    t = [1.0]
    s = dg.BlockForm(b, lambda x: [x[0]])
    assert t @ cx.PointStore(engine).tensor(C, s, (2.0,)) == pytest.approx([1.0])


def test_covariant_zero_direction(engine):
    b = line()
    C = dg.BlockConnection(b, lambda x: [[[3.0]]])
    t = [0.0]
    s = dg.BlockForm(b, lambda x: [x[0] ** 3])
    assert t @ cx.PointStore(engine).tensor(C, s, (1.1,)) == pytest.approx([0.0])


# -- torsion ------------------------------------------------------------------------

def test_torsion_flat_vanishes(engine):
    b = line()
    g = dg.constant_metric(b, [[1.0]])
    C = dg.zero_connection(b)
    s = coordinate_form(b, 0)
    r = dg.BlockForm(b, lambda x: [x[0] ** 2])
    assert cx.PointStore(engine).torsion(C, g, s, r, (0.8,)) == pytest.approx([0.0], abs=1e-12)


def test_torsion_one_dimensional_always_zero(engine):
    # on a 1-d block the direction/index antisymmetry kills every term
    b = line()
    g = dg.constant_metric(b, [[1.0]])
    C = dg.BlockConnection(b, lambda x: [[[1.0 + x[0] ** 2]]])
    rng = np.random.default_rng(6)
    for _ in range(3):
        c1, c2 = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        s = dg.BlockForm(b, lambda x, c=c1: [c[0] + c[1] * x[0] + c[2] * x[0] ** 2])
        r = dg.BlockForm(b, lambda x, c=c2: [c[0] + c[1] * x[0] + c[3] * x[0] ** 3])
        val = cx.PointStore(engine).torsion(C, g, s, r, (0.6,))
        assert val == pytest.approx([0.0], abs=1e-10)
        dualval = torsion_dual_block(C, lambda x, c=c1: [c[0] + c[1] * x[0]],
                                     lambda x, c=c2: [c[0] + c[1] * x[0]],
                                     engine, (0.6,))
        assert dualval == pytest.approx([0.0], abs=1e-10)


def test_torsion_detects_asymmetric_christoffel(engine):
    # Gamma^1_12 = 1 with Gamma^1_21 = 0: the dual-side antisymmetrized
    # Christoffel oracle predicts T(e1, e2)^1 = 1
    b = plane()
    gamma = np.zeros((2, 2, 2))
    gamma[0][0][1] = 1.0
    C = dg.BlockConnection(b, lambda x: gamma.tolist())
    t = lambda x: [1.0, 0.0]
    u = lambda x: [0.0, 1.0]
    val = torsion_dual_block(C, t, u, engine, (0.4, 0.2))
    oracle = np.array([gamma[c][0][1] - gamma[c][1][0] for c in range(2)])
    assert val == pytest.approx(oracle)
    assert np.max(np.abs(val)) > 0.5


# -- metric compatibility --------------------------------------------------------------

def test_flat_identity_compatible(engine):
    b = line()
    g = dg.constant_metric(b, [[1.0]])
    C = dg.zero_connection(b)
    pairs = [(coordinate_form(b, 0), coordinate_form(b, 0))]
    res = cx.check_metric_compatible_block(C, g, pairs, [(0.5,), (-0.7,)],
                                           cx.PointStore(engine), tol=1e-10)
    assert res


def test_flat_curved_incompatible(engine):
    # d of g(dx, dx) = 2x, flat connection contributes nothing
    b = line()
    g = dg.BlockMetric(b, ((lambda x: 1.0 + x[0] ** 2,),))
    C = dg.zero_connection(b)
    pairs = [(coordinate_form(b, 0), coordinate_form(b, 0))]
    res = cx.check_metric_compatible_block(C, g, pairs, [(1.0,)], cx.PointStore(engine),
                                           tol=1e-10)
    assert not res
    assert res.witness["lhs"] == pytest.approx([2.0])
    assert res.witness["rhs"] == pytest.approx([0.0])


def test_koszul_output_compatible(engine):
    b = line()
    g = dg.BlockMetric(b, ((lambda x: 1.0 + x[0] ** 2,),))
    C = cx.koszul_solve(g, engine)
    pairs = [(coordinate_form(b, 0), dg.BlockForm(b, lambda x: [x[0]]))]
    res = cx.check_metric_compatible_block(C, g, pairs, [(0.5,), (-1.2,)],
                                           cx.PointStore(engine), tol=1e-9)
    assert res


# -- koszul solver ------------------------------------------------------------------------

def test_koszul_constant_gram_flat(engine):
    g = dg.constant_metric(line(), [[3.0]])
    C = cx.koszul_solve(g, engine)
    assert C.gamma((0.7,)) == pytest.approx(np.zeros((1, 1, 1)))


def test_koszul_exponential_dual_gram(engine):
    # dual-side Gram e^{2x} (block Gram e^{-2x}): Gamma = 1 everywhere
    b = line()
    g = dg.BlockMetric(b, ((lambda x: exp(-2.0 * x[0]),),))
    C = cx.koszul_solve(g, engine)
    for x in (-1.0, 0.0, 0.8):
        assert C.gamma((x,)) == pytest.approx(np.full((1, 1, 1), 1.0), abs=1e-10)


def curved_plane_metric():
    """Block Gram diag(1, 1/(1+x^2)), so dual-side Gram diag(1, 1+x^2)."""
    entries = ((lambda x: 1.0, lambda x: 0.0),
               (lambda x: 0.0, lambda x: 1.0 / (1.0 + x[0] ** 2)))
    return dg.BlockMetric(plane(), entries)


def test_koszul_2d_curved_dual_gram(engine):
    # dual-side Gram diag(1, 1+x^2):
    # Gamma^2_12 = Gamma^2_21 = x/(1+x^2), Gamma^1_22 = -x, others 0
    C = cx.koszul_solve(curved_plane_metric(), engine)
    for x in (-0.8, 0.3, 1.5):
        got = C.gamma((x, 0.4))
        expect = np.zeros((2, 2, 2))
        expect[1][0][1] = expect[1][1][0] = x / (1.0 + x ** 2)
        expect[0][1][1] = -x
        assert got == pytest.approx(expect, abs=1e-9)


def test_koszul_inverts_once_per_evaluation(engine, monkeypatch):
    # the Gram is differentiated as one flattened field and its inverse
    # enters only the contraction, so one Christoffel evaluation inverts the
    # float Gram once: no entry and no derivative goes through the inversion
    b = dg.EuclideanBlock(3, lambda x: True, [(0.5, 1.0, -0.5)], "cube")
    diag = lambda i: (lambda x: 1.0 + x[i] ** 2)
    off = lambda x: 0.1
    g = dg.BlockMetric(b, ((diag(0), off, off), (off, diag(1), off), (off, off, diag(2))))
    C = cx.koszul_solve(g, engine)
    calls = []
    invert = cx.invert_matrix_generic
    monkeypatch.setattr(cx, "invert_matrix_generic",
                        lambda rows: calls.append(rows) or invert(rows))
    gamma = C.gamma((0.3, -0.4, 0.2))
    assert len(calls) == 1
    assert all(type(v) is float for row in calls[0] for v in row)
    oracle = cx.christoffel_closed_form(g, engine)
    assert gamma == pytest.approx(np.asarray(oracle([0.3, -0.4, 0.2])), abs=1e-10)


@pytest.mark.parametrize("mode", ["forward_dual", "central_fd"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_koszul_construction_without_points_probes_nothing(monkeypatch, mode, d):
    # the coordinate frame's brackets vanish identically ([d_i, d_j] = 0),
    # so building a factor takes no derivative: only a solve at a point does
    b = dg.EuclideanBlock(d, lambda x: True, [tuple([0.5] * d), tuple([-0.3] * d)], f"R{d}")
    g = dg.BlockMetric(b, tuple(tuple((lambda x, i=i: 1.0 + x[i] ** 2) if i == j
                                      else (lambda x: 0.0) for j in range(d))
                                for i in range(d)))
    engine = DiffEngine(dg.DiffConfig(mode))
    probes = []
    probe = DiffEngine.probe
    monkeypatch.setattr(DiffEngine, "probe",
                        lambda self, *a, **k: probes.append(a) or probe(self, *a, **k))
    C = cx.koszul_solve(g, engine)
    assert probes == []
    C.gamma(tuple([0.2] * d))
    assert len(probes) == 1


def test_koszul_memo_values_are_equal_and_immutable(engine):
    g = curved_plane_metric()
    C = cx.koszul_solve(g, engine)
    first = C.christoffel([0.3, 0.4])
    assert C.christoffel([np.float64(0.3), 0.4]) == first
    assert first == cx.koszul_solve(g, engine).christoffel([0.3, 0.4])
    with pytest.raises(TypeError):
        first[1][0][1] = 0.0
    assert C.gamma((0.3, 0.4))[1][0][1] == pytest.approx(0.3 / 1.09, abs=1e-12)


def test_koszul_dual_input_bypasses_memo(engine):
    # d/dx Gamma^2_12 = (1-x^2)/(1+x^2)^2 and d/dx Gamma^1_22 = -1; a float
    # nest from the memo would give zero rows
    C = cx.koszul_solve(curved_plane_metric(), engine)
    C.christoffel([0.3, 0.4])

    def entries(x):
        gam = C.christoffel(x)
        return [gam[1][0][1], gam[0][1][1]]

    jac = _primal(engine.jacobian(entries, [0.3, 0.4]))
    assert jac == pytest.approx(np.array([[0.91 / 1.09 ** 2, 0.0], [-1.0, 0.0]]), abs=1e-9)


def points_of(coords) -> list:
    """The points a call evaluates at: each point of coordinate arrays, or
    the one float point; a dual point gives none."""
    if point_count(coords) is not None:
        return [tuple(p) for p in np.array(coords, dtype=float).T.tolist()]
    return [tuple(coords)] if all(isinstance(c, float) for c in coords) else []


def test_koszul_solves_once_per_float_point(monkeypatch):
    # a point solved in the construction-time pass over coordinate arrays
    # counts like one solved alone: over a whole run, every float point is
    # solved exactly once, by one of the two
    jacobian = DiffEngine.jacobian
    for mode in ("dual", "fd"):
        solves = {}
        batches = []

        def counted(self, mapping, coords, within=None):
            if getattr(mapping, "__name__", None) == "flat_gram":
                if point_count(coords) is not None:
                    batches.append(point_count(coords))
                for p in points_of(coords):
                    key = (mapping, p)
                    solves[key] = solves.get(key, 0) + 1
            return jacobian(self, mapping, coords, within)

        monkeypatch.setattr(DiffEngine, "jacobian", counted)
        assert main(["run", str(fixture_path("plane_axis_gluing")), "--mode", mode]) == 0
        assert len(solves) > 50
        assert set(solves.values()) == {1}
        assert len(batches) == 2 and sum(batches) > 50


def scenario_path(name, tmp_path):
    """A fixture's path, or a ladder rung ``ladder_d<d>`` written to tmp_path."""
    if not name.startswith("ladder_"):
        return fixture_path(name)
    path = tmp_path / f"{name}.yaml"
    path.write_text(ladder.ladder_yaml(int(name[-1]), 0))
    return path


def test_koszul_suite_evaluates_oracle_at_every_point(monkeypatch, tmp_path):
    # the oracle has no memo: a second pass over the same context, where every
    # Koszul value comes from the memo, still computes an oracle value at
    # every grid point, in grid order, in one evaluation over each block grid
    evaluations, batches = [], []
    oracle = cx.christoffel_closed_form

    def counted(g, engine):
        fn = oracle(g, engine)

        def evaluate(x):
            values = fn(x)
            points = points_of(x)
            shape = (len(points),) * (point_count(x) is not None) + (g.block.dim,) * 3
            assert np.shape(values) == shape and np.isfinite(values).all()
            evaluations.extend(points)
            batches.append(point_count(x))
            return values

        return evaluate

    monkeypatch.setattr(cx, "christoffel_closed_form", counted)
    for name in ("plane_axis_gluing", "ladder_d3"):
        ctx = build_context(load_scenario(scenario_path(name, tmp_path)))
        grids = [ctx.space.block_grid(w) for w in (1, 2)]
        for _ in range(2):
            evaluations.clear()
            batches.clear()
            assert SUITES["koszul"](ctx).passed, name
            assert evaluations == [tuple(x) for grid in grids for x in grid], name
            assert batches == [len(grid) for grid in grids], name


@pytest.mark.parametrize("name", ["plane_axis_gluing", "ladder_d4"])
def test_derivative_trust_sweep_checks_each_block_side_in_one_pass(monkeypatch, name,
                                                                   tmp_path):
    # one cross-check per block side, over the coordinate arrays of all of
    # its sample points, not one per point
    ctx = build_context(load_scenario(scenario_path(name, tmp_path)))
    sides = {1: 0, 2: 0}
    for region in ("block1", "locus", "block2"):
        for p in ctx.space.region_samples()[region]:
            for w, _ in p.sides:
                sides[w] += 1
    batches = []
    cross_check = DiffEngine.fd_cross_check

    def counted(self, field, coords, within=None):
        batches.append(point_count(coords))
        return cross_check(self, field, coords, within)

    monkeypatch.setattr(DiffEngine, "fd_cross_check", counted)
    derivative_trust_sweep(ctx)
    assert batches == [sides[1], sides[2]] and min(batches) > 1


@pytest.mark.parametrize("name", ["ladder_d2", "ladder_d3", "ladder_d4", "plane_axis_gluing"])
@pytest.mark.parametrize("mode", ["forward_dual", "central_fd"])
def test_koszul_values_primed_at_construction_equal_unprimed(name, mode, tmp_path,
                                                             monkeypatch):
    # the construction-time pass covers the suites' sample points (no solve
    # afterwards), and its values are those of a closure that solves each
    # point alone, bit for bit
    ctx = build_context(load_scenario(scenario_path(name, tmp_path)), mode=mode,
                        prime_koszul=True)
    for which, g in ((1, ctx.g1), (2, ctx.g2)):
        primed = ctx.koszul(which)
        samples = ctx.space.region_samples()
        points = ctx.space.block_grid(which) + [
            x for p in samples["locus"] for w, x in p.sides if w == which]
        solves = []
        jacobian = DiffEngine.jacobian

        def counted(self, mapping, coords, within=None):
            if getattr(mapping, "__name__", None) == "flat_gram":
                solves.append(coords)
            return jacobian(self, mapping, coords, within)

        monkeypatch.setattr(DiffEngine, "jacobian", counted)
        got = [primed.christoffel(list(x)) for x in points]
        assert solves == []
        plain = cx.koszul_solve(g, ctx.engine)
        want = [plain.christoffel(list(x)) for x in points]
        monkeypatch.undo()
        assert len(solves) == len(set(points)) > 10
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_point_query_context_solves_no_sample_point_up_front(monkeypatch):
    # a context built for a point query (the default) leaves its Koszul
    # factors unprimed: building one and asking for one point solves that
    # point alone
    solved = []
    jacobian = DiffEngine.jacobian

    def counted(self, mapping, coords, within=None):
        if getattr(mapping, "__name__", None) == "flat_gram":
            solved.append(points_of(coords))
        return jacobian(self, mapping, coords, within)

    monkeypatch.setattr(DiffEngine, "jacobian", counted)
    ctx = build_context(load_scenario(fixture_path("plane_axis_gluing")))
    ctx.nabla1.gamma([-0.5, 0.3])
    assert solved == [[(-0.5, 0.3)]]


@pytest.mark.parametrize("mode", ["forward_dual", "central_fd"])
def test_koszul_priming_stores_no_value_where_a_point_solve_raises(mode):
    # x/x is 0.0/0.0 at 0, which raises on Python floats and is NaN in numpy:
    # the pass over points must not store that NaN, so the point raises
    # primed as it does unprimed
    eng = DiffEngine(dg.DiffConfig(mode))
    g = dg.BlockMetric(line(), ((lambda x: 1.0 + x[0] / x[0],),))
    points = [(0.5,), (0.0,), (2.0,)]
    primed, plain = cx.koszul_solve(g, eng, points), cx.koszul_solve(g, eng)
    for x in points:
        try:
            want = plain.christoffel(list(x))
        except ArithmeticError as exc:
            with pytest.raises(type(exc), match=str(exc)):
                primed.christoffel(list(x))
        else:
            assert primed.christoffel(list(x)) == want
    with pytest.raises(ZeroDivisionError):
        plain.christoffel([0.0])


def test_koszul_priming_that_raises_leaves_each_point_to_its_own_solve(engine):
    # the Gram x^2 is singular at 0: the pass over all three points raises,
    # so construction succeeds and only the singular point raises, when asked
    g = dg.BlockMetric(line(), ((lambda x: x[0] * x[0],),))
    C = cx.koszul_solve(g, engine, [(0.5,), (0.0,), (2.0,)])
    assert C.christoffel([0.5]) == cx.koszul_solve(g, engine).christoffel([0.5])
    with pytest.raises(dg.SingularGram):
        C.christoffel([0.0])


@pytest.mark.parametrize("d", ladder.DIMS)
@pytest.mark.parametrize("mode", ["forward_dual", "central_fd"])
def test_koszul_on_ladder_grams(d, mode):
    # the ladder's curved, coupled Grams: the solver agrees with the closed
    # form within the suite row, is symmetric in its lower indices bit for
    # bit, and its pass over points gives each point the bits of its own solve
    eng = DiffEngine(dg.DiffConfig(mode))
    rung = ladder.ladder_scenario(d, 0)
    block = dg.EuclideanBlock(d, lambda x: True, rung["space"]["block1"]["seed_points"], "rung")
    g = parse_metric(rung["metrics"]["g1"], block, "g1")
    points = [tuple(p) for p in np.random.default_rng(d).uniform(-1.5, 1.5, (6, d)).tolist()]
    primed = cx.koszul_solve(g, eng, points)
    eng.jacobian = None   # the primed values are the pass's: no point is solved again
    plain = cx.koszul_solve(g, DiffEngine(eng.config))
    oracle = cx.christoffel_closed_form(g, eng)(coordinate_arrays(points))
    for x, want in zip(points, oracle):
        gamma = np.array(plain.christoffel(list(x)))
        assert np.max(np.abs(gamma - want)) <= eng.config.suite_tol
        assert gamma.tobytes() == gamma.transpose(0, 2, 1).tobytes()
        assert np.array(primed.christoffel(list(x))).tobytes() == gamma.tobytes()


def test_koszul_matches_closed_form_fd_mode():
    fd = dg.DiffEngine(dg.DiffConfig("central_fd"))
    b = line()
    g = dg.BlockMetric(b, ((lambda x: exp(-2.0 * x[0]),),))
    C = cx.koszul_solve(g, fd)
    oracle = cx.christoffel_closed_form(g, fd)
    for x in (-0.5, 0.2, 1.0):
        assert C.gamma((x,)) == pytest.approx(np.asarray(oracle((x,))), abs=1e-6)


def test_perturbed_koszul_breaks_uniqueness(engine):
    b = line()
    g = dg.BlockMetric(b, ((lambda x: 1.0 + x[0] ** 2,),))
    C = cx.koszul_solve(g, engine)
    rng = np.random.default_rng(11)
    P = cx.perturb_connection(C, rng)
    pairs = [(coordinate_form(b, 0), dg.BlockForm(b, lambda x: [x[0]]))]
    res = cx.check_metric_compatible_block(P, g, pairs, [(0.5,)], cx.PointStore(engine),
                                           tol=1e-4)
    assert not res
