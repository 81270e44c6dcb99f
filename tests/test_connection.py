"""Block connections: Leibniz operator, brackets, torsion, Koszul solver."""

import numpy as np
import pytest

import diffglue as dg
from diffglue import connection as cx
from diffglue.cli import main
from diffglue.forms import coordinate_form
from diffglue.numerics import DiffEngine, _primal, exp
from diffglue.scenario import build_context, fixture_path, load_scenario
from diffglue.suites import SUITES


def line(name="line", seeds=((1.0,), (-1.0,), (0.5,))):
    return dg.EuclideanBlock(1, lambda x: True, seeds, name)


def plane(name="plane"):
    return dg.EuclideanBlock(2, lambda x: True, [(0.5, 1.0), (-1.0, -0.5)], name)


@pytest.fixture
def engine():
    return dg.DiffEngine(dg.DiffConfig())


# -- apply -----------------------------------------------------------------

def test_apply_flat_line(engine):
    b = line()
    C = dg.zero_connection(b)
    s = dg.BlockForm(b, lambda x: [x[0]])
    tensor = dg.apply_block(C, s, engine)
    assert _primal(tensor((0.7,))) == pytest.approx(np.array([[1.0]]))


def test_apply_gamma_term(engine):
    # Gamma^1_11 = 1, s = dx: (nabla s)_11 = 0 - 1*1 = -1
    b = line()
    C = dg.BlockConnection(b, lambda x: [[[1.0]]])
    s = coordinate_form(b, 0)
    tensor = dg.apply_block(C, s, engine)
    assert _primal(tensor((0.3,))) == pytest.approx(np.array([[-1.0]]))


def test_apply_leibniz_random(engine):
    # nabla(h s) = dh x s + h nabla s for any Christoffel field
    b = line()
    C = dg.BlockConnection(b, lambda x: [[[x[0] ** 2]]])
    h = lambda x: 1.0 + 2.0 * x[0]
    s = dg.BlockForm(b, lambda x: [x[0] ** 2 - 1.0])
    hs = s.scaled(h)
    dh = dg.differential_block(b, h, engine)
    for x in ((0.4,), (-1.1,)):
        lhs = _primal(dg.apply_block(C, hs, engine)(x))
        rhs = np.outer(dh.at(x), s.at(x)) + h(list(x)) * \
            _primal(dg.apply_block(C, s, engine)(x))
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
    br = cx.lie_bracket_dual_block(t, u, engine, b)
    assert br((0.5,))[0] == pytest.approx(0.0)


def test_bracket_classic_example(engine):
    # [x d, d] = -d
    b = line()
    t = lambda x: [x[0]]
    u = lambda x: [1.0]
    br = cx.lie_bracket_dual_block(t, u, engine, b)
    assert br((0.9,))[0] == pytest.approx(-1.0)


def test_bracket_antisymmetry(engine):
    b = line()
    t = lambda x: [x[0] ** 2]
    br = cx.lie_bracket_dual_block(t, t, engine, b)
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
        return cx.lie_bracket_dual_block(a, b_, engine, b)
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
    br = cx.lie_bracket_forms_block(g, s, r, engine)
    assert br.at((0.4,)) == pytest.approx([-1.0])
    zero = cx.lie_bracket_forms_block(g, s, s, engine)
    assert zero.at((0.4,)) == pytest.approx([0.0])


# -- covariant derivative --------------------------------------------------------

def test_covariant_flat(engine):
    b = line()
    C = dg.zero_connection(b)
    t = lambda x: [1.0]
    s = dg.BlockForm(b, lambda x: [x[0]])
    out = cx.covariant_block(C, t, s, engine)
    assert out.at((2.0,)) == pytest.approx([1.0])


def test_covariant_zero_direction(engine):
    b = line()
    C = dg.BlockConnection(b, lambda x: [[[3.0]]])
    t = lambda x: [0.0]
    s = dg.BlockForm(b, lambda x: [x[0] ** 3])
    out = cx.covariant_block(C, t, s, engine)
    assert out.at((1.1,)) == pytest.approx([0.0])


# -- torsion ------------------------------------------------------------------------

def test_torsion_flat_vanishes(engine):
    b = line()
    g = dg.constant_metric(b, [[1.0]])
    C = dg.zero_connection(b)
    s = coordinate_form(b, 0)
    r = dg.BlockForm(b, lambda x: [x[0] ** 2])
    t = cx.torsion_block(C, g, s, r, engine)
    assert t.at((0.8,)) == pytest.approx([0.0], abs=1e-12)


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
        val = cx.torsion_block(C, g, s, r, engine).at((0.6,))
        assert val == pytest.approx([0.0], abs=1e-10)
        dualval = cx.torsion_dual_block(C, lambda x, c=c1: [c[0] + c[1] * x[0]],
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
    val = cx.torsion_dual_block(C, t, u, engine, (0.4, 0.2))
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
                                           engine, tol=1e-10)
    assert res


def test_flat_curved_incompatible(engine):
    # d of g(dx, dx) = 2x, flat connection contributes nothing
    b = line()
    g = dg.BlockMetric(b, ((lambda x: 1.0 + x[0] ** 2,),))
    C = dg.zero_connection(b)
    pairs = [(coordinate_form(b, 0), coordinate_form(b, 0))]
    res = cx.check_metric_compatible_block(C, g, pairs, [(1.0,)], engine, tol=1e-10)
    assert not res
    assert res.witness["lhs"] == pytest.approx([2.0])
    assert res.witness["rhs"] == pytest.approx([0.0])


def test_koszul_output_compatible(engine):
    b = line()
    g = dg.BlockMetric(b, ((lambda x: 1.0 + x[0] ** 2,),))
    C = cx.koszul_solve(g, engine)
    pairs = [(coordinate_form(b, 0), dg.BlockForm(b, lambda x: [x[0]]))]
    res = cx.check_metric_compatible_block(C, g, pairs, [(0.5,), (-1.2,)],
                                           engine, tol=1e-9)
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
    # the dual Gram is differentiated as one flattened field, so one
    # Christoffel evaluation inverts the Gram once, not once per entry
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
    oracle = cx.christoffel_closed_form(g, engine)
    assert gamma == pytest.approx(np.asarray(oracle([0.3, -0.4, 0.2])), abs=1e-10)


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


def test_koszul_solves_once_per_float_point(monkeypatch):
    solves = {}
    jacobian = DiffEngine.jacobian

    def counted(self, mapping, coords, within=None):
        if getattr(mapping, "__name__", None) == "dual_gram" \
                and all(isinstance(c, float) for c in coords):
            key = (mapping, tuple(coords))
            solves[key] = solves.get(key, 0) + 1
        return jacobian(self, mapping, coords, within)

    monkeypatch.setattr(DiffEngine, "jacobian", counted)
    assert main(["run", str(fixture_path("plane_axis_gluing")), "--mode", "dual"]) == 0
    assert len(solves) > 50
    assert set(solves.values()) == {1}


def test_koszul_suite_evaluates_oracle_at_every_point(monkeypatch):
    # the oracle has no memo: a second pass over the same context, where every
    # Koszul value comes from the memo, still computes every oracle value
    ctx = build_context(load_scenario(fixture_path("plane_axis_gluing")))
    evaluations = []
    oracle = cx.christoffel_closed_form

    def counted(g, engine):
        fn = oracle(g, engine)
        return lambda x: evaluations.append(tuple(x)) or fn(x)

    monkeypatch.setattr(cx, "christoffel_closed_form", counted)
    grid = [tuple(x) for w in (1, 2) for x in ctx.space.block_grid(w)]
    for _ in range(2):
        evaluations.clear()
        assert SUITES["koszul"](ctx).passed
        assert evaluations == grid


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
    res = cx.check_metric_compatible_block(P, g, pairs, [(0.5,)], engine, tol=1e-4)
    assert not res
