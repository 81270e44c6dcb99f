"""Differentials, form transport, glued fibres, and section splitting."""

from collections import namedtuple

import numpy as np
import pytest

import diffglue as dg
from diffglue.forms import (Checks, CompatResult, coordinate_form, nullspace_basis,
                            relation_matrix, vanishing_at_point, zero_block_form)
from diffglue.connection import pushforward_form
from diffglue.numerics import _primal
from diffglue.scenario import parse_map


# parametrized map from R^domain_dim into a block, centred at basepoint
Plot = namedtuple("Plot", "domain_dim mapping basepoint")


def line(name="line", seeds=((1.5,), (-1.0,))):
    return dg.EuclideanBlock(1, lambda x: True, seeds, name)


def identity_map():
    return dg.GluingMap(lambda y: list(y), lambda z: list(z),
                        lambda y: np.eye(len(y)).tolist(),
                        lambda z: np.eye(len(z)).tolist())


@pytest.fixture
def engine():
    return dg.DiffEngine(dg.DiffConfig())


@pytest.fixture
def cross():
    return dg.build_glued_space(line("a1"), line("a2"),
                                dg.PointSetLocus([(0.0,)]), identity_map())


@pytest.fixture
def halfline():
    locus = dg.OpenSubdomainLocus(lambda x: x[0] < 0.0, [(-1.0,), (-0.5,), (-2.0,)])
    return dg.build_glued_space(line("h1", ((1.0,), (-1.0,), (-2.5,))),
                                line("h2", ((1.0,), (-1.0,), (-2.5,))),
                                locus, identity_map(),
                                dg.HypothesisFlags(True, True))


@pytest.fixture
def plane_axis():
    plane = lambda n: dg.EuclideanBlock(2, lambda x: True,
                                        [(0.5, 1.0), (-1.0, -0.5)], n)
    locus = dg.SubmanifoldLocus(1, lambda t: [t[0], 0.0], lambda x: [x[0]],
                                [(-1.0,), (0.3,), (1.2,)])
    return dg.build_glued_space(plane("p1"), plane("p2"), locus, identity_map(),
                                dg.HypothesisFlags(True, True))


# -- differentials -----------------------------------------------------------

def test_differential_square(engine):
    b = line()
    form = dg.differential_block(b, lambda x: x[0] ** 2, engine)
    assert form.at((3.0,)) == pytest.approx([6.0])


def test_differential_constant(engine):
    form = dg.differential_block(line(), lambda x: 7.0, engine)
    assert form.at((2.0,)) == pytest.approx([0.0])


def test_differential_xy_cross_checked(engine):
    # h(x,y) = xy: gradient (y, x); dual values cross-checked against fd
    plane = dg.EuclideanBlock(2, lambda x: True, [(1.0, 2.0)], "p")
    h = lambda x: x[0] * x[1]
    form = dg.differential_block(plane, h, engine)
    assert form.at((1.0, 2.0)) == pytest.approx([2.0, 1.0])
    fd = dg.DiffEngine(dg.DiffConfig("central_fd"))
    assert _primal(fd.gradient(h, [1.0, 2.0])) == pytest.approx([2.0, 1.0], abs=1e-6)


# -- the gluing map's derivative and form transport ---------------------------

AFFINE = {"kind": "affine", "matrix": [[2.0, 1.0], [0.0, 1.0]], "offset": [0.5, 0.0]}


@pytest.mark.parametrize("spec, dim", [({"kind": "identity"}, 2), (AFFINE, 2),
                                       ({"kind": "cubic"}, 1)])
def test_map_jacobian_matches_the_engine(spec, dim, engine):
    # the map's analytic Jacobian is the only derivative of f the library
    # takes; it must equal the dual-number derivative of the forward formula
    f = parse_map(spec, dim, dim, "map")
    for y in ([0.7, -1.3][:dim], [-2.0, 0.4][:dim]):
        exact = np.asarray(f.jacobian(list(y)), dtype=float)
        assert np.array_equal(exact, _primal(engine.jacobian(f.forward, list(y))))


def test_pushforward_form_on_identity_map_inverts_no_matrix(monkeypatch, engine):
    # the map carries J_{f^-1}, so pushing a form through it inverts nothing,
    # on float points and on the seeded duals of a Jacobian
    from diffglue import connection, numerics
    calls = []
    for mod in (connection, numerics):
        original = mod.invert_matrix_generic
        monkeypatch.setattr(mod, "invert_matrix_generic",
                            lambda rows, _f=original: calls.append(rows) or _f(rows))
    plane = lambda n: dg.EuclideanBlock(2, lambda x: True, [(0.5, 1.0), (-1.0, -0.5)], n)
    locus = dg.OpenSubdomainLocus(lambda x: x[0] < 0.0, [(-1.0, 0.5), (-0.5, -1.0)])
    f = parse_map({"kind": "identity"}, 2, 2, "map")
    space = dg.build_glued_space(plane("p1"), plane("p2"), locus, f,
                                 dg.HypothesisFlags(True, True))
    s1 = dg.BlockForm(space.block1, lambda x: [x[0] * x[1], 2.0 * x[0]])
    s2 = pushforward_form(space, s1)
    for z in ((-1.0, 0.5), (0.3, 2.0)):
        assert s2.at(z) == pytest.approx(s1.at(z), abs=0.0)
        assert _primal(engine.jacobian(s2, list(z))) == pytest.approx(
            _primal(engine.jacobian(s1, list(z))), abs=0.0)
    assert calls == []


def test_cubic_map_raises_where_its_inverse_jacobian_is_undefined():
    # z = 0 lies in block 2 off the glued image f((0.25, 1)); J_{f^-1} there
    # is 1/(3 cbrt(0)^2), so both a float and a dual evaluation must raise a
    # library error, which a suite reports, not a ZeroDivisionError
    from diffglue.scenario import build_context, fixture_path, load_scenario
    scenario = load_scenario(fixture_path("cubic_gluing_invalid"))
    locus = scenario.raw["space"]["locus"]
    locus["domain"]["lo"] = 0.25
    locus["sample_points"] = [[0.5], [0.75]]
    ctx = build_context(scenario)
    s2 = pushforward_form(ctx.space, coordinate_form(ctx.space.block1, 0))
    with pytest.raises(dg.NotADiffeomorphism):
        s2.at([0.0])
    with pytest.raises(dg.NotADiffeomorphism):
        dg.DiffEngine().jacobian(s2, [0.0])
    assert s2.at([0.125]) == pytest.approx([4.0 / 3.0])
    assert ctx.space.map_inverse((0.0,)) == (0.0,)


def test_pushforward_form_through_affine_map():
    # s2(f(y)) = A^-T s1(y); at y = (-1, 0.5), s1 = (0.8, 0.2) maps to (0.4, -0.2)
    plane = lambda n: dg.EuclideanBlock(2, lambda x: True, [(0.5, 1.0), (-1.0, -0.5)], n)
    locus = dg.OpenSubdomainLocus(lambda x: x[0] < 0.0, [(-1.0, 0.5), (-0.5, -1.0)])
    f = parse_map(AFFINE, 2, 2, "map")
    space = dg.build_glued_space(plane("p1"), plane("p2"), locus, f,
                                 dg.HypothesisFlags(True, True))
    s1 = dg.BlockForm(space.block1, lambda x: [-0.8 * x[0], 0.4 * x[1]])
    s2 = pushforward_form(space, s1)
    y = (-1.0, 0.5)
    assert s2.at(space.map_forward(y)) == pytest.approx([0.4, -0.2], abs=1e-15)
    a_inv_t = np.linalg.inv(np.asarray(AFFINE["matrix"])).T
    for y in ((-1.0, 0.5), (0.3, 2.0), (-0.5, -1.0)):
        assert s2.at(space.map_forward(y)) == pytest.approx(a_inv_t @ s1.at(y), abs=1e-15)
    assert isinstance(dg.assemble_section(space, s1, s2), dg.LambdaSection)


def test_block_form_rejects_wrong_component_count():
    form = dg.BlockForm(line("t"), lambda x: [x[0], 1.0])
    with pytest.raises(dg.DimensionMismatch):
        form((0.5,))
    with pytest.raises(dg.DimensionMismatch):
        form.at((0.5,))


# -- compatibility of forms ----------------------------------------------------

def test_forms_compatible_point_locus_always(cross):
    w1 = dg.BlockForm(cross.block1, lambda x: [1.0 + x[0]])
    w2 = dg.BlockForm(cross.block2, lambda x: [-3.0])
    assert isinstance(dg.assemble_section(cross, w1, w2), dg.LambdaSection)


def test_constant_plot_pullback_vanishes(engine, cross):
    # oracle behind the point-locus rule: forms evaluate to zero on
    # constant plots
    w = dg.BlockForm(cross.block1, lambda x: [1.0 + x[0] ** 2])
    plots = [Plot(1, lambda u: [0.0], (0.0,)), Plot(2, lambda u: [0.0], (0.0, 0.0))]
    assert vanishing_at_point(w, plots, engine) == pytest.approx(0.0)


def test_forms_compatible_halfline(halfline):
    dx1 = coordinate_form(halfline.block1, 0)
    dx2 = coordinate_form(halfline.block2, 0)
    dg.assemble_section(halfline, dx1, dx2)
    doubled = dg.BlockForm(halfline.block2, lambda x: [2.0 * v for v in dx2(x)])
    with pytest.raises(dg.IncompatibleSections, match="locus point"):
        dg.assemble_section(halfline, dx1, doubled)


def test_forms_compatible_plane_axis(plane_axis):
    dy1 = coordinate_form(plane_axis.block1, 1)
    dx2 = coordinate_form(plane_axis.block2, 0)
    dy2 = coordinate_form(plane_axis.block2, 1)
    # dy pulls back to 0 along the axis; dx pulls back to dt
    with pytest.raises(dg.IncompatibleSections):
        dg.assemble_section(plane_axis, dy1, dx2)
    dg.assemble_section(plane_axis, dy1,
                        dg.BlockForm(plane_axis.block2, lambda x: [0.0 * v for v in dy2(x)]))


# -- fibres ---------------------------------------------------------------------

def test_fibre_dims_cross(cross):
    p1 = dg.classify_point(cross, 1, (1.0,))
    assert dg.compute_fibre(cross, p1).dim == 1
    p0 = dg.classify_point(cross, 1, (0.0,))
    fib = dg.compute_fibre(cross, p0)
    assert fib.dim == 2
    assert fib.basis == pytest.approx(np.eye(2))


def test_fibre_halfline_diagonal(halfline):
    # relation matrix [1, -1]: nullspace spanned by (1,1)
    p = dg.classify_point(halfline, 1, (-1.0,))
    rel = relation_matrix(halfline, p.coords)
    assert rel == pytest.approx(np.array([[1.0, -1.0]]))
    fib = dg.compute_fibre(halfline, p)
    assert fib.dim == 1
    v = fib.basis[0]
    assert v[0] == pytest.approx(v[1])


def test_fibre_dim_law_plane_axis(plane_axis):
    p = dg.classify_point(plane_axis, 1, (0.3, 0.0))
    fib = dg.compute_fibre(plane_axis, p)
    rel = relation_matrix(plane_axis, p.coords)
    assert fib.dim == 4 - np.linalg.matrix_rank(rel) == 3
    assert np.max(np.abs(rel @ fib.basis.T)) < 1e-12


def test_nullspace_rank_ambiguity():
    with pytest.raises(dg.RankAmbiguous):
        nullspace_basis(np.array([[1.0, 0.0], [0.0, 1e-8]]))


def test_compatibility_subspace_is_linear(halfline):
    # sampled closure under linear combinations
    p = dg.classify_point(halfline, 1, (-0.5,))
    fib = dg.compute_fibre(halfline, p)
    rel = relation_matrix(halfline, p.coords)
    rng = np.random.default_rng(0)
    for _ in range(5):
        combo = rng.uniform(-2, 2, size=fib.dim) @ fib.basis
        assert np.max(np.abs(rel @ combo)) < 1e-12


# -- rho maps --------------------------------------------------------------------

def test_rho_cross_full_sum(cross):
    p = dg.classify_point(cross, 1, (0.0,))
    fib = dg.compute_fibre(cross, p)
    e = dg.rho_pair_inverse(fib, [3.0], [5.0])
    assert e.components == pytest.approx([3.0, 5.0])
    assert dg.rho1(e) == pytest.approx([3.0])
    assert dg.rho2(e) == pytest.approx([5.0])


def test_rho_halfline_diagonal(halfline):
    p = dg.classify_point(halfline, 1, (-1.0,))
    fib = dg.compute_fibre(halfline, p)
    e = dg.rho_pair_inverse(fib, [2.0], [2.0])
    assert dg.rho1(e) == pytest.approx([2.0])
    assert dg.rho2(e) == pytest.approx([2.0])
    with pytest.raises(dg.IncompatiblePair):
        dg.rho_pair_inverse(fib, [2.0], [3.0])


def test_rho_identity_on_block_points(cross):
    p = dg.classify_point(cross, 1, (2.0,))
    fib = dg.compute_fibre(cross, p)
    e = dg.FibreElement(fib, np.array([4.0]))
    assert dg.rho1(e) == pytest.approx([4.0])


def test_rho_of_the_absent_side_raises(cross):
    fib = dg.compute_fibre(cross, dg.classify_point(cross, 1, (2.0,)))
    with pytest.raises(dg.IncompatiblePair):
        dg.rho2(dg.FibreElement(fib, np.array([4.0])))
    fib = dg.compute_fibre(cross, dg.classify_point(cross, 2, (2.0,)))
    with pytest.raises(dg.IncompatiblePair):
        dg.rho1(dg.FibreElement(fib, np.array([4.0])))


def test_rho_consistency_roundtrip(halfline, plane_axis):
    rng = np.random.default_rng(1)
    for space, c in ((halfline, (-1.0,)), (plane_axis, (0.3, 0.0))):
        p = dg.classify_point(space, 1, c)
        fib = dg.compute_fibre(space, p)
        for _ in range(4):
            comps = rng.uniform(-1, 1, size=fib.dim)
            e = dg.FibreElement(fib, comps)
            back = dg.rho_pair_inverse(fib, dg.rho1(e), dg.rho2(e))
            assert back.components == pytest.approx(comps, abs=1e-9)


# -- sections ----------------------------------------------------------------------

def test_assemble_cross_constant(cross):
    one1 = dg.BlockForm(cross.block1, lambda x: [1.0])
    one2 = dg.BlockForm(cross.block2, lambda x: [1.0])
    s = dg.assemble_section(cross, one1, one2)
    p0 = dg.classify_point(cross, 1, (0.0,))
    assert s.at(p0).components == pytest.approx([1.0, 1.0])
    assert s.s1.at((0.5,)) == pytest.approx([1.0])


def test_assemble_halfline_mismatch_rejected(halfline):
    sx = dg.BlockForm(halfline.block1, lambda x: [x[0]])
    sx2 = dg.BlockForm(halfline.block2, lambda x: [x[0]])
    shifted = dg.BlockForm(halfline.block2, lambda x: [x[0] + 1.0])
    dg.assemble_section(halfline, sx, sx2)
    with pytest.raises(dg.IncompatibleSections):
        dg.assemble_section(halfline, sx, shifted)


def test_zero_section_splits_to_zero(halfline):
    s = dg.assemble_section(halfline, zero_block_form(halfline.block1),
                            zero_block_form(halfline.block2))
    p = dg.classify_point(halfline, 1, (-1.0,))
    assert s.at(p).components == pytest.approx([0.0])


# -- glued differential ---------------------------------------------------------------

def test_differential_glued_critical_point(cross):
    h = dg.GluedFunction(cross, lambda x: x[0] ** 2, lambda z: z[0] ** 2)
    dh = dg.differential_glued(cross, h)
    p0 = dg.classify_point(cross, 1, (0.0,))
    assert dh.at(p0).components == pytest.approx([0.0, 0.0])


def test_differential_glued_identity_pair(cross):
    h = dg.GluedFunction(cross, lambda x: x[0], lambda z: z[0])
    dh = dg.differential_glued(cross, h)
    p0 = dg.classify_point(cross, 1, (0.0,))
    assert dh.at(p0).components == pytest.approx([1.0, 1.0])


def test_differential_glued_halfline(halfline):
    h = dg.GluedFunction(halfline, lambda x: x[0] ** 2, lambda z: z[0] ** 2)
    dh = dg.differential_glued(halfline, h)
    p = dg.classify_point(halfline, 1, (-1.0,))
    e = dh.at(p)
    assert dg.rho1(e) == pytest.approx([-2.0])
    assert dg.rho2(e) == pytest.approx([-2.0])


def test_differential_glued_rejects_non_functions(halfline):
    h = dg.GluedFunction(halfline, lambda x: x[0], lambda z: z[0] + 1.0)
    with pytest.raises(dg.NotAFunctionOnGluedSpace):
        dg.differential_glued(halfline, h)


def test_differential_linearity(halfline):
    h = dg.GluedFunction(halfline, lambda x: x[0] ** 2, lambda z: z[0] ** 2)
    k = dg.GluedFunction(halfline, lambda x: 2.0 * x[0], lambda z: 2.0 * z[0])
    combo = dg.GluedFunction(halfline,
                             lambda x: 3.0 * h.h1(x) - 0.5 * k.h1(x),
                             lambda z: 3.0 * h.h2(z) - 0.5 * k.h2(z))
    d_combo = dg.differential_glued(halfline, combo)
    dh = dg.differential_glued(halfline, h)
    dk = dg.differential_glued(halfline, k)
    for c in ((-1.0,), (0.5,)):
        p = dg.classify_point(halfline, 1, c)
        expect = 3.0 * dh.at(p).components - 0.5 * dk.at(p).components
        assert d_combo.at(p).components == pytest.approx(expect, abs=1e-9)


def test_leibniz_for_differential(halfline):
    h1, k1 = lambda x: x[0] ** 2, lambda x: 1.0 + x[0]
    h = dg.GluedFunction(halfline, h1, h1)
    k = dg.GluedFunction(halfline, k1, k1)
    hk = dg.GluedFunction(halfline, lambda x: h1(x) * k1(x), lambda z: h1(z) * k1(z))
    d_hk = dg.differential_glued(halfline, hk)
    dh = dg.differential_glued(halfline, h)
    dk = dg.differential_glued(halfline, k)
    for c in ((-1.5,), (0.7,)):
        p = dg.classify_point(halfline, 1, c)
        expect = h.value(p) * dk.at(p).components + k.value(p) * dh.at(p).components
        assert d_hk.at(p).components == pytest.approx(expect, abs=1e-9)


def test_pullback_operators(halfline, plane_axis):
    from diffglue.forms import PullbackOperators

    # open locus: f_star is the transpose-Jacobian action (identity here)
    ops = PullbackOperators(halfline, (-1.0,))
    assert ops.i_star([3.0]) == pytest.approx([3.0])
    assert ops.f_star(ops.j_star([2.0])) == pytest.approx([2.0])
    # linearity of f_star on the fibre
    rng = np.random.default_rng(3)
    for space, y in ((halfline, (-1.0,)), (plane_axis, (0.3, 0.0))):
        ops = PullbackOperators(space, y)
        u = rng.uniform(-1, 1, space.block2.dim)
        v = rng.uniform(-1, 1, space.block2.dim)
        lhs = ops.f_star(ops.j_star(2.0 * u - v))
        rhs = 2.0 * ops.f_star(ops.j_star(u)) - ops.f_star(ops.j_star(v))
        assert lhs == pytest.approx(rhs)
    # the membership criterion restated through the operators: elements of
    # the compatible fibre satisfy i*_L(e) = f*_L(j*_L(e))
    for space, c in ((halfline, (-0.5,)), (plane_axis, (1.2, 0.0))):
        p = dg.classify_point(space, 1, c)
        fib = dg.compute_fibre(space, p)
        ops = PullbackOperators(space, p.coords)
        for comp in np.eye(fib.dim):
            e = dg.FibreElement(fib, comp)
            assert ops.i_star_lambda(e) == pytest.approx(ops.fj_star_lambda(e),
                                                         abs=1e-12)


def test_checks_keeps_witness_of_worst_residual():
    out = Checks()
    out.check(0.0, 1e-3, point=[0.0])
    out.check(0.5, 1e-3, point=[1.0])
    out.check(2.0, 1e-3, point=[2.0])
    out.check(1.0, 1e-3, point=[3.0])
    r = out.compat()
    assert not r
    assert r.max_residual == 2.0
    assert r.witness == {"point": [2.0]}  # the worst point, not the first failure
    assert r.samples == 4
    passing = Checks()
    passing.check(1e-4, 1e-3, point=[0.0])
    passing.check(1e-5, 1e-3, samples=2, point=[1.0])
    r = passing.compat()
    assert r and r.witness is None
    assert (r.max_residual, r.samples) == (1e-4, 3)


def test_checks_nan_residual_fails_and_is_the_witness():
    out = Checks()
    out.check(0.5, 1.0, point=[0.0])
    out.check(float("nan"), 1.0, point=[1.0])
    out.check(0.8, 1.0, point=[2.0])
    r = out.compat()
    assert not r
    assert np.isnan(r.max_residual)
    assert r.witness == {"point": [1.0]}
    assert out.witnesses == [{"point": [1.0]}]


def test_checks_fold_keeps_a_nan_max_residual():
    # max(0.5, nan) would be 0.5: the folded NaN must stay the worst
    out = Checks()
    out.check(0.5, 1.0, point=[0.0])
    out.fold(CompatResult(False, float("nan"), {"point": [1.0]}, 2))
    out.fold(CompatResult(True, 0.7, None, 1))
    r = out.compat()
    assert not r
    assert np.isnan(r.max_residual)
    assert out.witnesses == [{"point": [1.0]}]
