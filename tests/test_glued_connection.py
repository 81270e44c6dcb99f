"""The induced connection on the glued bundle and its splitting laws."""

import numpy as np
import pytest

import diffglue as dg
from diffglue import connection as cx
from diffglue.forms import coordinate_form
from diffglue.numerics import _primal
from diffglue.space import seam_mean


def line(name="line", seeds=((1.0,), (-1.0,), (-2.5,))):
    return dg.EuclideanBlock(1, lambda x: True, seeds, name)


def identity_map():
    return dg.GluingMap(lambda y: list(y), lambda z: list(z),
                        lambda y: np.eye(len(y)).tolist(),
                        lambda z: np.eye(len(z)).tolist())


def run_data(space):
    """The section family and a fresh point store, as a run hands the gate."""
    return cx.section_family(space), cx.PointStore(space.engine)


@pytest.fixture
def engine():
    return dg.DiffEngine(dg.DiffConfig())


@pytest.fixture
def cross():
    return dg.build_glued_space(line("a1", ((1.5,), (-1.0,))),
                                line("a2", ((1.5,), (-1.0,))),
                                dg.PointSetLocus([(0.0,)]), identity_map())


@pytest.fixture
def halfline():
    locus = dg.OpenSubdomainLocus(lambda x: x[0] < 0.0, [(-1.0,), (-0.5,), (-2.0,)])
    return dg.build_glued_space(line("h1"), line("h2"), locus, identity_map(),
                                dg.HypothesisFlags(True, True))


@pytest.fixture
def plane_axis():
    plane = lambda n: dg.EuclideanBlock(2, lambda x: True,
                                        [(0.5, 1.0), (-1.0, -0.5)], n)
    locus = dg.SubmanifoldLocus(1, lambda t: [t[0], 0.0], lambda x: [x[0]],
                                [(-1.0,), (0.3,), (1.2,)])
    return dg.build_glued_space(plane("p1"), plane("p2"), locus, identity_map(),
                                dg.HypothesisFlags(True, True))


def flat_setup(space):
    g1 = dg.constant_metric(space.block1, [[1.0]] if space.block1.dim == 1
                            else np.eye(space.block1.dim).tolist())
    g2 = dg.constant_metric(space.block2, [[1.0]] if space.block2.dim == 1
                            else np.eye(space.block2.dim).tolist())
    G = dg.glue_metrics(space, g1, g2)
    C = dg.glue_connections(space, G, dg.zero_connection(space.block1),
                            dg.zero_connection(space.block2), *run_data(space))
    return G, C


# -- compatibility of connections ------------------------------------------------

def test_cross_any_connections_compatible(cross):
    n1 = dg.BlockConnection(cross.block1, lambda x: [[[x[0] + 2.0]]])
    n2 = dg.zero_connection(cross.block2)
    assert dg.check_connections_compatible(cross, n1, n2, *run_data(cross))


def test_halfline_equal_connections_compatible(halfline):
    n1 = dg.BlockConnection(halfline.block1, lambda x: [[[1.0]]])
    n2 = dg.BlockConnection(halfline.block2, lambda x: [[[1.0]]])
    assert dg.check_connections_compatible(halfline, n1, n2, *run_data(halfline))


def test_halfline_flat_vs_gamma_incompatible(halfline):
    n1 = dg.zero_connection(halfline.block1)
    n2 = dg.BlockConnection(halfline.block2, lambda x: [[[1.0]]])
    res = dg.check_connections_compatible(halfline, n1, n2, *run_data(halfline))
    assert not res and res.witness is not None
    g1 = dg.constant_metric(halfline.block1, [[1.0]])
    g2 = dg.constant_metric(halfline.block2, [[1.0]])
    G = dg.glue_metrics(halfline, g1, g2)
    with pytest.raises(dg.IncompatibleConnections):
        dg.glue_connections(halfline, G, n1, n2, *run_data(halfline))


# -- the three-case operator -------------------------------------------------------

def test_apply_glued_cross_flat(cross):
    # s1 = x dx, s2 = y dy: at the origin the value is the pair of block
    # tensors dx (x) dx and dy (x) dy
    G, C = flat_setup(cross)
    s = dg.assemble_section(cross,
                            dg.BlockForm(cross.block1, lambda x: [x[0]]),
                            dg.BlockForm(cross.block2, lambda z: [z[0]]))
    p0 = dg.classify_point(cross, 1, (0.0,))
    m1, m2 = C.apply(s).at(p0)
    assert m1 == pytest.approx(np.array([[1.0]]))
    assert m2 == pytest.approx(np.array([[1.0]]))
    p = dg.classify_point(cross, 1, (0.7,))
    m1, = C.apply(s).at(p)
    assert m1 == pytest.approx(np.array([[1.0]]))


def test_restriction_law(halfline, engine):
    # rho x rho applied to the glued tensor equals the factor tensor
    G, C = flat_setup(halfline)
    s1 = dg.BlockForm(halfline.block1, lambda x: [x[0] ** 2])
    s = dg.assemble_section(halfline, s1, cx.pushforward_form(halfline, s1))
    field = C.apply(s)
    block_tensor = dg.apply_block(C.nabla1, s.s1, engine)
    for c in ((-1.0,), (0.5,)):
        p = dg.classify_point(halfline, 1, c)
        m1 = field.at(p)[0]
        assert m1 == pytest.approx(_primal(block_tensor(c)))


def test_locus_value_in_compatible_square(halfline):
    G, C = flat_setup(halfline)
    s1 = dg.BlockForm(halfline.block1, lambda x: [1.0 + x[0] ** 2])
    s = dg.assemble_section(halfline, s1, cx.pushforward_form(halfline, s1))
    p = dg.classify_point(halfline, 1, (-1.0,))
    m1, m2 = C.apply(s).at(p)
    assert cx.joint_range_residual(dg.compute_fibre(halfline, p), m1, m2) < 1e-9


# -- action -------------------------------------------------------------------------

def test_action_glued_half_weights(cross):
    # t1 = t2 = 1, h = (x, y): at the locus 1/2*1 + 1/2*1 = 1
    t = cx.DualSection(cross, lambda x: [1.0], lambda z: [1.0])
    h = dg.GluedFunction(cross, lambda x: x[0], lambda z: z[0])
    val = dg.action(t, h)
    p0 = dg.classify_point(cross, 1, (0.0,))
    assert val.value(p0) == pytest.approx(1.0)
    p = dg.classify_point(cross, 1, (2.0,))
    assert val.value(p) == pytest.approx(1.0)


def test_action_composes_side_by_side(cross, engine):
    # t(u(h)) is a glued function whose sides are the nested block actions;
    # over the locus (at 0) they are 1 * d/dx[(x+2)(3x^2+1)] = 1 and
    # 2 * d/dz[(z-3)(2z+1)] = -10, half-weighted to -4.5
    t = cx.DualSection(cross, lambda x: [x[0] + 1.0], lambda z: [2.0])
    u = cx.DualSection(cross, lambda x: [x[0] + 2.0], lambda z: [z[0] - 3.0])
    h = dg.GluedFunction(cross, lambda x: x[0] ** 3 + x[0], lambda z: z[0] ** 2 + z[0])
    composed = dg.action(t, dg.action(u, h))
    blocks = (cross.block1, cross.block2)
    for p in (dg.classify_point(cross, 1, (0.0,)), dg.classify_point(cross, 2, (1.5,))):
        nested = [_primal(cx.action_block(
            (t.t1, t.t2)[w - 1],
            cx.action_block((u.t1, u.t2)[w - 1], (h.h1, h.h2)[w - 1], engine, blocks[w - 1]),
            engine, blocks[w - 1])(list(x))) for w, x in p.sides]
        assert composed.side_values(p) == nested
        assert composed.value(p) == seam_mean(nested)
    p0 = dg.classify_point(cross, 1, (0.0,))
    assert composed.side_values(p0) == pytest.approx([1.0, -10.0])
    assert composed.value(p0) == pytest.approx(-4.5)


def test_action_agrees_with_glued_metric_pairing(halfline):
    # t(h) = g(t, dh) when t is the pairing image of a glued section
    g1 = dg.BlockMetric(halfline.block1, ((lambda x: 1.0 + x[0] ** 2,),))
    g2 = dg.BlockMetric(halfline.block2, ((lambda x: 1.0 + x[0] ** 2,),))
    G = dg.glue_metrics(halfline, g1, g2)
    s1 = dg.BlockForm(halfline.block1, lambda x: [x[0]])
    s = dg.assemble_section(halfline, s1, cx.pushforward_form(halfline, s1))
    t = cx.phi_glued(G, s)
    h = dg.GluedFunction(halfline, lambda x: x[0] ** 2, lambda z: z[0] ** 2)
    dh = dg.differential_glued(halfline, h)
    val = dg.action(t, h)
    for c in ((-1.0,), (0.5,), (-2.0,)):
        p = dg.classify_point(halfline, 1, c)
        assert val.value(p) == pytest.approx(G.eval(p, s.at(p), dh.at(p)), abs=1e-10)


# -- covariant derivative: lemma vs direct contraction ---------------------------------

def test_covariant_split_two_paths(cross, halfline, plane_axis, engine):
    for space in (cross, halfline, plane_axis):
        if space.block1.dim == 1:
            g_entries = ((lambda x: 1.0 + x[0] ** 2,),)
        else:
            g_entries = ((lambda x: 1.0, lambda x: 0.0),
                         (lambda x: 0.0, lambda x: 1.0 + x[0] ** 2))
        g1 = dg.BlockMetric(space.block1, g_entries)
        g2 = dg.BlockMetric(space.block2, g_entries)
        G = dg.glue_metrics(space, g1, g2)
        n1 = dg.koszul_solve(g1, engine)
        n2 = dg.koszul_solve(g2, engine)
        C = dg.glue_connections(space, G, n1, n2, *run_data(space))
        s1 = coordinate_form(space.block1, 0)
        r1 = dg.BlockForm(space.block1,
                          lambda x, d=space.block1.dim: [x[0] if i == 0 else 1.0
                                                         for i in range(d)])
        s = dg.assemble_section(space, s1, cx.pushforward_form(space, s1))
        r = dg.assemble_section(space, r1, cx.pushforward_form(space, r1))
        t = cx.phi_glued(G, s)
        lemma = cx.covariant_derivative(C, t, r)
        for region, pts in space.region_samples().items():
            for p in pts[:3]:
                direct = cx.covariant_via_tensor(C, t, r, p)
                assert direct.components == pytest.approx(
                    lemma.at(p).components, abs=1e-9), (space.block1.name, region)


def test_covariant_flat_lemma_formula(cross):
    # cross with flat factors: locus value is the pair of block derivatives
    G, C = flat_setup(cross)
    s = dg.assemble_section(cross,
                            dg.BlockForm(cross.block1, lambda x: [x[0]]),
                            dg.BlockForm(cross.block2, lambda z: [2.0 * z[0]]))
    t = cx.DualSection(cross, lambda x: [1.0], lambda z: [1.0])
    out = cx.covariant_derivative(C, t, s)
    p0 = dg.classify_point(cross, 1, (0.0,))
    e = out.at(p0)
    assert dg.rho1(e) == pytest.approx([1.0])
    assert dg.rho2(e) == pytest.approx([2.0])


# -- bracket splitting -------------------------------------------------------------------

def test_bracket_splitting_three_cases(cross):
    # constant sections with identity Grams commute in every region
    G, C = flat_setup(cross)
    one1 = dg.BlockForm(cross.block1, lambda x: [1.0])
    one2 = dg.BlockForm(cross.block2, lambda z: [1.0])
    two2 = dg.BlockForm(cross.block2, lambda z: [2.0])
    s = dg.assemble_section(cross, one1, one2)
    r = dg.assemble_section(cross, one1.scaled(lambda x: 3.0), two2)
    br = cx.lie_bracket_forms(G, s, r)
    for c, which in (((0.5,), 1), ((0.0,), 1)):
        p = dg.classify_point(cross, which, c)
        assert np.max(np.abs(br.at(p).components)) < 1e-12
    p2 = dg.classify_point(cross, 2, (1.0,))
    assert np.max(np.abs(br.at(p2).components)) < 1e-12


def test_bracket_splitting_matches_blocks(halfline, engine):
    g1 = dg.BlockMetric(halfline.block1, ((lambda x: 1.0 + x[0] ** 2,),))
    g2 = dg.BlockMetric(halfline.block2, ((lambda x: 1.0 + x[0] ** 2,),))
    G = dg.glue_metrics(halfline, g1, g2)
    s1 = dg.BlockForm(halfline.block1, lambda x: [x[0]])
    r1 = dg.BlockForm(halfline.block1, lambda x: [1.0 - x[0] ** 2])
    s = dg.assemble_section(halfline, s1, cx.pushforward_form(halfline, s1))
    r = dg.assemble_section(halfline, r1, cx.pushforward_form(halfline, r1))
    br = cx.lie_bracket_forms(G, s, r)
    block_br = cx.lie_bracket_forms_block(g1, s.s1, r.s1, engine)
    p = dg.classify_point(halfline, 1, (-1.0,))
    assert dg.rho1(br.at(p)) == pytest.approx(block_br.at((-1.0,)), abs=1e-10)


# -- torsion splitting --------------------------------------------------------------------

def asymmetric_plane_setup(plane_axis):
    """Identity metrics with equal non-Levi-Civita factors whose torsion
    is nonzero, to distinguish the two candidate splitting weights.

    Gamma^1_21 = 1 has an antisymmetric covector/direction part, which the
    pairing-conjugated torsion sees even on constant sections.
    """
    g1 = dg.constant_metric(plane_axis.block1, np.eye(2).tolist())
    g2 = dg.constant_metric(plane_axis.block2, np.eye(2).tolist())
    G = dg.glue_metrics(plane_axis, g1, g2)
    gamma = np.zeros((2, 2, 2))
    gamma[0][1][0] = 1.0
    n1 = dg.BlockConnection(plane_axis.block1, lambda x: gamma.tolist())
    n2 = dg.BlockConnection(plane_axis.block2, lambda x: gamma.tolist())
    C = dg.glue_connections(plane_axis, G, n1, n2, *run_data(plane_axis))
    return G, C, g1, g2


def test_torsion_split_unweighted_not_half(plane_axis, engine):
    # the definitional glued torsion equals the pair of factor torsions
    # with no extra factor; the half-weighted variant misses by 2
    G, C, g1, g2 = asymmetric_plane_setup(plane_axis)
    s1 = dg.BlockForm(plane_axis.block1, lambda x: [1.0, 0.0])
    r1 = dg.BlockForm(plane_axis.block1, lambda x: [0.0, 1.0])
    s = dg.assemble_section(plane_axis, s1, cx.pushforward_form(plane_axis, s1))
    r = dg.assemble_section(plane_axis, r1, cx.pushforward_form(plane_axis, r1))
    glued_t = cx.torsion(C, s, r)
    t1 = cx.torsion_block(C.nabla1, g1, s.s1, r.s1, engine)
    t2 = cx.torsion_block(C.nabla2, g2, s.s2, r.s2, engine)
    p = dg.classify_point(plane_axis, 1, (0.3, 0.0))
    fib = dg.compute_fibre(plane_axis, p)
    a, b = t1.at(p.coords), t2.at(p.coords2)
    assert np.max(np.abs(a)) > 0.1  # genuinely torsionful
    unweighted = dg.rho_pair_inverse(fib, a, b)
    value = glued_t.at(p)
    assert value.components == pytest.approx(unweighted.components, abs=1e-9)
    halved = dg.rho_pair_inverse(fib, 0.5 * a, 0.5 * b)
    gap = np.max(np.abs(value.components - halved.components))
    assert gap > 0.05


@pytest.mark.parametrize("which", ["symmetric", "metric_compatible_glued"])
def test_sampled_checks_fail_on_torsionful_connection(plane_axis, which):
    # Gamma^1_21 = 1 passes the gluing gate but is neither symmetric nor
    # compatible with the flat metric; the failing result carries the
    # witness of its worst residual
    G, C, g1, g2 = asymmetric_plane_setup(plane_axis)
    rng = np.random.default_rng(9)
    raw = cx.compatible_section_pairs(plane_axis, rng, extra=2)
    sections = [dg.assemble_section(plane_axis, a, b) for a, b in raw[:4]]
    pairs = list(zip(sections, sections[1:]))
    samples = {k: v[:3] for k, v in plane_axis.region_samples().items()}
    pts = samples["block1"] + samples["locus"] + samples["block2"]
    if which == "symmetric":
        r = cx.check_symmetric(C, pairs, pts, tol=1e-10)
        expected = 2.0
    else:
        r = cx.check_metric_compatible_glued(C, pairs, pts, tol=1e-10)
        expected = 4.0
    assert not r
    assert r.max_residual == pytest.approx(expected)
    assert r.witness["residual"] == r.max_residual
    assert r.samples == 27


def test_metric_compatible_glued_fails_on_a_nan_second_side(halfline, engine):
    # block 1 is exact and block 2 gives NaN: max(0.0, nan) would drop it
    g = dg.BlockMetric(halfline.block1, ((lambda x: 1.0 + x[0] ** 2,),))
    g2 = dg.BlockMetric(halfline.block2, ((lambda x: 1.0 + x[0] ** 2,),))
    G = dg.glue_metrics(halfline, g, g2)
    nan = dg.BlockConnection(halfline.block2, lambda x: [[[float("nan")]]])
    C = cx.GluedConnection(halfline, G, dg.koszul_solve(g, engine), nan,
                           cx.PointStore(halfline.engine))
    family = cx.section_family(halfline)
    r = cx.check_metric_compatible_glued(C, list(zip(family, family[1:]))[:6],
                                         halfline.region_samples()["locus"], 1e-10)
    assert not r
    assert np.isnan(r.max_residual)
    assert r.samples == 18


def test_torsion_antisymmetry(halfline, engine):
    g1 = dg.BlockMetric(halfline.block1, ((lambda x: 1.0 + x[0] ** 2,),))
    g2 = dg.BlockMetric(halfline.block2, ((lambda x: 1.0 + x[0] ** 2,),))
    G = dg.glue_metrics(halfline, g1, g2)
    C = dg.glue_connections(halfline, G, dg.koszul_solve(g1, engine),
                            dg.koszul_solve(g2, engine), *run_data(halfline))
    s1 = dg.BlockForm(halfline.block1, lambda x: [x[0]])
    r1 = dg.BlockForm(halfline.block1, lambda x: [1.0 + x[0] ** 2])
    s = dg.assemble_section(halfline, s1, cx.pushforward_form(halfline, s1))
    r = dg.assemble_section(halfline, r1, cx.pushforward_form(halfline, r1))
    t_sr = cx.torsion(C, s, r)
    t_rs = cx.torsion(C, r, s)
    for c in ((-1.0,), (0.5,)):
        p = dg.classify_point(halfline, 1, c)
        assert t_sr.at(p).components == pytest.approx(-t_rs.at(p).components,
                                                      abs=1e-10)


def test_torsion_values_records_points(halfline):
    G, C = flat_setup(halfline)
    s1 = coordinate_form(halfline.block1, 0)
    s = dg.assemble_section(halfline, s1, cx.pushforward_form(halfline, s1))
    r1 = dg.BlockForm(halfline.block1, lambda x: [x[0]])
    r = dg.assemble_section(halfline, r1, cx.pushforward_form(halfline, r1))
    pts = [dg.classify_point(halfline, 1, (-1.0,))]
    value = dg.torsion(C, s, r).at(pts[0])
    assert np.max(np.abs(value.components)) < 1e-10


# -- glued Leibniz / additivity -------------------------------------------------------------

def test_glued_leibniz_all_regions(halfline, engine):
    g1 = dg.BlockMetric(halfline.block1, ((lambda x: 1.0 + x[0] ** 2,),))
    g2 = dg.BlockMetric(halfline.block2, ((lambda x: 1.0 + x[0] ** 2,),))
    G = dg.glue_metrics(halfline, g1, g2)
    C = dg.glue_connections(halfline, G, dg.koszul_solve(g1, engine),
                            dg.koszul_solve(g2, engine), *run_data(halfline))
    s1 = dg.BlockForm(halfline.block1, lambda x: [1.0 + x[0]])
    s = dg.assemble_section(halfline, s1, cx.pushforward_form(halfline, s1))
    h = dg.GluedFunction(halfline, lambda x: x[0] ** 2 - 2.0,
                         lambda z: z[0] ** 2 - 2.0)
    hs = dg.LambdaSection(halfline, s.s1.scaled(h.h1), s.s2.scaled(h.h2))
    dh = dg.differential_glued(halfline, h)
    lhs_field = C.apply(hs)
    rhs_field = C.apply(s)
    for region, pts in halfline.region_samples().items():
        for p in pts[:3]:
            for (w, x), lm, rm in zip(p.sides, lhs_field.at(p), rhs_field.at(p)):
                ds, sw, hw = (dh.s1, dh.s2)[w - 1], (s.s1, s.s2)[w - 1], (h.h1, h.h2)[w - 1]
                expect = np.outer(ds.at(x), sw.at(x)) + hw(list(x)) * rm
                assert lm == pytest.approx(expect, abs=1e-10)


def test_glued_connection_end_to_end_levi_civita(halfline, engine):
    # factors from the Koszul solver glue to a symmetric, compatible
    # connection for the glued metric
    g1 = dg.BlockMetric(halfline.block1, ((lambda x: 1.0 + x[0] ** 2,),))
    g2 = dg.BlockMetric(halfline.block2, ((lambda x: 1.0 + x[0] ** 2,),))
    G = dg.glue_metrics(halfline, g1, g2)
    C = dg.glue_connections(halfline, G, dg.koszul_solve(g1, engine),
                            dg.koszul_solve(g2, engine), *run_data(halfline))
    rng = np.random.default_rng(9)
    raw = cx.compatible_section_pairs(halfline, rng, extra=2)
    sections = [dg.assemble_section(halfline, a, b) for a, b in raw[:4]]
    pairs = list(zip(sections, sections[1:]))
    pts = [dg.classify_point(halfline, 1, c) for c in ((-1.0,), (0.5,), (-2.0,))]
    sym = cx.check_symmetric(C, pairs, pts, tol=1e-10)
    assert sym, sym.witness
    samples = {k: v[:3] for k, v in halfline.region_samples().items()}
    comp = cx.check_metric_compatible_glued(
        C, pairs, samples["block1"] + samples["locus"] + samples["block2"], tol=1e-10)
    assert comp, comp.witness
