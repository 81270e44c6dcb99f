"""Block and glued pseudo-metrics and their pairing maps."""

import numpy as np
import pytest

import diffglue as dg
from diffglue.metric import canonical_pair_elements


def line(name="line", seeds=((1.5,), (-1.0,))):
    return dg.EuclideanBlock(1, lambda x: True, seeds, name)


def identity_map():
    return dg.GluingMap(lambda y: list(y), lambda z: list(z),
                        lambda y: np.eye(len(y)).tolist(),
                        lambda z: np.eye(len(z)).tolist())


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


def curved_line_metric(block):
    return dg.BlockMetric(block, ((lambda x: 1.0 + x[0] ** 2,),))


# -- block evaluation -------------------------------------------------------

def test_eval_identity():
    g = dg.constant_metric(line(), [[1.0]])
    assert dg.eval_block_metric(g, (0.3,), [1.0], [1.0]) == pytest.approx(1.0)


def test_eval_bilinear():
    g = dg.constant_metric(line(), [[2.0]])
    assert dg.eval_block_metric(g, (0.0,), [1.0], [3.0]) == pytest.approx(6.0)


def test_eval_curved():
    g = curved_line_metric(line("c", ((2.0,), (0.5,))))
    assert dg.eval_block_metric(g, (2.0,), [1.0], [1.0]) == pytest.approx(5.0)


def test_eval_outside_domain():
    half = dg.EuclideanBlock(1, lambda x: x[0] > 0.0, [(1.0,), (2.0,)], "pos")
    g = dg.constant_metric(half, [[1.0]])
    with pytest.raises(dg.OutsideDomain):
        dg.eval_block_metric(g, (-1.0,), [1.0], [1.0])


def test_eval_symmetric():
    g = dg.BlockMetric(
        dg.EuclideanBlock(2, lambda x: True, [(0.5, 0.5)], "p"),
        ((lambda x: 2.0, lambda x: 1.0), (lambda x: 1.0, lambda x: 2.0)))
    u, v = [1.0, 2.0], [-1.0, 0.5]
    assert dg.eval_block_metric(g, (0.5, 0.5), u, v) == \
        pytest.approx(dg.eval_block_metric(g, (0.5, 0.5), v, u))


def test_metric_validation_rejects_indefinite():
    with pytest.raises(dg.ValidationError):
        dg.constant_metric(line(), [[-1.0]])
    with pytest.raises(dg.ValidationError):
        dg.BlockMetric(dg.EuclideanBlock(2, lambda x: True, [(0.0, 0.0)], "p"),
                       ((lambda x: 1.0, lambda x: 2.0),
                        (lambda x: 0.0, lambda x: 1.0)))


# -- compatibility -----------------------------------------------------------

def test_cross_equal_grams_compatible(cross):
    g1 = dg.constant_metric(cross.block1, [[1.0]])
    g2 = dg.constant_metric(cross.block2, [[1.0]])
    assert dg.check_metrics_compatible(cross, g1, g2)


def test_cross_unequal_grams_incompatible(cross):
    g1 = dg.constant_metric(cross.block1, [[1.0]])
    g2 = dg.constant_metric(cross.block2, [[2.0]])
    res = dg.check_metrics_compatible(cross, g1, g2)
    assert not res
    assert res.witness["lhs"] == pytest.approx(1.0)
    assert res.witness["rhs"] == pytest.approx(2.0)


def test_halfline_curved_compatible(halfline):
    g1 = curved_line_metric(halfline.block1)
    g2 = curved_line_metric(halfline.block2)
    assert dg.check_metrics_compatible(halfline, g1, g2)


def test_halfline_scaled_incompatible(halfline):
    g1 = dg.constant_metric(halfline.block1, [[1.0]])
    g2 = dg.constant_metric(halfline.block2, [[2.0]])
    res = dg.check_metrics_compatible(halfline, g1, g2)
    assert not res and res.witness is not None


def test_plane_axis_tangential_rule(plane_axis):
    entries = ((lambda x: 1.0, lambda x: 0.0),
               (lambda x: 0.0, lambda x: 1.0 + x[0] ** 2))
    g1 = dg.BlockMetric(plane_axis.block1, entries)
    g2 = dg.BlockMetric(plane_axis.block2, entries)
    assert dg.check_metrics_compatible(plane_axis, g1, g2)
    # scaling the tangential direction on one side breaks it
    entries2 = ((lambda x: 2.0, lambda x: 0.0),
                (lambda x: 0.0, lambda x: 1.0 + x[0] ** 2))
    g2b = dg.BlockMetric(plane_axis.block2, entries2)
    res = dg.check_metrics_compatible(plane_axis, g1, g2b)
    assert not res
    # scaling the normal direction is invisible to the tangential rule
    entries3 = ((lambda x: 1.0, lambda x: 0.0),
                (lambda x: 0.0, lambda x: 3.0))
    g2c = dg.BlockMetric(plane_axis.block2, entries3)
    assert dg.check_metrics_compatible(plane_axis, g1, g2c)


# -- gluing ---------------------------------------------------------------------

def test_cross_glued_gram_is_half_identity(cross):
    g1 = dg.constant_metric(cross.block1, [[1.0]])
    g2 = dg.constant_metric(cross.block2, [[1.0]])
    G = dg.glue_metrics(cross, g1, g2)
    p0 = dg.classify_point(cross, 1, (0.0,))
    gram = G.gram_at(p0)
    assert np.array_equal(gram, np.diag([0.5, 0.5]))
    fib = dg.compute_fibre(cross, p0)
    e = dg.FibreElement(fib, np.array([2.0, 3.0]))
    assert G.eval(p0, e, e) == pytest.approx(0.5 * (4.0 + 9.0))


def test_glued_restricts_to_blocks(cross):
    g1 = dg.constant_metric(cross.block1, [[1.0]])
    g2 = dg.constant_metric(cross.block2, [[1.0]])
    G = dg.glue_metrics(cross, g1, g2)
    p = dg.classify_point(cross, 1, (1.3,))
    fib = dg.compute_fibre(cross, p)
    e = dg.FibreElement(fib, np.array([2.0]))
    assert G.eval(p, e, e) == pytest.approx(4.0)
    assert np.array_equal(G.gram_at(p), g1.gram((1.3,)))


def test_halfline_glued_diagonal_eval(halfline):
    g1 = dg.constant_metric(halfline.block1, [[1.0]])
    g2 = dg.constant_metric(halfline.block2, [[1.0]])
    G = dg.glue_metrics(halfline, g1, g2)
    p = dg.classify_point(halfline, 1, (-1.0,))
    fib = dg.compute_fibre(halfline, p)
    e = dg.rho_pair_inverse(fib, [1.0], [1.0])
    assert G.eval(p, e, e) == pytest.approx(1.0)


def test_glue_rejects_incompatible(cross):
    g1 = dg.constant_metric(cross.block1, [[1.0]])
    g2 = dg.constant_metric(cross.block2, [[2.0]])
    with pytest.raises(dg.IncompatibleMetrics):
        dg.glue_metrics(cross, g1, g2)


def test_glued_gram_positive_definite_on_samples(plane_axis):
    entries = ((lambda x: 1.0, lambda x: 0.0),
               (lambda x: 0.0, lambda x: 1.0 + x[0] ** 2))
    g1 = dg.BlockMetric(plane_axis.block1, entries)
    g2 = dg.BlockMetric(plane_axis.block2, entries)
    G = dg.glue_metrics(plane_axis, g1, g2)
    for region, pts in plane_axis.region_samples().items():
        for p in pts:
            gram = G.gram_at(p)
            assert np.max(np.abs(gram - gram.T)) <= 1e-12
            assert np.linalg.eigvalsh(gram)[0] > 1e-10


def test_collapse_on_canonical_pairs(halfline, plane_axis):
    # half-weighted glued value equals either block evaluation on the
    # canonical compatible pairs (coefficient collapse)
    cases = []
    g1h = curved_line_metric(halfline.block1)
    g2h = curved_line_metric(halfline.block2)
    cases.append((halfline, g1h, g2h, (-1.0,)))
    entries = ((lambda x: 1.0, lambda x: 0.0),
               (lambda x: 0.0, lambda x: 1.0 + x[0] ** 2))
    cases.append((plane_axis, dg.BlockMetric(plane_axis.block1, entries),
                  dg.BlockMetric(plane_axis.block2, entries), (0.3, 0.0)))
    for space, g1, g2, c in cases:
        G = dg.glue_metrics(space, g1, g2)
        p = dg.classify_point(space, 1, c)
        fib = dg.compute_fibre(space, p)
        for a, b in canonical_pair_elements(space, g1, g2, fib):
            e = dg.rho_pair_inverse(fib, a, b)
            glued = G.eval(p, e, e)
            left = float(np.asarray(a) @ g1.gram(p.coords) @ np.asarray(a))
            right = float(np.asarray(b) @ g2.gram(p.coords2) @ np.asarray(b))
            assert glued == pytest.approx(left, abs=1e-10)
            assert glued == pytest.approx(right, abs=1e-10)


# -- pairing map ------------------------------------------------------------------

def test_pairing_duality_random(halfline):
    g1 = curved_line_metric(halfline.block1)
    g2 = curved_line_metric(halfline.block2)
    G = dg.glue_metrics(halfline, g1, g2)
    rng = np.random.default_rng(2)
    for region, pts in halfline.region_samples().items():
        for p in pts[:4]:
            fib = dg.compute_fibre(halfline, p)
            for _ in range(3):
                v = dg.FibreElement(fib, rng.uniform(-1, 1, fib.dim))
                w = dg.FibreElement(fib, rng.uniform(-1, 1, fib.dim))
                pv = G.pairing_apply(p, v)
                pw = G.pairing_apply(p, w)
                dual_gram = np.linalg.inv(G.gram_at(p, fib))
                assert float(pv @ dual_gram @ pw) == \
                    pytest.approx(G.eval(p, v, w), abs=1e-10)
                back = G.pairing_invert(p, pv, fib)
                assert back.components == pytest.approx(v.components, abs=1e-10)


def test_pairing_invert_singular_gram():
    # bypass validation with a Gram that degenerates away from the seeds
    block = dg.EuclideanBlock(1, lambda x: True, [(1.0,), (2.0,)], "deg")
    g = dg.BlockMetric(block, ((lambda x: x[0] ** 2,),))
    space = dg.build_glued_space(block, block, dg.PointSetLocus([(1.0,)]), identity_map())
    G = dg.GluedMetric(space, g, g)
    with pytest.raises(dg.SingularGram):
        G.pairing_invert(dg.classify_point(space, 1, (0.0,)), [1.0])
