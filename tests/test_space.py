"""Blocks, loci, gluing maps, and the three-region decomposition."""

import numpy as np
import pytest

import diffglue as dg
from diffglue.space import seam_mean


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


def test_cross_builds(cross):
    assert cross.flags.asserted
    assert cross.locus_points() == [(0.0,)]


def test_cubic_gluing_rejected():
    # x -> x^3 has singular Jacobian at 0; the invertibility probe rejects it
    locus = dg.OpenSubdomainLocus(lambda x: -1.0 < x[0] < 1.0,
                                  [(-0.5,), (0.0,), (0.5,)])
    cbrt = lambda z: [abs(z[0]) ** (1 / 3) * (1 if z[0] >= 0 else -1)]
    f = dg.GluingMap(lambda y: [y[0] ** 3], cbrt, lambda y: [[3.0 * y[0] ** 2]],
                     lambda z: [[1.0 / (3.0 * cbrt(z)[0] ** 2)]])
    with pytest.raises(dg.NotADiffeomorphism):
        dg.build_glued_space(line("c1", ((1.5,), (-1.5,))),
                             line("c2", ((1.5,), (-1.5,))),
                             locus, f, dg.HypothesisFlags(True, True))


def test_broken_roundtrip_rejected():
    f = dg.GluingMap(lambda y: [y[0] + 1.0], lambda z: [z[0]], lambda y: [[1.0]],
                     lambda z: [[1.0]])
    with pytest.raises(dg.NotADiffeomorphism):
        dg.build_glued_space(line(), line(), dg.PointSetLocus([(0.0,)]), f,
                             dg.HypothesisFlags(True, True))


def test_roundtrip_tolerance_scales_with_coordinates():
    # z = 3y + 0.1 is a valid gluing; at |y| ~ 1.6e7 its round trip is off
    # by one ulp (about 2e-9), so the tolerance must scale with the coordinates
    from diffglue.scenario import parse_map
    f = parse_map({"kind": "affine", "matrix": [[3.0]], "offset": [0.1]}, 1, 1, "map")
    y = (16340733.664249789,)
    space = dg.build_glued_space(line("a1", ((0.0,),)), line("a2", ((0.0,),)),
                                 dg.OpenSubdomainLocus(lambda x: True, [y]), f,
                                 dg.HypothesisFlags(True, True))
    assert space.locus_points() == [y]
    assert dg.classify_point(space, 2, space.map_forward(y)).region == "locus"


def test_locus_outside_block_rejected():
    half = dg.EuclideanBlock(1, lambda x: x[0] > 0.0, [(1.0,), (2.0,)], "halfblock")
    with pytest.raises(dg.LocusOutsideBlock):
        dg.build_glued_space(half, line(), dg.PointSetLocus([(-1.0,)]),
                             identity_map(), dg.HypothesisFlags(True, True))


def test_hypothesis_flags_required_for_open_locus():
    locus = dg.OpenSubdomainLocus(lambda x: x[0] < 0.0, [(-1.0,)])
    with pytest.raises(dg.HypothesisNotAsserted):
        dg.build_glued_space(line("h1", ((1.0,), (-2.0,))),
                             line("h2", ((1.0,), (-2.0,))),
                             locus, identity_map(),
                             dg.HypothesisFlags(True, False))
    # the type itself refuses unasserted flags at construction
    with pytest.raises(dg.HypothesisNotAsserted):
        dg.GluedSpace(line("h1", ((1.0,), (-2.0,))), line("h2", ((1.0,), (-2.0,))),
                      locus, identity_map(), dg.HypothesisFlags(False, False))


def test_block_openness_probe():
    with pytest.raises(dg.ValidationError):
        dg.EuclideanBlock(1, lambda x: x[0] >= 1.0, [(1.0,)], "edge")


def test_classify_block1(cross):
    p = dg.classify_point(cross, 1, (3.0,))
    assert p.region == "block1" and p.coords == (3.0,)


def test_classify_block2_origin_is_locus(cross):
    p = dg.classify_point(cross, 2, (0.0,))
    assert p.region == "locus" and p.coords == (0.0,)


def test_classify_pullback_through_inverse(halfline):
    p = dg.classify_point(halfline, 2, (-1.0,))
    assert p.region == "locus" and p.coords == (-1.0,)


def test_classify_outside_domain():
    half = dg.EuclideanBlock(1, lambda x: x[0] > 0.0, [(1.0,), (2.0,)], "pos")
    space = dg.build_glued_space(half, half, dg.PointSetLocus([(1.0,)]),
                                 identity_map())
    with pytest.raises(dg.OutsideDomain):
        dg.classify_point(space, 1, (-5.0,))


def test_classify_is_idempotent_and_partitions(cross, halfline):
    for space, pts in ((cross, [(-2.0,), (0.0,), (1.0,)]),
                       (halfline, [(-2.0,), (-1.0,), (0.5,)])):
        for c in pts:
            p1 = dg.classify_point(space, 1, c)
            again = dg.classify_point(space, 1, p1.coords)
            assert again == p1
            assert p1.region in ("block1", "locus", "block2")


def test_gluing_consistency(halfline):
    # classify(block1, y) and classify(block2, f(y)) agree on the locus
    for y in halfline.locus_points():
        p1 = dg.classify_point(halfline, 1, y)
        p2 = dg.classify_point(halfline, 2, halfline.map_forward(y))
        assert p1 == p2 and p1.region == "locus"


def test_sides_lists_each_block_side_block1_first():
    shift = dg.GluingMap(lambda y: [y[0] + 1.0], lambda z: [z[0] - 1.0],
                         lambda y: [[1.0]], lambda z: [[1.0]])
    space = dg.build_glued_space(line("s1"), line("s2"), dg.PointSetLocus([(0.0,)]),
                                 shift)
    assert dg.classify_point(space, 1, (3.0,)).sides == ((1, (3.0,)),)
    assert dg.classify_point(space, 2, (3.0,)).sides == ((2, (3.0,)),)
    locus = dg.classify_point(space, 2, (1.0,))
    assert locus.sides == ((1, (0.0,)), (2, (1.0,)))


def test_seam_mean_keeps_one_value_and_half_weights_two():
    v = np.array([1.0, -2.0])
    assert seam_mean([v]) is v
    assert seam_mean([0.3]) == 0.3
    a, b = np.array([0.1, 1.5e308]), np.array([0.7, 1.5e308])
    assert np.array_equal(seam_mean([a, b]), 0.5 * a + 0.5 * b)
    assert seam_mean([0.1, 0.7]) == 0.5 * 0.1 + 0.5 * 0.7


def test_classify_point_sides_cover_each_block(cross):
    # a block-2 point has only its block-2 side, a locus point reached from
    # block 2 has both, and a block-1 point has only its block-1 side
    assert dg.classify_point(cross, 2, (5.0,)).sides == ((2, (5.0,)),)
    assert dg.classify_point(cross, 2, (0.0,)).sides == ((1, (0.0,)), (2, (0.0,)))
    assert dg.classify_point(cross, 1, (2.0,)).sides == ((1, (2.0,)),)


def test_diffeomorphism_roundtrips_on_locus(halfline):
    for y in halfline.locus_points():
        z = halfline.map_forward(y)
        assert halfline.map_inverse(z) == pytest.approx(y, abs=1e-9)


def test_empty_locus_is_disjoint_union():
    space = dg.build_glued_space(line("d1"), line("d2"),
                                 dg.PointSetLocus([]), identity_map())
    assert space.locus_points() == []
    assert dg.classify_point(space, 1, (0.0,)).region == "block1"
    assert dg.classify_point(space, 2, (0.0,)).region == "block2"
    assert space.region_samples()["locus"] == ()


def test_region_samples_classify_each_point_once(halfline, monkeypatch):
    calls = []
    classify = dg.space.classify_point
    monkeypatch.setattr(dg.space, "classify_point",
                        lambda *args: calls.append(args) or classify(*args))
    first = halfline.region_samples()
    assert len(calls) >= sum(len(pts) for pts in first.values())
    calls.clear()
    first["locus"] = ()
    again = halfline.region_samples()
    assert calls == []
    assert [p.coords for p in again["locus"]] == [(-1.0,), (-0.5,), (-2.0,)]
    with pytest.raises(AttributeError):
        again["block1"].append(again["block2"][0])


def _with_inverse_jacobian(inverse_jacobian):
    return dg.GluingMap(lambda y: list(y), lambda z: list(z),
                        lambda y: np.eye(len(y)).tolist(), inverse_jacobian)


@pytest.mark.parametrize("inverse_jacobian", [
    lambda z: [[2.0, 0.0], [0.0, 1.0]],      # wrong entry
    lambda z: [[1.0, 0.0]],                   # wrong shape
    lambda z: [[float("nan"), 0.0], [0.0, 1.0]],
])
@pytest.mark.parametrize("kind", ["open_subdomain", "submanifold"])
def test_inverse_jacobian_disagreeing_with_jacobian_is_rejected(kind, inverse_jacobian):
    # J_f(y) @ J_{f^-1}(f(y)) = I is checked at every locus sample, so the
    # two Jacobians of a gluing map cannot silently disagree
    plane = dg.EuclideanBlock(2, lambda x: True, [(0.5, 1.0), (-1.0, -0.5)], "p")
    if kind == "open_subdomain":
        locus = dg.OpenSubdomainLocus(lambda x: x[0] < 0.0, [(-1.0, 0.5)])
    else:
        locus = dg.SubmanifoldLocus(1, lambda t: [t[0], 0.0], lambda x: [x[0]], [(-1.0,)])
    flags = dg.HypothesisFlags(True, True)
    dg.build_glued_space(plane, plane, locus, identity_map(), flags)
    with pytest.raises(dg.NotADiffeomorphism, match="J_f and J_f\\^-1 disagree"):
        dg.build_glued_space(plane, plane, locus, _with_inverse_jacobian(inverse_jacobian),
                             flags)


def test_submanifold_locus_frames():
    plane = dg.EuclideanBlock(2, lambda x: True, [(0.5, 1.0), (-1.0, -0.5)], "p")
    locus = dg.SubmanifoldLocus(1, lambda t: [t[0], 0.0], lambda x: [x[0]],
                                [(-1.0,), (0.5,)])
    space = dg.build_glued_space(plane, plane, locus, identity_map(),
                                 dg.HypothesisFlags(True, True))
    fr = space.locus_frames((0.5, 0.0))
    assert fr.t1 == pytest.approx(np.array([[1.0], [0.0]]))
    assert fr.t2 == pytest.approx(np.array([[1.0], [0.0]]))


def test_submanifold_rank_deficient_chart_rejected():
    plane = dg.EuclideanBlock(2, lambda x: True, [(0.5, 1.0), (-1.0, -0.5)], "p")
    locus = dg.SubmanifoldLocus(1, lambda t: [0.0, 0.0], lambda x: [x[0]],
                                [(0.0,)])
    with pytest.raises(dg.ValidationError):
        dg.build_glued_space(plane, plane, locus, identity_map(),
                             dg.HypothesisFlags(True, True))


def test_probe_sequences_stay_in_block(halfline):
    for target, seq in halfline.probe_sequences():
        assert target.region == "locus"
        for q in seq:
            assert halfline.block1.contains(list(q.coords))


def test_in_glued_image_lets_programming_errors_through():
    # only library and arithmetic errors mean "not in the image"; a bug in
    # the gluing map's inverse must surface instead of classifying block-2
    def inverse(z):
        if z[0] >= 0.0:
            raise TypeError("inverse not defined off the locus")
        return list(z)

    locus = dg.OpenSubdomainLocus(lambda x: x[0] < 0.0, [(-1.0,), (-0.5,)])
    f = dg.GluingMap(lambda y: list(y), inverse, lambda y: [[1.0]], lambda z: [[1.0]])
    space = dg.build_glued_space(line("b1", ((-1.0,), (-2.5,))),
                                 line("b2", ((-1.0,), (-2.5,))),
                                 locus, f, dg.HypothesisFlags(True, True))
    assert dg.classify_point(space, 2, (-1.0,)).region == "locus"
    with pytest.raises(TypeError):
        dg.classify_point(space, 2, (1.0,))
