"""Dual-number arithmetic, gradients, and the dual/fd cross-check."""

import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffglue import numerics
from diffglue.errors import ModesDisagree, OutsideDomain, SingularGram
from diffglue.fields import PolyField, random_poly
from diffglue.numerics import (TOLERANCES, DiffConfig, DiffEngine, DualScalar,
                               SamplePlan, _primal, _seeds, coordinate_arrays, exp,
                               invert_matrix_generic)

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def d(v, p):
    return DualScalar(v, (p,))


@given(finite, finite, finite, finite)
def test_dual_product_rule(a, da, b, db):
    out = d(a, da) * d(b, db)
    assert out.value == pytest.approx(a * b)
    assert out.partials[0] == pytest.approx(a * db + da * b)


@given(finite, finite)
def test_dual_chain_rule_square(a, da):
    out = d(a, da) ** 2
    assert out.partials[0] == pytest.approx(2 * a * da)


@settings(max_examples=50)
@given(st.floats(min_value=0.1, max_value=5.0), finite)
def test_dual_quotient_and_log(a, da):
    out = 1.0 / d(a, da)
    assert out.partials[0] == pytest.approx(-da / a ** 2)


def test_dual_exp_sqrt():
    x = d(0.7, 1.0)
    assert exp(x).value == pytest.approx(math.exp(0.7))
    assert exp(x).partials[0] == pytest.approx(math.exp(0.7))


def test_nested_duals_give_second_derivative():
    # f(x) = x^3: f''(2) = 12, via a dual whose partials are dual
    inner = DualScalar(2.0, (1.0,))
    outer = DualScalar(inner, (DualScalar(1.0, (0.0,)),))
    out = outer ** 3
    assert out.value.value == pytest.approx(8.0)
    assert out.partials[0].partials[0] == pytest.approx(12.0)


def test_primal_scalars_and_nests():
    # scalars give Python floats; a dual gives its primal even when nested
    assert type(_primal(2.5)) is float and _primal(np.float64(2.5)) == 2.5
    inner = DualScalar(2.0, (1.0,))
    assert _primal(inner) == 2.0
    nested = DualScalar(inner, (DualScalar(1.0, (0.0,)),))
    assert type(_primal(nested)) is float and _primal(nested) == 2.0
    # list and tuple nests give float64 arrays of the same shape, entry by entry
    floats = [[1.0, -2.0], [0.5, 3.0]]
    duals = [[DualScalar(1.0, (1.0,)), DualScalar(-2.0, (0.0,))],
             [DualScalar(0.5, (2.0,)), nested]]
    mixed = ((1.0, DualScalar(-2.0, (1.0,))), (nested, 3.0))
    for nest in (floats, duals, mixed, tuple(floats), [floats, duals]):
        out = _primal(nest)
        expect = np.asarray(nest, dtype=object)
        assert out.dtype == np.float64 and out.shape == expect.shape
        assert all(out[i] == _primal(v) for i, v in np.ndenumerate(expect))


# -- bit identity of the scalar kernel ---------------------------------------

# any double, with signed zeros, NaN and infinities drawn often
reals = st.one_of(st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                                   -1.5, 2.0]),
                  st.floats())


@st.composite
def duals(draw):
    """A dual with 1-3 partials whose coefficients may be duals of one width."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    coeff = reals
    if m:
        coeff = st.one_of(reals, st.builds(DualScalar, reals, st.tuples(*[reals] * m)))
    return DualScalar(draw(coeff), draw(st.tuples(*[coeff] * n)))


def bits(v):
    """Bit pattern of a generic value, so that -0.0 != 0.0.  Every NaN reads
    as one: CPython picks the sign of ``nan * -nan`` differently once it has
    specialized the operation, so a NaN's sign and payload are not stable."""
    if isinstance(v, DualScalar):
        return (bits(v.value), tuple(bits(p) for p in v.partials))
    return b"nan" if v != v else struct.pack("d", v)


def outcome(op, *args):
    try:
        return bits(op(*args))
    except ArithmeticError as exc:
        return type(exc)


# op on a float operand -> the same op on its constant dual, as the coerced
# path computed it (``x + u`` evaluated as ``u + const``, ``x - u`` as ``const - u``)
KERNEL_OPS = {
    "add": (lambda u, x: u + x, lambda u, c: u + c),
    "radd": (lambda u, x: x + u, lambda u, c: u + c),
    "sub": (lambda u, x: u - x, lambda u, c: u - c),
    "rsub": (lambda u, x: x - u, lambda u, c: c - u),
    "mul": (lambda u, x: u * x, lambda u, c: u * c),
    "rmul": (lambda u, x: x * u, lambda u, c: u * c),
    "truediv": (lambda u, x: u / x, lambda u, c: u / c),
    "rtruediv": (lambda u, x: x / u, lambda u, c: c / u),
}


@settings(max_examples=300)
@given(u=duals(), x=reals)
@example(u=DualScalar(1.0, (-0.0,)), x=0.0)
@example(u=DualScalar(math.inf, (2.0,)), x=0.0)
@example(u=DualScalar(DualScalar(-0.0, (-0.0,)), (DualScalar(math.nan, (1.0,)),)), x=-3.0)
def test_float_operand_fast_path_is_bit_identical(u, x):
    const = DualScalar(x, (0.0,) * len(u.partials))
    for name, (fast, coerced) in KERNEL_OPS.items():
        assert outcome(fast, u, x) == outcome(coerced, u, const), name


def exponent_loop(poly, coords):
    """PolyField evaluation as the per-axis exponent loop it replaced."""
    total = 0.0
    for exps, c in poly.coeffs.items():
        term = c
        for x, e in zip(coords, exps):
            for _ in range(e):
                term = term * x
        total = total + term
    return total


@settings(max_examples=100)
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * dim), reals, max_size=6),
    st.lists(reals, min_size=dim, max_size=dim))))
def test_poly_field_matches_the_exponent_loop(case):
    coeffs, coords = case
    poly = PolyField(len(coords), coeffs)
    assert bits(poly(coords)) == bits(exponent_loop(poly, coords))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_poly_field_matches_the_exponent_loop_on_seeded_duals(dim):
    rng = np.random.default_rng(dim)
    for _ in range(20):
        poly = random_poly(rng, dim)
        coords = [float(c) for c in rng.uniform(-2.0, 2.0, dim)]
        seeds = _seeds(coords)
        nested = _seeds(seeds)   # duals of duals, as nested engine calls give
        for x in (coords, seeds, nested):
            assert bits(poly(x)) == bits(exponent_loop(poly, x))


def test_gradient_cubic():
    eng = DiffEngine(DiffConfig())
    g = _primal(eng.gradient(lambda x: x[0] ** 3, [2.0]))
    assert g[0] == pytest.approx(12.0)


def test_gradient_constant_is_zero():
    eng = DiffEngine(DiffConfig())
    assert np.all(_primal(eng.gradient(lambda x: 5.0, [1.0, 2.0])) == 0.0)


def test_gradient_two_modes_agree():
    # f(x, y) = x*y^2 at (1, 2): gradient (4, 4)
    f = lambda x: x[0] * x[1] ** 2
    dual = _primal(DiffEngine(DiffConfig("forward_dual")).gradient(f, [1.0, 2.0]))
    fd = _primal(DiffEngine(DiffConfig("central_fd")).gradient(f, [1.0, 2.0]))
    assert dual == pytest.approx([4.0, 4.0], abs=1e-12)
    assert np.max(np.abs(dual - fd)) < 1e-6


def test_fd_gradient_respects_domain_guard():
    eng = DiffEngine(DiffConfig("central_fd", fd_step=1e-2))
    with pytest.raises(OutsideDomain):
        eng.gradient(lambda x: x[0], [0.005], within=lambda x: x[0] > 0)
    with pytest.raises(OutsideDomain):
        eng.jacobian(lambda x: [x[0], x[0] * x[1], 1.0], [0.005, 1.0],
                     within=lambda x: x[0] > 0)


@pytest.mark.parametrize("mode, evaluations", [("forward_dual", 1), ("central_fd", 4)])
def test_jacobian_is_one_vector_pass(mode, evaluations):
    # three outputs on a plane, one constant: dual mode evaluates the mapping
    # once, fd mode twice per axis; the rows are the per-output gradients
    calls = []

    def mapping(x):
        calls.append(x)
        return [x[0] * x[1], x[1] ** 2, 7.0]

    eng = DiffEngine(DiffConfig(mode))
    rows = _primal(eng.jacobian(mapping, [1.5, -0.5]))
    assert len(calls) == evaluations
    grads = [_primal(eng.gradient(lambda x, j=j: mapping(x)[j], [1.5, -0.5])) for j in range(3)]
    assert np.array_equal(rows, np.asarray(grads))
    assert rows == pytest.approx(np.array([[-0.5, 1.5], [0.0, -1.0], [0.0, 0.0]]), abs=1e-8)


def test_fd_cross_check_passes_on_polynomials():
    eng = DiffEngine(DiffConfig())
    rep = eng.fd_cross_check(lambda x: 3 * x[0] ** 2 - x[0], [0.7])
    assert rep.max_discrepancy < 1e-8


def test_fd_cross_check_zero_field():
    eng = DiffEngine(DiffConfig())
    rep = eng.fd_cross_check(lambda x: 0.0, [0.3])
    assert rep.max_discrepancy == 0.0


def test_fd_cross_check_detects_kink():
    # |x - x0| with the kink half a step away: fd straddles it, dual does not
    eng = DiffEngine(DiffConfig())
    x0 = 0.5 + 0.5e-5
    with pytest.raises(ModesDisagree):
        eng.fd_cross_check(lambda x: abs(x[0] - x0), [0.5])


def test_fd_cross_check_nan_gradient_fails():
    # the NaN sits in the second partial, after a finite one
    eng = DiffEngine(DiffConfig())
    with pytest.raises(ModesDisagree):
        eng.fd_cross_check(lambda x: x[0] + math.nan * x[1], [0.5, 0.5])


def test_invert_matrix_generic_roundtrip():
    m = [[2.0, 1.0], [1.0, 2.0]]
    inv = invert_matrix_generic(m)
    assert np.asarray(inv) == pytest.approx(np.linalg.inv(m))


def test_invert_matrix_generic_dual_entries():
    # d/dx of 1/(1+x^2) at x=1 is -2x/(1+x^2)^2 = -0.5
    x = DualScalar(1.0, (1.0,))
    inv = invert_matrix_generic([[1.0 + x * x]])
    assert inv[0][0].value == pytest.approx(0.5)
    assert inv[0][0].partials[0] == pytest.approx(-0.5)


def test_invert_matrix_generic_singular():
    with pytest.raises(SingularGram):
        invert_matrix_generic([[1.0, 1.0], [1.0, 1.0]])


def test_config_validation():
    with pytest.raises(ValueError):
        DiffConfig(mode="backward")
    for step in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            DiffConfig(fd_step=step)
    with pytest.raises(ValueError):
        SamplePlan(per_axis=0)
    assert DiffConfig().suite_tol == 1e-10
    assert DiffConfig("central_fd").suite_tol == 1e-6


def test_readme_tolerance_table_matches_tolerances():
    # the README documents every row of TOLERANCES with both columns
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = iter(readme.splitlines())
    for line in lines:
        if line.strip() == "| row | check | dual | fd |":
            break
    else:
        pytest.fail("README has no tolerance table")
    next(lines)  # separator row
    rows = {}
    for line in lines:
        if not line.strip().startswith("|"):
            break
        row, _, dual, fd = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        rows[row] = (float(dual), float(fd))
    assert rows.keys() == TOLERANCES.keys()
    for row, (dual, fd) in TOLERANCES.items():
        assert rows[row] == (pytest.approx(dual), pytest.approx(fd)), row
        assert DiffConfig().tol(row) == dual
        assert DiffConfig("central_fd").tol(row) == fd


# -- values over points ------------------------------------------------------
#
# Generic values over points (float arrays, duals with array values and
# partials) must give every point the bits of that point's scalar call.

def at(v, k):
    """Point ``k`` of a generic value over points."""
    if isinstance(v, DualScalar):
        return DualScalar(at(v.value, k), tuple(at(p, k) for p in v.partials))
    return float(v[k]) if isinstance(v, np.ndarray) else v


def same(over, scalar) -> bool:
    """Bit equality of a point of a batch result with the scalar result; a
    float equals a dual that carries it with +0.0 partials (a batch inverted
    point by point stacks its floats as such duals)."""
    if isinstance(over, DualScalar) and isinstance(scalar, DualScalar):
        return (same(over.value, scalar.value) and len(over.partials) == len(scalar.partials)
                and all(same(p, q) for p, q in zip(over.partials, scalar.partials)))
    if isinstance(over, DualScalar):
        return same(over.value, scalar) and all(same(p, 0.0) for p in over.partials)
    return not isinstance(scalar, DualScalar) and bits(over) == bits(scalar)


def stack(values):
    """One generic value over points from per-point ones of equal structure;
    a value equal at every point and plain float stays a plain float."""
    first = values[0]
    if isinstance(first, DualScalar):
        return DualScalar(stack([v.value for v in values]),
                          tuple(stack([v.partials[i] for v in values])
                                for i in range(len(first.partials))))
    if all(v is first for v in values):
        return first
    return np.array(values, dtype=float)


def spd(rng, n, swaps):
    """A random SPD matrix; with ``swaps`` its off-diagonal entries outgrow
    the diagonal, so partial pivoting swaps rows."""
    b = rng.uniform(-2.0, 2.0, (n, n))
    m = b @ b.T + 0.2 * np.eye(n)
    if swaps:
        m = m + 3.0 * (np.ones((n, n)) - np.eye(n)) * np.sign(m)
        m = m @ m.T + 0.2 * np.eye(n)   # SPD again, off-diagonals still large
    return m


def generic_entry(rng, value, kind, width):
    """``value`` as a float, a dual of ``width`` partials or a nested dual."""
    if kind == "float":
        return float(value)
    partials = [float(p) for p in rng.uniform(-1.0, 1.0, width)]
    if kind == "dual":
        return DualScalar(float(value), partials)
    return DualScalar(DualScalar(float(value), (float(rng.uniform(-1, 1)),)),
                      [DualScalar(p, (float(rng.uniform(-1, 1)),)) for p in partials])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), points=st.integers(2, 5),
       kind=st.sampled_from(["float", "dual", "nested"]), swaps=st.booleans(),
       constants=st.sampled_from([0.0, 0.3, 0.6]))
@example(seed=0, n=2, points=3, kind="float", swaps=True, constants=0.0)
@example(seed=1, n=3, points=4, kind="dual", swaps=True, constants=0.6)
def test_invert_matrix_generic_over_points_is_bit_identical(seed, n, points, kind,
                                                            swaps, constants):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 3))
    # each point's matrix; a share ``constants`` of the symmetric entry pairs
    # is one plain float at every point, as a constant metric entry is
    mats = [spd(rng, n, swaps and rng.random() < 0.7) for _ in range(points)]
    fixed = {(i, j) for i in range(n) for j in range(i, n) if rng.random() < constants}
    per_point = []
    for m in mats:
        per_point.append([[float(mats[0][i, j]) if (min(i, j), max(i, j)) in fixed
                           else generic_entry(rng, m[i, j], kind, width)
                           for j in range(n)] for i in range(n)])
    rows = [[stack([pp[i][j] for pp in per_point]) for j in range(n)] for i in range(n)]
    expected = []
    for pp in per_point:
        try:
            expected.append(invert_matrix_generic(pp))
        except SingularGram:
            expected.append(None)
    if None in expected:
        with pytest.raises(SingularGram):
            invert_matrix_generic(rows)
        return
    got = invert_matrix_generic(rows)
    for k, want in enumerate(expected):
        for i in range(n):
            for j in range(n):
                assert same(at(got[i][j], k), want[i][j]), (k, i, j)


def over_points(mats):
    """Matrix rows of float arrays over points, from one matrix per point."""
    n = len(mats[0])
    return [[np.array([m[i, j] for m in mats]) for j in range(n)] for i in range(n)]


def assert_each_point_inverted(got, mats):
    n = len(mats[0])
    for k, m in enumerate(mats):
        want = invert_matrix_generic(m.tolist())
        assert all(bits(float(got[i][j][k])) == bits(want[i][j])
                   for i in range(n) for j in range(n)), k


def test_invert_matrix_generic_swaps_in_one_pass_when_pivots_agree(monkeypatch):
    # column 0 pivots on row 1 at both points: one batched pass, no point split
    mats = [np.array([[1.0, 3.0], [2.0, 5.0]]), np.array([[0.5, 2.0], [4.0, 1.0]])]
    monkeypatch.setattr(numerics, "_at_point", lambda *a: pytest.fail("split by point"))
    assert_each_point_inverted(invert_matrix_generic(over_points(mats)), mats)


@pytest.mark.parametrize("mats", [
    # column 0 pivots on row 0 at the first point and on row 1 at the second
    [np.array([[4.0, 1.0], [0.5, 2.0]]), np.array([[1.0, 3.0], [2.0, 5.0]])],
    # the multiplier below the pivot is zero at the first point only
    [np.array([[2.0, 1.0], [0.0, 3.0]]), np.array([[2.0, 1.0], [0.5, 3.0]])],
])
def test_invert_matrix_generic_splits_by_point_when_steps_differ(monkeypatch, mats):
    split = []
    at_point = numerics._at_point
    monkeypatch.setattr(numerics, "_at_point", lambda x, k: split.append(k) or at_point(x, k))
    assert_each_point_inverted(invert_matrix_generic(over_points(mats)), mats)
    assert set(split) == {0, 1}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=2, max_size=6),
       st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=6, max_size=6))
@example([0.0, -0.0, 1.5, -2.0], [1.0, -1.0, 0.5, 0.0, 2.0, 1.0])
def test_abs_exp_and_real_powers_over_points_are_bit_identical(values, partials):
    count = len(values)
    scalars = [DualScalar(v, (p,)) for v, p in zip(values, partials)]
    over = DualScalar(np.array(values), (np.array(partials[:count]),))
    positive = [DualScalar(abs(v) + 0.5, (p,)) for v, p in zip(values, partials)]
    over_positive = DualScalar(np.abs(np.array(values)) + 0.5, (np.array(partials[:count]),))
    for f in (abs, exp, lambda u: exp(u.value) * u):
        got = f(over)
        assert all(same(at(got, k), f(s)) for k, s in enumerate(scalars))
    for power in (0.5, 1.5, -0.75, 3.0):
        got = over_positive ** power
        assert all(same(at(got, k), s ** power) for k, s in enumerate(positive))


def test_fd_cross_check_over_points_matches_each_point():
    # a vector field over coordinate arrays: each (output, point) check
    # equals the scalar check of that output at that point
    field = lambda x: [x[0] * x[1], 3.0, exp(0.5 * x[0]) - x[1] * x[1]]
    pts = [(0.3, -0.7), (1.1, 0.4), (-0.5, 2.0)]
    eng = DiffEngine(DiffConfig())
    rep = eng.fd_cross_check(field, coordinate_arrays(pts))
    assert rep.max_discrepancy.shape == rep.threshold.shape == (3, 3)
    for k, p in enumerate(pts):
        for j in range(3):
            one = eng.fd_cross_check(lambda x, j=j: field(x)[j], list(p))
            assert bits(float(rep.max_discrepancy[j, k])) == bits(float(one.max_discrepancy[0, 0]))
            assert bits(float(rep.threshold[j, k])) == bits(float(one.threshold[0, 0]))


def test_fd_cross_check_over_points_names_the_first_failing_point():
    x0 = 0.5 + 0.5e-5
    eng = DiffEngine(DiffConfig())
    pts = [(0.2,), (0.5,), (0.8,)]
    with pytest.raises(ModesDisagree, match=r"at \(0\.5,\)"):
        eng.fd_cross_check(lambda x: [x[0], abs(x[0] - x0)], coordinate_arrays(pts))


def test_fd_guard_runs_point_by_point_over_arrays():
    eng = DiffEngine(DiffConfig("central_fd", fd_step=1e-2))
    pts = coordinate_arrays([(0.5,), (0.005,)])
    with pytest.raises(OutsideDomain, match=r"at \(0\.005,\)"):
        eng.jacobian(lambda x: [x[0]], pts, within=lambda x: x[0] > 0)
