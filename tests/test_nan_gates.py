"""Pass/fail gates written as ``not res <= bound``, so a NaN residual fails.

``res > bound`` is False for a NaN, which would let a NaN value through
each of these gates.
"""

import math
from itertools import islice

import numpy as np
import pytest

from diffglue import connection as cx
from diffglue.errors import IncompatiblePair, NotAFunctionOnGluedSpace, ValidationError
from diffglue.forms import GluedFunction, compute_fibre, rho_pair_inverse
from diffglue.metric import constant_metric
from diffglue.scenario import build_context, fixture_path, load_scenario
from diffglue.suites import _block_symmetric

NAN = math.nan


@pytest.fixture(scope="module")
def ctx():
    return build_context(load_scenario(fixture_path("plane_axis_gluing")))


def locus_point(ctx):
    return ctx.space.region_samples()["locus"][0]


def test_rho_pair_inverse_rejects_a_nan_pair(ctx):
    fibre = compute_fibre(ctx.space, locus_point(ctx))
    with pytest.raises(IncompatiblePair):
        rho_pair_inverse(fibre, [NAN, 0.0], [0.0, 0.0])


def test_tensor_membership_gate_rejects_a_nan_pair(ctx):
    with pytest.raises(IncompatiblePair):
        cx.tensor_pair_gate(ctx.space, locus_point(ctx),
                            [np.array([[NAN, 0.0], [0.0, 0.0]]), np.zeros((2, 2))])


def test_glued_function_validation_rejects_nan_values(ctx):
    with pytest.raises(NotAFunctionOnGluedSpace):
        GluedFunction(ctx.space, lambda x: NAN, lambda z: NAN).validate()


def test_block_symmetry_gate_rejects_a_nan_connection(ctx):
    block = ctx.g1.block
    d = block.dim
    nan_connection = cx.BlockConnection(
        block, lambda x: [[[NAN] * d for _ in range(d)] for _ in range(d)])
    fam = list(islice(cx.block_form_family(block, np.random.default_rng(0)), 4))
    pairs = list(zip(fam, fam[1:]))
    points = ctx.space.block_grid(1)[:4]
    assert _block_symmetric(ctx.koszul(1), ctx.g1, pairs, points,
                            cx.PointStore(ctx.engine), tol=1e-6)
    assert not _block_symmetric(nan_connection, ctx.g1, pairs, points,
                                cx.PointStore(ctx.engine), tol=1e-6)


def test_koszul_seed_bracket_assertion_rejects_nan(monkeypatch, ctx):
    g = constant_metric(ctx.g1.block, np.eye(ctx.g1.block.dim).tolist())
    cx.koszul_solve(g, ctx.engine)
    monkeypatch.setattr(cx, "lie_bracket_dual_block",
                        lambda t, u, engine, block: lambda x: [NAN] * block.dim)
    with pytest.raises(ValidationError, match="bracket"):
        cx.koszul_solve(g, ctx.engine)
