"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one CRITERION line; run with -s (or read the captured
output) to see the summary.  The bundled fixtures are the objects under
test; everything here goes through the public scenario/suite surface plus
independently coded oracles.
"""

import dataclasses

import numpy as np
import pytest

import diffglue as dg
from diffglue import connection as cx
from diffglue.forms import compute_fibre, relation_matrix
from diffglue.numerics import exp
from diffglue.scenario import build_context, fixture_path, load_scenario
from diffglue.suites import SUITES, derivative_trust_sweep

POSITIVE = ["cross_flat", "cross_mixed_grams", "halfline_curved",
            "plane_axis_gluing"]
FAILURES = {"halfline_mismatch": "metric-gluing",
            "halfline_connection_clash": "leibniz",
            "cubic_gluing_invalid": "fibres"}


def _announce(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num} ({label}): {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({label}) failed: {detail}"


@pytest.fixture(scope="module")
def contexts():
    return {name: build_context(load_scenario(fixture_path(name)))
            for name in POSITIVE}


@pytest.fixture(scope="module")
def full_runs(contexts):
    """Full suite catalogue on every positive fixture, run once."""
    out = {}
    for name, ctx in contexts.items():
        out[name] = {suite: fn(ctx) for suite, fn in SUITES.items()}
    return out


def test_criterion_1_fibre_structure(contexts):
    ctx = contexts["cross_flat"]
    space = ctx.space
    dims = {}
    for region, pts in space.region_samples().items():
        for p in pts:
            dims.setdefault(region, set()).add(compute_fibre(space, p).dim)
    ok = dims["block1"] == {1} and dims["locus"] == {2} and dims["block2"] == {1}

    hl = contexts["halfline_curved"].space
    for p in hl.region_samples()["locus"]:
        fib = compute_fibre(hl, p)
        ok = ok and fib.dim == 1
        v = fib.basis[0]
        ok = ok and abs(v[0] - v[1]) < 1e-12      # proportional to (1, 1)
        # independent oracle: nullspace of the sampled relation matrix
        rel = relation_matrix(hl, p.coords)
        ok = ok and rel == pytest.approx(np.array([[1.0, -1.0]]))
    _announce(1, "fibre structure", ok,
              f"cross dims {sorted(dims.items())}, halfline locus dim 1 along (1,1)")


def test_criterion_2_glued_metric(contexts):
    worst_sym = 0.0
    ok = True
    for name, ctx in contexts.items():
        G = ctx.glued_metric()
        for region, pts in ctx.space.region_samples().items():
            for p in pts:
                gram = G.gram_at(p)
                sym = float(np.max(np.abs(gram - gram.T)))
                worst_sym = max(worst_sym, sym)
                ok = ok and sym <= 1e-12
                eig = np.linalg.eigvalsh(0.5 * (gram + gram.T))
                ok = ok and eig[0] > 1e-10 * max(eig[-1], 1.0)
    # the cross with identity Grams has locus Gram exactly diag(1/2, 1/2)
    ctx = contexts["cross_flat"]
    p0 = dg.classify_point(ctx.space, 1, (0.0,))
    exact = np.array_equal(ctx.glued_metric().gram_at(p0), np.diag([0.5, 0.5]))
    ok = ok and exact
    _announce(2, "glued pseudo-metric", ok,
              f"max symmetry residual {worst_sym:.2e}; cross locus Gram exact")


def _koszul_case(mode: str, tol: float) -> float:
    engine = dg.DiffEngine(dg.DiffConfig(mode))
    worst = 0.0
    line = dg.EuclideanBlock(1, lambda x: True, [(0.5,), (-0.5,)], "k1")
    g_line = dg.BlockMetric(line, ((lambda x: exp(-2.0 * x[0]),),))
    plane = dg.EuclideanBlock(2, lambda x: True, [(0.5, 0.5), (-0.5, -0.5)], "k2")
    g_plane = dg.BlockMetric(plane, ((lambda x: 1.0, lambda x: 0.0),
                                     (lambda x: 0.0,
                                      lambda x: 1.0 / (1.0 + x[0] ** 2))))
    cases = [(g_line, lambda x: np.full((1, 1, 1), 1.0)),
             (g_plane, None)]

    def plane_oracle(x):
        out = np.zeros((2, 2, 2))
        out[1][0][1] = out[1][1][0] = x[0] / (1.0 + x[0] ** 2)
        out[0][1][1] = -x[0]
        return out

    cases[1] = (g_plane, plane_oracle)
    for g, hand_oracle in cases:
        solved = cx.koszul_solve(g, engine)
        closed = cx.christoffel_closed_form(g, engine)
        d = g.block.dim
        for axis in range(d):
            for v in np.linspace(-1.5, 1.5, 16):
                x = [0.25] * d
                x[axis] = float(v)
                got = solved.gamma(x)
                worst = max(worst, float(np.max(np.abs(got - closed(x)))))
                worst = max(worst, float(np.max(np.abs(got - hand_oracle(x)))))
    assert worst <= tol, f"koszul residual {worst:.3e} in {mode}"
    return worst


def test_criterion_3_koszul_equals_christoffel():
    worst_dual = _koszul_case("forward_dual", 1e-10)
    worst_fd = _koszul_case("central_fd", 1e-6)
    _announce(3, "koszul = christoffel", True,
              f"dual {worst_dual:.2e} <= 1e-10, fd {worst_fd:.2e} <= 1e-6")


def test_criterion_4_leibniz(full_runs):
    r = full_runs["halfline_curved"]["leibniz"]
    # 5 functions x 8 sections = 40 pairs over all three regions
    ok = r.passed and r.max_residual <= 1e-6 and r.samples >= 40 * 3
    _announce(4, "leibniz for the glued connection", ok,
              f"max residual {r.max_residual:.2e} over {r.samples} samples")


def test_criterion_5_splitting_lemmas(full_runs):
    ok = True
    worst = 0.0
    for name in ("halfline_curved", "plane_axis_gluing", "cross_flat"):
        for suite in ("covderiv-split", "bracket-split"):
            r = full_runs[name][suite]
            ok = ok and r.passed and r.max_residual <= 1e-6
            worst = max(worst, r.max_residual)
    _announce(5, "splitting lemmas", ok, f"max residual {worst:.2e} <= 1e-6")


def test_criterion_6_levi_civita_inheritance(full_runs):
    ok = True
    worst = 0.0
    for name in ("halfline_curved", "plane_axis_gluing"):
        r = full_runs[name]["levi-civita-inheritance"]
        ok = ok and r.passed and r.max_residual <= 1e-6
        worst = max(worst, r.max_residual)
    _announce(6, "levi-civita inheritance", ok, f"max residual {worst:.2e} <= 1e-6")


def test_criterion_7_pairing_duality(contexts):
    rng = np.random.default_rng(17)
    worst = 0.0
    for name, ctx in contexts.items():
        G = ctx.glued_metric()
        for region, pts in ctx.space.region_samples().items():
            for p in pts[:6]:
                fib = compute_fibre(ctx.space, p)
                dual_gram = np.linalg.inv(G.gram_at(p, fib))
                for _ in range(3):
                    v = dg.FibreElement(fib, rng.uniform(-1, 1, fib.dim))
                    w = dg.FibreElement(fib, rng.uniform(-1, 1, fib.dim))
                    pv, pw = G.pairing_apply(p, v), G.pairing_apply(p, w)
                    worst = max(worst, abs(float(pv @ dual_gram @ pw)
                                           - G.eval(p, v, w)))
                    back = G.pairing_invert(p, pv, fib)
                    worst = max(worst, float(np.max(np.abs(back.components
                                                           - v.components))))
    _announce(7, "pairing duality", worst <= 1e-10, f"max residual {worst:.2e}")


def test_criterion_8_negative_controls(full_runs, tmp_path):
    import json

    from diffglue.cli import main

    ok = True
    details = []
    # no positive fixture fails any suite
    for name, results in full_runs.items():
        bad = [s for s, r in results.items() if not r.passed]
        if bad:
            ok = False
            details.append(f"{name} unexpectedly fails {bad}")
    # each failure fixture fails its designated suite with a witness,
    # checked end to end through the CLI report
    for name, designated in FAILURES.items():
        out = tmp_path / f"{name}.json"
        rc = main(["run", str(fixture_path(name)), "--report-out", str(out)])
        report = json.loads(out.read_text())
        by_name = {s["suite"]: s for s in report["suites"]}
        entry = by_name.get(designated)
        failed = (rc == 1 and entry is not None
                  and entry["status"] == "fail" and len(entry["witnesses"]) >= 1)
        if not failed:
            ok = False
            details.append(f"{name} did not fail {designated} with a witness")
        else:
            details.append(f"{name} fails {designated} with witness")
    _announce(8, "negative controls", ok, "; ".join(details))


def test_criterion_9_derivative_trust(contexts):
    worst = 0.0
    total = 0
    for name, ctx in contexts.items():
        report = derivative_trust_sweep(ctx)
        worst = max(worst, report["max_discrepancy"])
        total += report["samples"]
    _announce(9, "derivative trust", worst <= 1e-6,
              f"dual/fd max discrepancy {worst:.2e} over {total} points")


def test_derivative_trust_sweep_checks_block2_side_of_the_seam(contexts):
    # g2 has a kink half an fd step from f(0): only an fd stencil centred on
    # the block-2 side of the locus point straddles it
    ctx = contexts["cross_flat"]
    z0 = ctx.space.map_forward((0.0,))[0] + 0.5 * ctx.engine.config.fd_step
    kinked = dg.BlockMetric(ctx.space.block2, ((lambda z: 1.0 + abs(z[0] - z0),),))
    with pytest.raises(dg.ModesDisagree):
        derivative_trust_sweep(dataclasses.replace(ctx, g2=kinked))
