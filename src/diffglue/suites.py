"""Sampled verification suites over a scenario context.

Each suite returns a :class:`SuiteResult` with a pass/fail status, the worst
residual seen, witness data for failures, and the number of sample
evaluations.  Construction failures (incompatible metrics or connections,
bad gluing data) surface as failed suites carrying the error as witness.
Suites register with :func:`suite`, which hands each body a fresh
:class:`~diffglue.forms.Checks` and builds the result from it; every pass
bound is a row of the tolerance table, read through ``DiffConfig.tol``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import connection as cx
from .errors import DiffglueError, IncompatiblePair
from .forms import (Checks, FibreElement, GluedFunction, assemble_section,
                    compute_fibre, coordinate_form, differential_glued,
                    pair_residual, relation_matrix, rho1, rho2, rho_pair_inverse,
                    section_element)
from .metric import canonical_pair_elements, check_metrics_compatible
from .numerics import (EPS_NUM, OVER_POINTS_ERRORS, PD_FLOOR_REL, coordinate_arrays,
                       float_semantics, nan_first)
from .space import BLOCK1, BLOCK2, LOCUS, seam_mean


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    max_residual: float = 0.0
    witnesses: list = field(default_factory=list)
    samples: int = 0
    notes: str = ""

    def to_dict(self) -> dict:
        return {"suite": self.suite,
                "status": "pass" if self.passed else "fail",
                "max_residual": float(self.max_residual),
                "witnesses": self.witnesses,
                "samples": int(self.samples),
                "notes": self.notes}

    @classmethod
    def failed(cls, name: str, exc: DiffglueError) -> "SuiteResult":
        """A suite that could not run: the error is its witness."""
        return cls(name, False, float("inf"),
                   [{"error": type(exc).__name__, "detail": str(exc)}], 0)


SUITES: dict = {}


def suite(name: str):
    """Register ``fn(ctx, checks)`` as suite ``name`` in ``SUITES``.

    The registered callable takes the context alone, hands ``fn`` a fresh
    :class:`Checks`, builds the result from it (``fn`` may return notes)
    and turns a DiffglueError into a failed result.  Registration order is
    the catalogue order.
    """
    def register(fn):
        @functools.wraps(fn)
        def run(ctx) -> SuiteResult:
            out = Checks()
            try:
                notes = fn(ctx, out)
            except DiffglueError as exc:
                return SuiteResult.failed(name, exc)
            return SuiteResult(name, not out.witnesses, out.worst, out.witnesses,
                               out.samples, notes or "")

        SUITES[name] = run
        return run

    return register


def _section_pairs(ctx, count: int = 6) -> list:
    """The first ``count`` consecutive pairs of the run's section family."""
    family = ctx.sections
    return list(zip(family, family[1:]))[:count]


def _points(ctx, per_block, per_locus) -> tuple:
    """Block-1, locus, then block-2 sample points: at most ``per_block`` of
    each block's and ``per_locus`` of the locus's (all of them for None)."""
    samples = ctx.space.region_samples()
    return samples[BLOCK1][:per_block] + samples[LOCUS][:per_locus] \
        + samples[BLOCK2][:per_block]


# -- suites ---------------------------------------------------------------


@suite("fibres")
def suite_fibres(ctx, out: Checks) -> None:
    """Fibre dimensions, basis residuals, and projection round-trips."""
    space = ctx.space
    samples = space.region_samples()
    rng = np.random.default_rng(ctx.space.plan.seed)
    for region, dim in ((BLOCK1, space.block1.dim), (BLOCK2, space.block2.dim)):
        for p in samples[region]:
            fib = compute_fibre(space, p)
            out.expect(fib.dim == dim, point=list(p.coords), expected_dim=dim, got=fib.dim)
    for p in samples[LOCUS]:
        fib = compute_fibre(space, p)
        # independent dimension oracle: nullity of the relation matrix
        rel = relation_matrix(space, p.coords)
        expected = (space.block1.dim + space.block2.dim) \
            - (int(np.linalg.matrix_rank(rel)) if rel.size else 0)
        if not out.expect(fib.dim == expected, point=list(p.coords),
                          expected_dim=expected, got=fib.dim):
            continue
        if rel.size:
            res = float(np.max(np.abs(rel @ fib.basis.T)))
            out.check(res, EPS_NUM, samples=0, point=list(p.coords),
                      basis_relation_residual=res)
        # rho round-trip on random elements
        for _ in range(3):
            e = FibreElement(fib, rng.uniform(-1, 1, size=fib.dim))
            back = rho_pair_inverse(fib, rho1(e), rho2(e))
            res = float(np.max(np.abs(back.components - e.components)))
            out.check(res, ctx.engine.config.tol("round-trip"), point=list(p.coords),
                      rho_roundtrip=res)


@suite("metric-gluing")
def suite_metric_gluing(ctx, out: Checks) -> None:
    """Compatibility, glued Gram symmetry/positivity, restriction, probes."""
    space = ctx.space
    tol = ctx.engine.config.tol
    compat = check_metrics_compatible(space, ctx.g1, ctx.g2)
    out.fold(compat)
    if not compat:
        return
    G = ctx.glued_metric()
    samples = space.region_samples()
    for p in samples[BLOCK1]:
        res = float(np.max(np.abs(G.gram_at(p) - ctx.g1.gram(p.coords))))
        out.check(res, 0.0, point=list(p.coords), restriction_residual=res)
    for p in samples[LOCUS]:
        gram = G.gram_at(p)
        sym = float(np.max(np.abs(gram - gram.T)))
        eig = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        out.check(sym, tol("gram-symmetry"), point=list(p.coords), symmetry_residual=sym)
        out.expect(eig[0] > PD_FLOOR_REL * max(eig[-1], 1.0), samples=0,
                   point=list(p.coords), min_eigenvalue=float(eig[0]))
        # collapse: half-weighted value equals either single evaluation
        fib = compute_fibre(space, p)
        for a, b in canonical_pair_elements(space, ctx.g1, ctx.g2, fib):
            e = rho_pair_inverse(fib, a, b)
            glued = G.eval(p, e, e)
            left = float(a @ ctx.g1.gram(p.coords) @ a)
            right = float(b @ ctx.g2.gram(p.coords2) @ b)
            res = max(abs(glued - left), abs(glued - right)) / (1.0 + abs(glued))
            out.check(res, tol("collapse"), point=list(p.coords), collapse_residual=res)
    # probe smoothness: scalar evaluations converge approaching the locus.
    # The probe section must itself satisfy the collapse property, so use
    # a pushforward-mirrored pair (mixing pairs on point loci jump by
    # construction and say nothing about the metric).
    s1 = coordinate_form(space.block1, 0)
    s = assemble_section(space, s1, cx.pushforward_form(space, s1))
    for target, seq in space.probe_sequences():
        vals = []
        for q in seq:
            e = s.at(q)
            vals.append(G.eval(q, e, e))
        et = s.at(target)
        limit = G.eval(target, et, et)
        resid = [abs(v - limit) for v in vals]
        ratios = [b / a for a, b in zip(resid, resid[1:]) if a > 1e-14]
        stalls = resid[-1] > 1e-9 and bool(ratios) and float(np.median(ratios)) > 0.75
        out.expect(not stalls, samples=len(vals), point=list(target.coords),
                   probe_residuals=resid, detail="no convergence approaching locus")


@suite("koszul")
def suite_koszul(ctx, out: Checks) -> None:
    """Koszul assembly equals the closed-form Christoffel oracle; uniqueness."""
    tol = ctx.engine.config.tol("suite")
    spot_tol = ctx.engine.config.tol("uniqueness")
    rng = np.random.default_rng(ctx.space.plan.seed + 1)
    for which, g in ((1, ctx.g1), (2, ctx.g2)):
        solved = ctx.koszul(which)
        oracle = cx.christoffel_closed_form(g, ctx.engine)
        grid = ctx.space.block_grid(which)
        try:
            expected = oracle(coordinate_arrays(grid)) if grid else ()
        except OVER_POINTS_ERRORS:
            expected = None   # point by point, so an error is the first failing point's
        for k, x in enumerate(grid):
            gamma = solved.gamma(x)
            want = oracle(list(x)) if expected is None else expected[k]
            res = float(np.max(np.abs(gamma - want)))
            out.check(res, tol, block=which, point=list(x), residual=res)
        # uniqueness spot check: perturbing the output breaks symmetry
        # or metric compatibility
        pts = grid[:4]
        fam = list(islice(cx.block_form_family(g.block, rng), 4))
        pairs = list(zip(fam, fam[1:]))
        perturbed = cx.perturb_connection(solved, rng)
        out.expect(not (cx.check_metric_compatible_block(perturbed, g, pairs, pts, ctx.store,
                                                         spot_tol)
                        and _block_symmetric(perturbed, g, pairs, pts, ctx.store, spot_tol)),
                   block=which, detail="perturbed connection still passes")


def _block_symmetric(C, g, pairs, points, store, tol) -> bool:
    """Whether the torsion of C stays within ``tol`` on every pair at every
    point; its values are ``store`` entries, which the gate's compatibility
    check shares."""
    for s, r in pairs:
        for x in points:
            if not float(np.max(np.abs(store.torsion(C, g, s, r, tuple(x))))) <= tol:
                return False
    return True


@suite("leibniz")
def suite_leibniz(ctx, out: Checks) -> None:
    """Leibniz rule for the glued connection over the spanning family."""
    space = ctx.space
    store = ctx.store
    C = ctx.glued_connection()
    nablas, blocks = (C.nabla1, C.nabla2), (space.block1, space.block2)
    tol = ctx.engine.config.tol("suite")
    sections = ctx.sections[:8]
    points = _points(ctx, 4, 4)
    # nabla s, s and dh at each point side come from the run's store, and
    # each nabla(h s) from the stored probes of h and s: no field is probed twice
    applied = [[C.tensor_pair(s, p) for p in points] for s in sections]
    s_values = [[[store.at((s.s1, s.s2)[w - 1], x) for w, x in p.sides] for p in points]
                for s in sections]
    for h in ctx.functions:
        dh_values = [[store.gradient((h.h1, h.h2)[w - 1], x, blocks[w - 1].contains)
                      for w, x in p.sides] for p in points]
        h_values = [h.side_values(p) for p in points]
        for s, nabla_s, s_at in zip(sections, applied, s_values):
            for p, rhs, s_p, dh_p, h_p in zip(points, nabla_s, s_at, dh_values, h_values):
                lhs = cx.tensor_pair_gate(space, p, [store.scaled_tensor(
                    nablas[w - 1], (h.h1, h.h2)[w - 1], (s.s1, s.s2)[w - 1], x) for w, x in p.sides])
                res = 0.0
                for lm, rm, s_x, dh_x, h_x in zip(lhs, rhs, s_p, dh_p, h_p):
                    expect = np.outer(dh_x, s_x) + h_x * rm
                    res = max(res, float(np.max(np.abs(lm - expect))), key=nan_first)
                out.check(res, tol, point=list(p.coords), region=p.region, residual=res)
    # additivity control
    added = sections[0] + sections[1]
    for p, add_s, add_r in zip(points[:6], applied[0], applied[1]):
        for a, b, c in zip(C.tensor_pair(added, p), add_s, add_r):
            res = float(np.max(np.abs(a - b - c)))
            out.check(res, tol, point=list(p.coords), additivity=res)


@suite("symmetry")
def suite_symmetry(ctx, out: Checks) -> None:
    """Torsion of the glued connection vanishes over sampled section pairs."""
    C = ctx.glued_connection()
    pairs = _section_pairs(ctx)
    points = _points(ctx, 4, 4)
    out.fold(cx.check_symmetric(C, pairs, points, ctx.engine.config.tol("suite")))


@suite("metric-compat")
def suite_metric_compat(ctx, out: Checks) -> None:
    """Glued connection compatible with the glued metric."""
    C = ctx.glued_connection()
    pairs = _section_pairs(ctx)
    out.fold(cx.check_metric_compatible_glued(C, pairs, _points(ctx, 4, 4),
                                              ctx.engine.config.tol("suite")))


@suite("bracket-split")
def suite_bracket_split(ctx, out: Checks) -> None:
    """Glued bracket: action-composition route equals the case formula."""
    G = ctx.glued_metric()
    tol = ctx.engine.config.tol("split")
    pairs = _section_pairs(ctx, count=4)
    points = _points(ctx, 3, 3)
    probes = [(h, differential_glued(ctx.space, h)) for h in ctx.functions]
    for s, r in pairs:
        for p in points:
            res = _bracket_direct_residual(ctx, G, s, r, p, probes)
            out.check(res, tol, point=list(p.coords), region=p.region, residual=res)


def _bracket_action(t, u, h, point) -> float:
    """[t, u](h) at a point: t(u(h)) - u(t(h)) side by side, then the seam mean."""
    tu = cx.action(t, cx.action(u, h)).side_values(point)
    ut = cx.action(u, cx.action(t, h)).side_values(point)
    return seam_mean([a - b for a, b in zip(tu, ut)])


def _bracket_direct_residual(ctx, G, s, r, point, probes) -> float:
    """Direct [Phi s, Phi r] via glued actions, compared with the case
    formula's block brackets from the run's point store; ``probes`` pairs
    each glued probe function with its differential."""
    space = ctx.space
    store = ctx.store
    metrics = (G.g1, G.g2)
    t = cx.phi_glued(G, s)
    u = cx.phi_glued(G, r)

    def formula(w, x):
        return store.bracket(metrics[w - 1], (s.s1, s.s2)[w - 1], (r.s1, r.s2)[w - 1], x)

    if point.region != LOCUS:
        # components against the coordinate frame via coordinate functions
        (w, x), = point.sides
        hs = [lambda xx, a=a: xx[a] for a in range(len(x))]
        direct = np.array([_bracket_action(t, u, GluedFunction(space, h, h), point)
                           for h in hs])
        target = store.gram(metrics[w - 1], x) @ formula(w, x)
        return float(np.max(np.abs(direct - target)))
    # locus: recover the dual functional on the compatible fibre from the
    # half-weighted bracket action on probe functions
    fibre = compute_fibre(space, point)
    rows, vals = [], []
    for h, dh in probes:
        comps, res = pair_residual(fibre, *dh.side_values(point))
        if res > ctx.engine.config.tol("probe-fibre") * (1.0 + float(np.max(np.abs(comps)))):
            continue
        measured = _bracket_action(t, u, h, point)
        rows.append(comps)
        vals.append(measured)
    if len(rows) < fibre.dim:
        return float("inf")
    A = np.asarray(rows)
    b = np.asarray(vals)
    phi_direct, *_ = np.linalg.lstsq(A, b, rcond=None)
    lsq_res = float(np.max(np.abs(A @ phi_direct - b)))
    e = section_element(fibre, [formula(w, x) for w, x in point.sides], ctx.engine)
    phi_formula = G.gram_at(point, fibre) @ e.components
    return max(float(np.max(np.abs(phi_direct - phi_formula))), lsq_res)


@suite("covderiv-split")
def suite_covderiv_split(ctx, out: Checks) -> None:
    """Covariant derivative along phi(s_dir): the point store's glued value,
    through the gated tensor pair, equals the complex-step oracle's."""
    C = ctx.glued_connection()
    tol = ctx.engine.config.tol("split")
    pairs = _section_pairs(ctx, count=4)
    points = _points(ctx, 4, 4)
    for sdir, s in pairs:
        for p in points:
            value = C.covariant(sdir, s, p)
            oracle = cx.oracle_element(C, p, cx.oracle_covariant, sdir, s)
            res = float(np.max(np.abs(value.components - oracle.components)))
            out.check(res, tol, point=list(p.coords), region=p.region, residual=res)


@suite("torsion-split")
def suite_torsion_split(ctx, out: Checks) -> str:
    """Torsion splitting over the locus: the unweighted block pair, not half,
    of the point store's torsions equals the complex-step oracle's."""
    C = ctx.glued_connection()
    tol = ctx.engine.config.tol("split")
    # from dimension 3 up the family starts with coordinate forms, whose
    # Jacobians are symmetric: the window starts where it holds x_1 dx_0
    start = max(ctx.space.block1.dim - 2, 0)
    pairs = _section_pairs(ctx, count=start + 3)[start:]
    half_gap = 0.0
    for s, r in pairs:
        for p in _points(ctx, 4, None):
            value = C.torsion(s, r, p)
            expect = cx.oracle_element(C, p, cx.oracle_torsion, s, r).components
            if p.region == LOCUS and float(np.max(np.abs(value.components))) > 10 * tol:
                a, b = (C.store.torsion(*C.block_args(w, s, r), x) for w, x in p.sides)
                try:
                    halved = rho_pair_inverse(value.fibre, 0.5 * a, 0.5 * b)
                    half_gap = max(half_gap, float(np.max(np.abs(
                        value.components - halved.components))))
                except IncompatiblePair:
                    half_gap = float("inf")
            res = float(np.max(np.abs(value.components - expect)))
            out.check(res, tol, point=list(p.coords), region=p.region, residual=res)
    return ("definition matches the unweighted splitting"
            + (f"; half-weighted splitting differs by {half_gap:.3e}"
               if half_gap > 0 else "; factor torsions vanish here, the "
               "half-weighted variant is indistinguishable"))


@suite("levi-civita-inheritance")
def suite_levi_civita_inheritance(ctx, out: Checks) -> None:
    """Koszul factors glue to the Levi-Civita connection of the glued metric."""
    ctx.glued_metric()   # the metric gate comes first
    tol = ctx.engine.config.tol("inheritance")
    # the Koszul factors, not the scenario's connections (they may differ)
    C = ctx.glued_connection(ctx.koszul(1), ctx.koszul(2))
    pairs = _section_pairs(ctx)
    points = _points(ctx, 4, 4)
    sym = cx.check_symmetric(C, pairs, points, tol)
    comp = cx.check_metric_compatible_glued(C, pairs, points, tol)
    out.fold(sym, detail="glued connection not symmetric")
    out.fold(comp, detail="glued connection not metric-compatible")


def derivative_trust_sweep(ctx) -> dict:
    """fd_cross_check self-diagnostic over the scenario's fields and samples.

    Sweeps metric entries over every side of every region sample (both
    block metrics at a locus point); returns the worst dual/fd discrepancy
    and raises ModesDisagree on failure.  Each block side is checked in one
    cross-check of its flattened Gram over all of its points, and the
    per-entry checks are then read in sample order.  When that pass raises,
    the samples are checked point by point in sample order instead, so an
    error raised is the first failing entry's.
    """
    space, engine = ctx.space, ctx.engine
    points = _points(ctx, None, None)
    sides, order = {1: [], 2: []}, []    # order: (side, index on it) in sample order
    for p in points:
        for w, x in p.sides:
            order.append((w, len(sides[w])))
            sides[w].append(x)

    def cross_check(w, coords):
        g, block = (ctx.g1, ctx.g2)[w - 1], (space.block1, space.block2)[w - 1]
        return engine.fd_cross_check(lambda x: [f(x) for row in g.entries for f in row],
                                     coords, within=block.contains)

    try:
        with float_semantics():
            reports = {w: cross_check(w, coordinate_arrays(xs)) for w, xs in sides.items() if xs}
        checks = [(reports[w].max_discrepancy[:, k], reports[w].threshold[:, k])
                  for w, k in order]
    except OVER_POINTS_ERRORS:
        # point by point in sample order, so an error is the first failing entry's
        checks = [(rep.max_discrepancy[:, 0], rep.threshold[:, 0])
                  for rep in (cross_check(w, list(x)) for p in points for w, x in p.sides)]
    out = Checks()
    for disc, bound in checks:
        for res, tol in zip(disc.tolist(), bound.tolist()):
            out.check(res, tol)
    return {"max_discrepancy": out.worst, "samples": out.samples, "status": "pass"}
