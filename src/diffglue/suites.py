"""Sampled verification suites over a scenario context.

Each suite returns a :class:`SuiteResult` with a pass/fail status, the worst
residual seen, witness data for failures, and the number of sample
evaluations.  Construction failures (incompatible metrics or connections,
bad gluing data) surface as failed suites carrying the error as witness.
Suites register with :func:`suite`, which supplies the shared bookkeeping.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import connection as cx
from .errors import DiffglueError, IncompatiblePair
from .forms import (LambdaSection, assemble_section, compute_fibre,
                    coordinate_form, differential_glued, pair_residual,
                    relation_matrix, rho_pair_inverse)
from .metric import canonical_pair_elements, check_metrics_compatible
from .numerics import EPS_NUM, PD_FLOOR_REL, _primal
from .space import BLOCK1, BLOCK2, LOCUS


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


class Checks:
    """Worst residual, witnesses and sample count of one suite run."""

    def __init__(self, name: str):
        self.name = name
        self.worst = 0.0
        self.witnesses: list = []
        self.samples = 0

    def check(self, res: float, tol: float, samples: int = 1, **witness) -> None:
        """Track a residual over ``samples`` evaluations; above tol it fails."""
        self.worst = max(self.worst, res)
        self.samples += samples
        if res > tol:
            self.witnesses.append(witness)

    def expect(self, ok: bool, samples: int = 1, **witness) -> bool:
        """Count ``samples`` evaluations of a check without a residual."""
        self.samples += samples
        if not ok:
            self.witnesses.append(witness)
        return ok

    def fold(self, r, **context) -> None:
        """Fold in a library CompatResult; context wraps its witness."""
        self.worst = max(self.worst, r.max_residual)
        self.samples += r.samples
        if not r:
            self.witnesses.append(dict(context, witness=r.witness) if context
                                  else r.witness)

    def result(self, notes: str = "") -> SuiteResult:
        return SuiteResult(self.name, not self.witnesses, self.worst,
                           self.witnesses, self.samples, notes)


SUITES: dict = {}


def suite(name: str):
    """Register ``fn(ctx, checks)`` as suite ``name`` in ``SUITES``.

    The registered callable takes the context alone, hands ``fn`` a fresh
    :class:`Checks`, and turns a DiffglueError into a failed result.
    Registration order is the catalogue order.
    """
    def register(fn):
        @functools.wraps(fn)
        def run(ctx) -> SuiteResult:
            try:
                return fn(ctx, Checks(name))
            except DiffglueError as exc:
                return SuiteResult.failed(name, exc)

        SUITES[name] = run
        return run

    return register


def _sections(ctx) -> list:
    """Compatible glued sections for 'for all sections' style checks."""
    rng = np.random.default_rng(ctx.scenario.plan.seed)
    raw = cx.compatible_section_pairs(ctx.space, rng)
    return [assemble_section(ctx.space, s1, s2) for s1, s2 in raw]


def _section_pairs(sections: list, count: int = 6) -> list:
    pairs = list(zip(sections, sections[1:] + sections[:1]))
    return pairs[:count]


def _capped_samples(ctx, per_region: int = 4) -> dict:
    return {k: v[:per_region] for k, v in ctx.space.region_samples().items()}


def _points(ctx, per_region: int) -> list:
    capped = _capped_samples(ctx, per_region)
    return capped[BLOCK1] + capped[LOCUS] + capped[BLOCK2]


# -- suites ---------------------------------------------------------------


@suite("fibres")
def suite_fibres(ctx, out: Checks) -> SuiteResult:
    """Fibre dimensions, basis residuals, and projection round-trips."""
    space = ctx.space
    samples = space.region_samples()
    rng = np.random.default_rng(ctx.scenario.plan.seed)
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
            comp = rng.uniform(-1, 1, size=fib.dim)
            e = rho_pair_inverse(fib, fib.block1_part(comp), fib.block2_part(comp))
            res = float(np.max(np.abs(e.components - comp)))
            out.check(res, 100 * EPS_NUM, point=list(p.coords), rho_roundtrip=res)
    return out.result()


@suite("metric-gluing")
def suite_metric_gluing(ctx, out: Checks) -> SuiteResult:
    """Compatibility, glued Gram symmetry/positivity, restriction, probes."""
    space = ctx.space
    compat = check_metrics_compatible(space, ctx.g1, ctx.g2)
    out.fold(compat)
    if not compat:
        return out.result()
    G = ctx.glued_metric()
    samples = space.region_samples()
    for p in samples[BLOCK1]:
        res = float(np.max(np.abs(G.gram_at(p) - ctx.g1.gram(p.coords))))
        out.check(res, 0.0, point=list(p.coords), restriction_residual=res)
    for p in samples[LOCUS]:
        gram = G.gram_at(p)
        sym = float(np.max(np.abs(gram - gram.T)))
        eig = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        out.check(sym, 1e-12, point=list(p.coords), symmetry_residual=sym)
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
            out.check(res, 1e-9, point=list(p.coords), collapse_residual=res)
    # probe smoothness: scalar evaluations converge approaching the locus.
    # The probe section must itself satisfy the collapse property, so use
    # a pushforward-mirrored pair (mixing pairs on point loci jump by
    # construction and say nothing about the metric).
    if space.f.extends_globally:
        s1 = coordinate_form(space.block1, 0)
        s = assemble_section(space, s1, cx.pushforward_form(space, s1, ctx.engine))
    else:
        s = _sections(ctx)[0]
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
    return out.result()


@suite("koszul")
def suite_koszul(ctx, out: Checks) -> SuiteResult:
    """Koszul assembly equals the closed-form Christoffel oracle; uniqueness."""
    tol = ctx.engine.config.suite_tol
    rng = np.random.default_rng(ctx.scenario.plan.seed + 1)
    for which, g in ((1, ctx.g1), (2, ctx.g2)):
        solved = cx.koszul_solve(g, ctx.engine)
        oracle = cx.christoffel_closed_form(g, ctx.engine)
        grid = ctx.space.block_grid(which)
        for x in grid:
            res = float(np.max(np.abs(solved.gamma(x) - oracle(list(x)))))
            out.check(res, tol, block=which, point=list(x), residual=res)
        # uniqueness spot check: perturbing the output breaks symmetry
        # or metric compatibility
        pts = grid[:4]
        fam = cx.block_form_family(g.block, rng, extra=2)
        pairs = list(zip(fam, fam[1:]))[:3]
        perturbed = cx.perturb_connection(solved, rng)
        sym_ok = _block_symmetric(perturbed, g, pairs, pts, ctx, tol=1e-4)
        comp_ok = cx.check_metric_compatible_block(perturbed, g, pairs, pts,
                                                   ctx.engine, tol=1e-4)
        out.expect(not (sym_ok and comp_ok), block=which,
                   detail="perturbed connection still passes")
    return out.result()


def _block_symmetric(C, g, pairs, points, ctx, tol) -> bool:
    for s, r in pairs:
        t_field = cx.torsion_block(C, g, s, r, ctx.engine)
        for x in points:
            if float(np.max(np.abs(t_field.at(x)))) > tol:
                return False
    return True


@suite("leibniz")
def suite_leibniz(ctx, out: Checks) -> SuiteResult:
    """Leibniz rule for the glued connection over the spanning family."""
    space = ctx.space
    C = ctx.glued_connection()
    tol = ctx.engine.config.suite_tol
    rng = np.random.default_rng(ctx.scenario.plan.seed + 2)
    sections = _sections(ctx)[:8]
    functions = cx.glued_function_family(space, rng, count=5)
    points = _points(ctx, per_region=4)
    for h in functions:
        for s in sections:
            hs = LambdaSection(space, s.s1.scaled(h.h1), s.s2.scaled(h.h2))
            lhs = C.apply(hs)
            rhs_tensor = C.apply(s)
            dh = differential_glued(space, h, ctx.engine)
            for p in points:
                lv = lhs.at(p)
                rv = rhs_tensor.at(p)
                res = 0.0
                if p.region in (BLOCK1, LOCUS):
                    x = p.coords
                    expect = np.outer(dh.s1.at(x), s.s1.at(x)) \
                        + float(_primal(h.h1(list(x)))) * rv.m1
                    res = max(res, float(np.max(np.abs(lv.m1 - expect))))
                if p.region in (BLOCK2, LOCUS):
                    x = p.coords2 if p.region == LOCUS else p.coords
                    expect = np.outer(dh.s2.at(x), s.s2.at(x)) \
                        + float(_primal(h.h2(list(x)))) * rv.m2
                    res = max(res, float(np.max(np.abs(lv.m2 - expect))))
                out.check(res, tol, point=list(p.coords), region=p.region, residual=res)
    # additivity control
    s, r = sections[0], sections[1]
    add_lhs = C.apply(s + r)
    add_s, add_r = C.apply(s), C.apply(r)
    for p in points[:6]:
        lv, sv, rv = add_lhs.at(p), add_s.at(p), add_r.at(p)
        for a, b, c in ((lv.m1, sv.m1, rv.m1), (lv.m2, sv.m2, rv.m2)):
            if a is None:
                continue
            res = float(np.max(np.abs(a - b - c)))
            out.check(res, tol, point=list(p.coords), additivity=res)
    return out.result()


@suite("symmetry")
def suite_symmetry(ctx, out: Checks) -> SuiteResult:
    """Torsion of the glued connection vanishes over sampled section pairs."""
    C = ctx.glued_connection()
    pairs = _section_pairs(_sections(ctx))
    points = _points(ctx, per_region=4)
    out.fold(cx.check_symmetric(C, pairs, points, ctx.engine.config.suite_tol,
                                ctx.engine))
    return out.result()


@suite("metric-compat")
def suite_metric_compat(ctx, out: Checks) -> SuiteResult:
    """Glued connection compatible with the glued metric."""
    C = ctx.glued_connection()
    pairs = _section_pairs(_sections(ctx))
    out.fold(cx.check_metric_compatible_glued(C, pairs, _capped_samples(ctx),
                                              ctx.engine.config.suite_tol, ctx.engine))
    return out.result()


@suite("bracket-split")
def suite_bracket_split(ctx, out: Checks) -> SuiteResult:
    """Glued bracket: action-composition route equals the case formula."""
    G = ctx.glued_metric()
    tol = ctx.engine.config.split_tol
    rng = np.random.default_rng(ctx.scenario.plan.seed + 3)
    sections = _sections(ctx)[:5]
    pairs = _section_pairs(sections, count=4)
    points = _points(ctx, per_region=3)
    probes = cx.glued_function_family(ctx.space, rng, count=5)
    for s, r in pairs:
        formula = cx.lie_bracket_forms(G, s, r, ctx.engine)
        for p in points:
            res = _bracket_direct_residual(ctx, G, s, r, formula, p, probes)
            out.check(res, tol, point=list(p.coords), region=p.region, residual=res)
    return out.result()


def _bracket_direct_residual(ctx, G, s, r, formula, point, probes) -> float:
    """Direct [Phi s, Phi r] via nested actions, compared with the formula."""
    space = ctx.space
    eng = ctx.engine
    t = cx.phi_glued(G, s)
    u = cx.phi_glued(G, r)

    def nested(block_idx, h1, h2, x):
        if block_idx == 1:
            inner = cx.action_block(u.t1, h1, eng, space.block1)
            outer_t = cx.action_block(t.t1, inner, eng, space.block1)
            inner2 = cx.action_block(t.t1, h1, eng, space.block1)
            outer_u = cx.action_block(u.t1, inner2, eng, space.block1)
        else:
            inner = cx.action_block(u.t2, h2, eng, space.block2)
            outer_t = cx.action_block(t.t2, inner, eng, space.block2)
            inner2 = cx.action_block(t.t2, h2, eng, space.block2)
            outer_u = cx.action_block(u.t2, inner2, eng, space.block2)
        return float(_primal(outer_t(list(x)))) - float(_primal(outer_u(list(x))))

    if point.region == BLOCK1:
        # components against the coordinate frame via coordinate functions
        direct = np.array([nested(1, (lambda xx, a=a: xx[a]), None, point.coords)
                           for a in range(space.block1.dim)])
        target = ctx.g1.gram(point.coords) @ formula.s1.at(point.coords)
        return float(np.max(np.abs(direct - target)))
    if point.region == BLOCK2:
        direct = np.array([nested(2, None, (lambda xx, a=a: xx[a]), point.coords)
                           for a in range(space.block2.dim)])
        target = ctx.g2.gram(point.coords) @ formula.s2.at(point.coords)
        return float(np.max(np.abs(direct - target)))
    # locus: recover the dual functional on the compatible fibre from the
    # half-weighted bracket action on probe functions
    fibre = compute_fibre(space, point)
    rows, vals = [], []
    for h in probes:
        dh1 = eng.gradient_array(h.h1, list(point.coords),
                                 within=space.block1.contains)
        dh2 = eng.gradient_array(h.h2, list(point.coords2),
                                 within=space.block2.contains)
        comps, res = pair_residual(fibre, dh1, dh2)
        if res > 1e-7 * (1.0 + float(np.max(np.abs(comps)))):
            continue
        measured = 0.5 * nested(1, h.h1, h.h2, point.coords) \
            + 0.5 * nested(2, h.h1, h.h2, point.coords2)
        rows.append(comps)
        vals.append(measured)
    if len(rows) < fibre.dim:
        return float("inf")
    A = np.asarray(rows)
    b = np.asarray(vals)
    phi_direct, *_ = np.linalg.lstsq(A, b, rcond=None)
    lsq_res = float(np.max(np.abs(A @ phi_direct - b)))
    e = formula.at(point)
    phi_formula = G.gram_at(point, fibre) @ e.components
    return max(float(np.max(np.abs(phi_direct - phi_formula))), lsq_res)




@suite("covderiv-split")
def suite_covderiv_split(ctx, out: Checks) -> SuiteResult:
    """Covariant derivative: direct tensor contraction equals the case formula."""
    C = ctx.glued_connection()
    G = ctx.glued_metric()
    tol = ctx.engine.config.split_tol
    sections = _sections(ctx)[:6]
    pairs = _section_pairs(sections, count=4)
    points = _points(ctx, per_region=4)
    for sdir, s in pairs:
        t = cx.phi_glued(G, sdir)
        lemma = cx.covariant_derivative(C, t, s, ctx.engine)
        for p in points:
            direct = cx.covariant_via_tensor(C, t, s, p, ctx.engine)
            res = float(np.max(np.abs(direct.components - lemma.at(p).components)))
            out.check(res, tol, point=list(p.coords), region=p.region, residual=res)
    return out.result()


@suite("torsion-split")
def suite_torsion_split(ctx, out: Checks) -> SuiteResult:
    """Torsion splitting over the locus: unweighted block pair, not half."""
    space = ctx.space
    C = ctx.glued_connection()
    tol = ctx.engine.config.split_tol
    pairs = _section_pairs(_sections(ctx)[:5], count=3)
    samples = space.region_samples()
    half_gap = 0.0
    for s, r in pairs:
        glued_t = cx.torsion(C, s, r, ctx.engine)
        t1 = cx.torsion_block(C.nabla1, ctx.g1, s.s1, r.s1, ctx.engine)
        t2 = cx.torsion_block(C.nabla2, ctx.g2, s.s2, r.s2, ctx.engine)
        for region, t_block in ((BLOCK1, t1), (BLOCK2, t2)):
            for p in samples[region][:4]:
                res = float(np.max(np.abs(glued_t.at(p).components - t_block.at(p.coords))))
                out.check(res, tol, point=list(p.coords), region=region, residual=res)
        for p in samples[LOCUS]:
            fibre = compute_fibre(space, p)
            value = glued_t.at(p)
            a, b = t1.at(p.coords), t2.at(p.coords2)
            unweighted = rho_pair_inverse(fibre, a, b)
            res = float(np.max(np.abs(value.components - unweighted.components)))
            if float(np.max(np.abs(value.components))) > 10 * tol:
                try:
                    halved = rho_pair_inverse(fibre, 0.5 * a, 0.5 * b)
                    half_gap = max(half_gap, float(np.max(np.abs(
                        value.components - halved.components))))
                except IncompatiblePair:
                    half_gap = float("inf")
            out.check(res, tol, point=list(p.coords), region=LOCUS, residual=res)
    return out.result(
        "definition matches the unweighted splitting"
        + (f"; half-weighted splitting differs by {half_gap:.3e}"
           if half_gap > 0 else "; factor torsions vanish here, the "
           "half-weighted variant is indistinguishable"))


@suite("levi-civita-inheritance")
def suite_levi_civita_inheritance(ctx, out: Checks) -> SuiteResult:
    """Koszul factors glue to the Levi-Civita connection of the glued metric."""
    space = ctx.space
    G = ctx.glued_metric()
    tol = 1e-6
    n1 = cx.koszul_solve(ctx.g1, ctx.engine)
    n2 = cx.koszul_solve(ctx.g2, ctx.engine)
    rng = np.random.default_rng(ctx.scenario.plan.seed + 4)
    # factor-level gates
    for which, (nb, g) in ((1, (n1, ctx.g1)), (2, (n2, ctx.g2))):
        fam = cx.block_form_family(g.block, rng, extra=2)
        pairs = list(zip(fam, fam[1:]))[:3]
        pts = space.block_grid(which)[:6]
        out.expect(_block_symmetric(nb, g, pairs, pts, ctx, tol), samples=0,
                   block=which, detail="factor not symmetric")
        comp = cx.check_metric_compatible_block(nb, g, pairs, pts, ctx.engine, tol)
        out.expect(bool(comp), samples=0, block=which, detail="factor not compatible",
                   witness=comp.witness)
    C = cx.glue_connections(space, G, n1, n2, ctx.engine)
    pairs = _section_pairs(_sections(ctx))
    points = _points(ctx, per_region=4)
    sym = cx.check_symmetric(C, pairs, points, tol, ctx.engine)
    comp = cx.check_metric_compatible_glued(C, pairs, _capped_samples(ctx), tol, ctx.engine)
    out.fold(sym, detail="glued connection not symmetric")
    out.fold(comp, detail="glued connection not metric-compatible")
    return out.result()


def derivative_trust_sweep(ctx) -> dict:
    """fd_cross_check self-diagnostic over the scenario's fields and samples.

    Sweeps metric entries over all region samples; returns the worst
    dual/fd discrepancy and raises ModesDisagree on failure.
    """
    space = ctx.space
    worst = 0.0
    count = 0
    fields1 = [ctx.g1.entries[i][j] for i in range(space.block1.dim)
               for j in range(space.block1.dim)]
    fields2 = [ctx.g2.entries[i][j] for i in range(space.block2.dim)
               for j in range(space.block2.dim)]
    samples = space.region_samples()
    for p in samples[BLOCK1] + samples[LOCUS]:
        for f in fields1:
            rep = ctx.engine.fd_cross_check(f, list(p.coords),
                                            within=space.block1.contains)
            worst = max(worst, rep.max_discrepancy)
            count += 1
    for p in samples[BLOCK2]:
        for f in fields2:
            rep = ctx.engine.fd_cross_check(f, list(p.coords),
                                            within=space.block2.contains)
            worst = max(worst, rep.max_discrepancy)
            count += 1
    return {"max_discrepancy": worst, "samples": count, "status": "pass"}
