"""Seeded generator of the dimension-ladder scenarios.

Each rung is a positive scenario in dimension d: two identical copies of
R^d glued by the identity along the coordinate hyperplane x_{d-1} = 0 (the
origin when d = 1).  Both blocks carry the same polynomial Gram

    g_ii = 1 + sum_j c_ij x_j^2,    g_ij = e_ij (i != j, constant),

with c_ij in [0.1, 0.6] and |e_ij| <= 0.15 / (d - 1), so every row is
strictly diagonally dominant and the Gram is positive definite everywhere.
The x_{d-1} terms make the metric curved off the locus.  The seed fixes
the coefficients, the block seed points and the locus samples.

Per-sample cost grows with d (dual partial tuples of length d, d x d
generic inversions), which is what the ladder exists to expose.
"""

from __future__ import annotations

import copy

import numpy as np
import yaml

DIMS = (1, 2, 3, 4)
PER_AXIS = 6
# The full catalogue takes over ten seconds at d = 3 (the symmetry suite
# alone four) and far longer at d = 4.  These subsets keep the ladder to a
# few seconds a pass while still running the Koszul closure on every rung
# and metric compatibility of the glued connection on every rung below 4.
RUNG_SUITES = {
    1: ("koszul", "metric-compat"),
    2: ("koszul", "metric-compat"),
    3: ("koszul", "metric-compat"),
    4: ("koszul",),
}


def _key(exps) -> str:
    return ",".join(str(e) for e in exps)


def _round(v: float) -> float:
    return round(float(v), 3)


def ladder_scenario(d: int, seed: int) -> dict:
    """Scenario document for the rung of dimension ``d``."""
    if d not in RUNG_SUITES:
        raise ValueError(f"no ladder rung for dimension {d}")
    rng = np.random.default_rng([seed, d])
    entries = {}
    for i in range(d):
        diag = {_key([0] * d): 1.0}
        for j in range(d):
            exps = [0] * d
            exps[j] = 2
            diag[_key(exps)] = _round(rng.uniform(0.1, 0.6))
        entries[f"{i},{i}"] = diag
    off = 0.15 / max(d - 1, 1)
    for i in range(d):
        for j in range(i + 1, d):
            entries[f"{i},{j}"] = {_key([0] * d): _round(rng.uniform(-off, off))}
    seeds = []
    for _ in range(3):
        p = [_round(v) for v in rng.uniform(-1.5, 1.5, size=d)]
        # keep the grid base off the locus so its off-locus axis is sampled
        p[d - 1] = _round(np.sign(p[d - 1] or 1.0) * max(abs(p[d - 1]), 0.4))
        seeds.append(p)
    _keep_grid_off_locus(seeds, d)
    if d == 1:
        locus = {"kind": "point_set", "points": [[0.0]]}
    else:
        params = [[_round(v) for v in rng.uniform(-1.5, 1.5, size=d - 1)]
                  for _ in range(6)]
        locus = {"kind": "submanifold",
                 "chart": {"kind": "axis_embed", "axes": list(range(d - 1))},
                 "param_samples": params}
    block = {"dim": d, "domain": {"kind": "all"}, "seed_points": seeds}
    return {
        "name": f"ladder_d{d}",
        "space": {
            "block1": block,
            "block2": copy.deepcopy(block),
            "locus": locus,
            "map": {"kind": "identity"},
            "hypothesis_flags": {"pullback_equality_asserted": True,
                                 "omega_diffeology_equality_asserted": True},
        },
        "metrics": {"g1": {"entries": entries},
                    "g2": {"entries": copy.deepcopy(entries)}},
        "connections": {"kind": "levi_civita"},
        "diff": {"mode": "forward_dual", "fd_step": 1.0e-5},
        "samples": {"per_axis": PER_AXIS, "locus_count": 6, "probe_steps": 6,
                    "probe_ratio": 0.5, "seed": int(seed)},
        "suites": list(RUNG_SUITES[d]),
    }


def _keep_grid_off_locus(seeds, d):
    """Shift the seeds until no grid value on the normal axis is 0.

    The suites sample a per-axis grid spanning the seeds +- 1; a grid point
    on the hyperplane would move from the block samples to the locus and
    change the sample counts the outcome table fixes.
    """
    if d == 1:
        return
    while True:
        vals = [s[d - 1] for s in seeds]
        grid = np.linspace(min(vals) - 1.0, max(vals) + 1.0, PER_AXIS)
        if np.min(np.abs(grid)) > 1e-6:
            return
        seeds[0][d - 1] = _round(seeds[0][d - 1] + 0.01)


def ladder_yaml(d: int, seed: int) -> str:
    """YAML text of one rung; the same (d, seed) gives the same bytes."""
    return yaml.safe_dump(ladder_scenario(d, seed), sort_keys=True,
                          default_flow_style=None, width=100)
