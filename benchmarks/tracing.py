"""Per-layer tracing of the diffglue package from outside it.

``Tracer.install`` wraps the public entry points of each package module
and patches every name under which the package looks an entry point up:
the defining module, every other ``diffglue`` module that imported it by
name, the ``suites.SUITES`` registry, and class attributes for methods.
Each wrapper keeps a stack frame so a call's self time is its duration
minus the time of the wrapped calls made inside it.

Spans (id, parent id, request id, name, start, end) are kept in memory
for the coarse layers and written out by ``write_spans``.  The hot
numeric entry points (gradients, generic inversion, polynomial
evaluation, block Grams) are aggregated only: a span per call would hold
millions of records per pass.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute or Class.method, metric name, keeps spans)
ENTRY_POINTS = (
    ("scenario", "load_scenario", "scenario.load_scenario", True),
    ("scenario", "build_context", "scenario.build_context", True),
    ("suites", "derivative_trust_sweep", "suites.derivative_trust_sweep", True),
    ("connection", "koszul_solve", "connection.koszul_solve", True),
    ("connection", "glue_connections", "connection.glue_connections", True),
    ("connection", "pushforward_form", "connection.pushforward_form", True),
    ("numerics", "invert_matrix_generic", "numerics.invert_matrix_generic", False),
    ("numerics", "DiffEngine.gradient", "numerics.gradient", False),
    ("numerics", "DiffEngine.fd_cross_check", "numerics.fd_cross_check", False),
    ("fields", "PolyField.__call__", "fields.poly_eval", False),
    ("forms", "compute_fibre", "forms.compute_fibre", True),
    ("space", "classify_point", "space.classify_point", True),
    ("space", "GluedSpace.region_samples", "space.region_samples", True),
    ("metric", "BlockMetric.gram", "metric.gram", False),
    ("metric", "GluedMetric.gram_at", "metric.gram_at", True),
)
MAX_SPANS = 200_000


def _has_dual(values, dual_type) -> bool:
    for v in values:
        if isinstance(v, dual_type):
            return True
        if isinstance(v, (list, tuple)) and _has_dual(v, dual_type):
            return True
    return False


class Tracer:
    """Call counts, inclusive and self time, counters and spans per name."""

    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.float_points = set()
        self.spans = []
        self.dropped_spans = 0
        self.request = 0
        self._stack = []        # frames: [name, child time, span id]
        self._depth = Counter()
        self._next_id = 1
        self._undo = []

    # -- recording --------------------------------------------------------
    def span(self, name, fn, keep_span=True, before=None):
        """Return ``fn`` wrapped so each call is recorded under ``name``."""
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1][2] if stack else 0
            sid = self._next_id
            self._next_id += 1
            frame = [name, 0.0, sid if keep_span else parent]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[name] -= 1
                dur = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if depth[name] == 0:    # recursion is counted once inclusive
                    self.incl[name] += dur
                if stack:
                    stack[-1][1] += dur
                if keep_span:
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append((sid, parent, self.request, name, t0, t1))
                    else:
                        self.dropped_spans += 1

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------
    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapped):
        """Replace ``original`` under every name the package looks it up by."""
        for modname, mod in list(sys.modules.items()):
            if modname != "diffglue" and not modname.startswith("diffglue."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapped)
        suites = sys.modules["diffglue.suites"]
        for key, value in list(suites.SUITES.items()):
            if value is original:
                self._undo.append((suites.SUITES, key, value))
                suites.SUITES[key] = wrapped

    def install(self):
        import diffglue.cli  # noqa: F401  (load every module before patching)
        from diffglue import connection, numerics, suites

        self._dual = dual = numerics.DualScalar
        hooks = {
            "numerics.gradient": self._count_nested,
            "numerics.invert_matrix_generic": self._count_dual_inversion,
            "forms.compute_fibre": self._count_fibre_hit,
        }
        for modname, attr, name, keep in ENTRY_POINTS:
            mod = sys.modules[f"diffglue.{modname}"]
            owner_name, _, method = attr.partition(".")
            if method:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[method]
                self._patch(owner, method,
                            self.span(name, original, keep, hooks.get(name)))
            else:
                original = getattr(mod, attr)
                wrapped = self.span(name, original, keep, hooks.get(name))
                if name == "connection.koszul_solve":
                    wrapped = self._trace_christoffel(wrapped)
                self._patch_everywhere(original, wrapped)
        # the oracle is timed per evaluation, not per construction
        oracle = connection.christoffel_closed_form
        self._patch_everywhere(oracle, lambda *a, **k: self.span(
            "connection.christoffel_closed_form", oracle(*a, **k)))
        for key, fn in list(suites.SUITES.items()):
            self._undo.append((suites.SUITES, key, fn))
            suites.SUITES[key] = self.span(f"suites.{key}", fn)

        # object creation is counted, not timed: a frame per DualScalar would
        # cost more than the arithmetic it measures
        init = dual.__init__
        counters = self.counters

        def counted_init(obj, value, partials):
            counters["numerics.dual_scalar.created"] += 1
            init(obj, value, partials)

        self._patch(dual, "__init__", counted_init)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- per-name hooks ---------------------------------------------------
    def _count_nested(self, args, kwargs):
        coords = args[2] if len(args) > 2 else kwargs.get("coords", ())
        if _has_dual(coords, self._dual):
            self.counters["numerics.gradient.nested_calls"] += 1

    def _count_dual_inversion(self, args, kwargs):
        if _has_dual(args[0], self._dual):
            self.counters["numerics.invert_matrix_generic.dual_calls"] += 1

    def _count_fibre_hit(self, args, kwargs):
        space, point = args[0], args[1]
        cache = space.__dict__.get("_fibre_cache", {})
        if (point.region, point.coords) in cache:
            self.counters["forms.compute_fibre.cache_hits"] += 1

    def _trace_christoffel(self, solve):
        """Trace the Koszul closure of every connection a solve returns."""
        def on_call(args, kwargs):
            x = args[0]
            if _has_dual(x, self._dual):
                self.counters["connection.christoffel.dual_calls"] += 1
            else:
                self.counters["connection.christoffel.float_calls"] += 1
                self.float_points.add(tuple(float(v) for v in x))

        def solve_traced(*args, **kwargs):
            conn = solve(*args, **kwargs)
            return dataclasses.replace(conn, christoffel=self.span(
                "connection.christoffel", conn.christoffel, True, on_call))

        return solve_traced

    # -- reporting --------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer metric values keyed by metric name."""
        out = {}
        names = [name for _, _, name, _ in ENTRY_POINTS]
        names += ["connection.christoffel", "connection.christoffel_closed_form"]
        from diffglue.suites import SUITES
        names += [f"suites.{key}" for key in SUITES]
        for name in names:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.s"] = (self.incl[name], "s")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        out["connection.christoffel.dual_calls"] = (
            self.counters["connection.christoffel.dual_calls"], "count")
        float_calls = self.counters["connection.christoffel.float_calls"]
        out["connection.christoffel.distinct_ratio"] = (
            len(self.float_points) / float_calls if float_calls else 0.0, "ratio")
        out["numerics.gradient.nested_calls"] = (
            self.counters["numerics.gradient.nested_calls"], "count")
        out["numerics.invert_matrix_generic.dual_calls"] = (
            self.counters["numerics.invert_matrix_generic.dual_calls"], "count")
        out["numerics.dual_scalar.created"] = (
            self.counters["numerics.dual_scalar.created"], "count")
        fibre_calls = self.calls["forms.compute_fibre"]
        out["forms.compute_fibre.cache_hit_ratio"] = (
            self.counters["forms.compute_fibre.cache_hits"] / fibre_calls
            if fibre_calls else 0.0, "ratio")
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, req, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": req,
                                     "name": name, "start": t0, "end": t1}) + "\n")
            if self.dropped_spans:
                fh.write(json.dumps({"dropped": self.dropped_spans}) + "\n")
