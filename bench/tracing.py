"""Span tracing of the vertexflow modules, installed from outside the package.

``Tracer.install`` replaces every public function and method of the traced
modules with a wrapper and restores the originals on ``uninstall``.  A
wrapper covers every binding of its target: the module attribute, each
``from .x import y`` binding in the other ``vertexflow`` modules, and the
class attribute for methods, static methods and properties.
Function-local imports resolve through the module attribute at call time,
so they are covered too.

Each span records its qualified name, start, end, parent span and op id.
Spans stay in memory; ``write_spans`` dumps them when the run ends.  The
self time of a span is its duration minus the durations of its direct
children (calls are single-threaded, so children never overlap).

Functions in ``COUNT_ONLY`` run so often that a span would cost more than
the call itself.  They are only counted; their time stays in the enclosing
span.

Observers attached to a few names turn arguments and results into computed
counts (grid work, vertex draws, edge bytes, ...).  They run with recording
paused, so the library calls they make create no spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

PACKAGE = "vertexflow"
MODULES = ("lattice", "weights", "sampler", "hecke", "contours", "qmoments", "verify", "cli")

# ~2.4 M calls per `identities` suite (the Yang-Baxter check alone).
COUNT_ONLY = frozenset({"weights.r_weight"})

# Public integral entry points; integral_s_p50 times their outermost calls.
INTEGRAL_ENTRY_POINTS = frozenset({
    "qmoments.qmoment_skew",
    "qmoments.qmoment_skew_multi",
    "qmoments.qmoment_higher_spin",
    "qmoments.qmoment_higher_spin_multi",
    "qmoments.qmoment_higher_spin_kappa",
    "qmoments.shifted_observable",
    "qmoments.qmoment_qhahn",
    "qmoments.beta_moment",
})

# Sampler functions reported as layers of their own; every other public name
# of `sampler` (batch accessors, RNG set-up) reports as plain `sampler`.
SAMPLER_LAYERS = {
    "sampler.sample_sc6v": "sampler.sc6v",
    "sampler.sample_higher_spin": "sampler.hs",
    "sampler.sample_qhahn": "sampler.qhahn",
    "sampler.qhahn_boundary_probs": "sampler.qhahn",
    "sampler.simulate_beta_polymer": "sampler.beta",
    "sampler.enumerate_sc6v": "sampler.enumerate",
    "sampler.enumerate_higher_spin": "sampler.enumerate",
    "sampler.WeightedEnsemble": "sampler.enumerate",
}

def layer_of(qualname: str) -> str:
    """Layer that a span or count of ``qualname`` is charged to."""
    if qualname in SAMPLER_LAYERS:
        return SAMPLER_LAYERS[qualname]
    module, _, rest = qualname.partition(".")
    owner = f"{module}.{rest.split('.')[0]}"
    if owner in SAMPLER_LAYERS:
        return SAMPLER_LAYERS[owner]
    return module


def _inversions(images) -> int:
    return sum(1 for a in range(len(images)) for b in range(a + 1, len(images))
               if images[a] > images[b])


class Tracer:
    """Records spans and counts for the wrapped vertexflow callables.

    ``only`` restricts wrapping to a set of qualified names; the end-to-end
    runs use it to wrap just the integral entry points.
    """

    def __init__(self, only=None):
        self.only = None if only is None else frozenset(only)
        self.spans = []  # [qualname, start, end, parent index, op id]
        self.stack = []
        self.op = -1
        self.paused = False
        self.counts = defaultdict(lambda: [0])
        self.unconverged = []  # (op id, qualname, error estimate, tol)
        self.integral_s = []  # durations of outermost integral entry-point calls
        self.computed = defaultdict(int)
        self.maxima = defaultdict(int)
        self._patches = []
        self._signatures = {}

    # -- spans owned by the harness ------------------------------------------

    def begin(self, name: str, op: int) -> int:
        self.op = op
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, op])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in MODULES}
        targets = {}  # id(original function) -> wrapper
        for mod_name, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self._wrap(f"{mod_name}.{name}", obj)
                    if wrapper is not obj:
                        targets[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(f"{mod_name}.{name}", obj)
        if not targets:
            return
        for mod in [m for n, m in sys.modules.items()
                    if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]:
            for name, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def _wrap_class(self, qual: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qn = f"{qual}.{name}"
            if inspect.isfunction(raw):
                new = self._wrap(qn, raw)
            elif isinstance(raw, staticmethod):
                inner = self._wrap(qn, raw.__func__)
                new = raw if inner is raw.__func__ else staticmethod(inner)
            elif isinstance(raw, property) and raw.fget is not None:
                inner = self._wrap(qn, raw.fget)
                new = raw if inner is raw.fget else property(inner, raw.fset, raw.fdel, raw.__doc__)
            else:
                continue
            if new is not raw:
                self._patches.append((cls, name, raw))
                setattr(cls, name, new)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, qual: str, func):
        if self.only is not None and qual not in self.only:
            return func
        if qual in COUNT_ONLY:
            cell = self.counts[qual]

            @functools.wraps(func)
            def counted(*args, **kwargs):
                cell[0] += 1
                return func(*args, **kwargs)

            return counted

        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observer = self._observer_for(qual)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self.paused:
                return func(*args, **kwargs)
            idx = len(spans)
            rec = [qual, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observer is not None:
                self.paused = True
                try:
                    observer(func, args, kwargs, result, rec)
                finally:
                    self.paused = False
            return result

        return traced

    def _bound(self, func, args, kwargs) -> dict:
        sig = self._signatures.get(func)
        if sig is None:
            sig = self._signatures[func] = inspect.signature(func)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    # -- observers: computed counts -------------------------------------------

    def _observer_for(self, qual: str):
        obs = []
        if qual in INTEGRAL_ENTRY_POINTS:
            obs.append(self._obs_entry_point)
        if qual == "qmoments.pairing_values":
            obs.append(self._obs_pairing)
        if qual.startswith("contours.build_contours") or qual == "contours.ContourFamily.scaled":
            obs.append(self._obs_contours)
        if qual in ("sampler.enumerate_sc6v", "sampler.enumerate_higher_spin"):
            obs.append(self._obs_enumerate)
        if qual in ("sampler.sample_sc6v", "sampler.sample_higher_spin", "sampler.sample_qhahn",
                    "sampler.simulate_beta_polymer"):
            obs.append(self._obs_sampler)
        if qual.startswith("verify."):
            obs.append(self._obs_verify)
        if not obs:
            return None

        def observe(func, args, kwargs, result, rec):
            for fn in obs:
                fn(qual, func, args, kwargs, result, rec)

        return observe

    def _obs_entry_point(self, qual, func, args, kwargs, result, rec):
        results = result.values() if isinstance(result, dict) else [result]
        results = [r for r in results if hasattr(r, "error_estimate")]
        if not results:
            return  # empirical shifted_observable: not an integral
        if not any(self.spans[i][0] in INTEGRAL_ENTRY_POINTS for i in self.stack):
            self.integral_s.append(rec[2] - rec[1])
        tol = self._bound(func, args, kwargs)["tol"]
        for r in results:
            est = r.error_estimate
            if not (math.isfinite(est) and est < tol):
                self.unconverged.append((self.op, qual, float(est), float(tol)))

    def _obs_pairing(self, qual, func, args, kwargs, result, rec):
        a = self._bound(func, args, kwargs)
        fam, integrand, n0, tol = a["fam"], a["integrand"], a["nodes_per_circle"], a["tol"]
        circles = [len(c) for c in fam.per_variable]
        n_final = max(r.nodes_per_circle for r in result.values())
        levels = int(round(math.log2(n_final / n0))) + 1
        dl_terms = sum(2 ** _inversions(pi.images) for _, pi in integrand.pi_terms)
        work = 0
        for lev in range(levels):
            n = n0 * 2 ** lev
            work += math.prod(c * n for c in circles) * len(integrand.phi_terms) * dl_terms
        self.computed["qmoments.grid_work"] += work
        self.computed["qmoments.levels"] += levels
        self.computed["hecke.dl_terms"] += dl_terms
        self.computed["qmoments.unconverged"] += sum(
            1 for r in result.values() if not r.error_estimate < tol)
        self.maxima["qmoments.nodes_per_variable_max"] = max(
            self.maxima["qmoments.nodes_per_variable_max"], max(circles) * n_final)

    def _obs_contours(self, qual, func, args, kwargs, result, rec):
        self.maxima["contours.circles_per_variable_max"] = max(
            self.maxima["contours.circles_per_variable_max"],
            max(len(c) for c in result.per_variable))

    def _obs_enumerate(self, qual, func, args, kwargs, result, rec):
        self.computed["sampler.enumerate.configs"] += len(result.entries)

    def _obs_sampler(self, qual, func, args, kwargs, result, rec):
        a = self._bound(func, args, kwargs)
        count = a["count"]
        if qual == "sampler.sample_sc6v":
            model, sites = "sc6v", len(a["domain"].vertices())
        elif qual == "sampler.simulate_beta_polymer":
            model, sites = "beta", a["t_max"] * (a["t_max"] - 1) // 2
        else:
            model = "hs" if qual == "sampler.sample_higher_spin" else "qhahn"
            sites = a["rect"][0] * a["rect"][1]
        self.computed[f"sampler.{model}.vertex_draws"] += count * sites
        if hasattr(result, "values") and isinstance(result.values, dict):
            arrays = list(result.values.values())
        else:
            arrays = [result.h_edges, result.v_edges, *result.tracked_heights.values()]
        self.computed["sampler.edge_bytes"] += sum(x.nbytes for x in arrays if x is not None)

    def _obs_verify(self, qual, func, args, kwargs, result, rec):
        if any(layer_of(self.spans[i][0]) == "verify" for i in self.stack):
            return  # an enclosing verify call reports these checks
        reports = result if isinstance(result, list) else [result]
        reports = [r for r in reports if hasattr(r, "status") and hasattr(r, "max_abs_error")]
        self.computed["verify.checks"] += len(reports)
        self.computed["verify.failed"] += sum(1 for r in reports if r.status != "pass")

    # -- aggregation ----------------------------------------------------------

    def layer_totals(self) -> tuple[dict, dict]:
        """(self seconds by layer, calls by layer) over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            layer = layer_of(name)
            self_s[layer] += (end - start) - child[i]
            calls[layer] += 1
        for name, cell in self.counts.items():
            calls[layer_of(name)] += cell[0]
        return dict(self_s), dict(calls)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
