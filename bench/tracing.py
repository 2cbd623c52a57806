"""Spans around the package's public functions, installed from outside ``src/``.

``Tracer.install()`` replaces each function listed in ``LAYERS`` by a wrapper
in every ``mplreg`` module namespace that holds it (and on its class, for
methods), so calls made inside the package are caught as well.  A span records
its name, parent, start and end; self time is its duration minus the part its
child spans cover.  Counts that the per-layer metrics need are taken from call
arguments and return values at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# layer -> (owner path, attribute) pairs; owner is a module or a class in it
LAYERS = {
    "rootsofunity": [
        ("rootsofunity.RotationNumber", "power_values"),
        ("rootsofunity", "contains"),
        ("rootsofunity", "index_set_and_count"),
        ("rootsofunity", "rotation_product"),
        ("rootsofunity", "singular_hyperplanes"),
    ],
    "scalefun": [
        ("scalefun.ScaleFunction", "shift_expand"),
        ("scalefun.ScaleFunction", "differentiate"),
        ("scalefun.ScaleFunction", "antiderivative"),
        ("scalefun.ScaleFunction", "times_power"),
        ("scalefun.ScaleFunction", "abs_tail_bound"),
        ("scalefun.ScaleFunction", "_value_at"),
        ("scalefun.ScaleFunction", "evaluate"),
    ],
    "eulerpoly": [
        ("eulerpoly", "inner_product"),
        ("eulerpoly", "gen_euler_polynomial"),
        ("eulerpoly", "gen_euler_at_zero"),
        ("eulerpoly", "gen_euler_at_one"),
        ("eulerpoly", "sup_bound"),
        ("eulerpoly", "bernoulli_number"),
        ("eulerpoly", "bernoulli_polynomial"),
        ("eulerpoly", "bernoulli_sup_bound"),
        ("eulerpoly", "power_sum"),
        ("eulerpoly.RationalPolynomial", "compose_affine"),
    ],
    "summation": [
        ("summation", "_term_nparts"),
        ("summation", "term_sum_expansion"),
        ("summation", "run_matching"),
        ("summation", "choose_cutoff"),
        ("summation", "char_partial_sums"),
        ("summation", "eval_nparts"),
        ("summation", "eval_tail"),
        ("summation", "euler_maclaurin"),
        ("summation", "gen_euler_boole"),
    ],
    "asymptotics": [
        ("asymptotics", "nested_char_partial_sums"),
        ("asymptotics", "depth_expansion"),
        ("asymptotics", "partial_sum"),
        ("asymptotics", "_eval_parts_by_char"),
    ],
    "polylog": [
        ("polylog", "_nested_sums"),
        ("polylog", "brute_partial_sum"),
        ("polylog", "eval_convergent"),
        ("polylog", "eval_integer_point"),
        ("polylog", "stieltjes_constant"),
        ("polylog", "verify_translation"),
    ],
}

# the lru caches whose cache_info feeds eulerpoly.cache_hit_ratio
EULERPOLY_CACHES = ["bernoulli_number", "bernoulli_polynomial", "power_sum",
                    "gen_euler_polynomial"]


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self, max_spans: int = 200_000):
        self.stack = []          # frames: [name, start, child time, children, id]
        self.active = defaultdict(int)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans = []          # (id, parent id, name, start, end)
        self.max_spans = max_spans
        self.dropped = 0
        self._last_id = 0
        self._patched = []
        self._caches = {}        # name -> lru-cached original in eulerpoly
        self._cache_base = {}

    # -- span bookkeeping ------------------------------------------------

    def enter(self, name):
        self._last_id += 1
        self.stack.append([name, time.perf_counter(), 0.0, 0, self._last_id])
        self.active[name] += 1

    def leave(self):
        end = time.perf_counter()
        name, start, child, children, sid = self.stack.pop()
        self.active[name] -= 1
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
            parent[3] += 1
        if len(self.spans) < self.max_spans:
            self.spans.append((sid, parent[4] if parent else 0, name, start, end))
        else:
            self.dropped += 1
        return children

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of harness code (the CLI invocation)."""
        self.enter(name)
        try:
            yield
        finally:
            self.leave()

    # -- installing wrappers -------------------------------------------------

    def install(self, package):
        modules = {n: m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")}
        for layer, targets in LAYERS.items():
            for owner_path, attr in targets:
                mod_name, _, cls_name = owner_path.partition(".")
                module = modules[f"{package.__name__}.{mod_name}"]
                owner = getattr(module, cls_name) if cls_name else module
                original = owner.__dict__[attr] if cls_name else getattr(module, attr)
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, original)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                if not cls_name:
                    for other in modules.values():
                        for key, val in list(vars(other).items()):
                            if val is original and other is not module:
                                self._patched.append((other, key, original))
                                setattr(other, key, wrapper)
        eulerpoly = modules[f"{package.__name__}.eulerpoly"]
        for owner, attr, original in self._patched:
            if owner is eulerpoly and attr in EULERPOLY_CACHES:
                self._caches[attr] = original
        self._cache_base = {n: self._cache_info(n) for n in EULERPOLY_CACHES}

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _cache_info(self, name):
        original = self._caches.get(name)
        if original is None or not hasattr(original, "cache_info"):
            return 0, 0
        info = original.cache_info()
        return info.hits, info.misses

    def cache_hit_ratio(self):
        hits = misses = 0
        for n in EULERPOLY_CACHES:
            h, m = self._cache_info(n)
            h0, m0 = self._cache_base.get(n, (0, 0))
            hits += h - h0
            misses += m - m0
        return hits / (hits + misses) if hits + misses else 0.0

    def _wrap(self, name, original):
        short = name.split(".", 1)[1].lstrip("_")
        hook = getattr(self, "_hook_" + short, None)
        after = getattr(self, "_after_" + short, None)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            tracer.enter(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                children = tracer.leave()
                if after is not None:
                    after(args, None, children, exc)
                raise
            children = tracer.leave()
            if after is not None:
                after(args, result, children, None)
            return result

        return wrapper

    # -- counts taken at the boundaries ---------------------------------------

    def _after_nested_char_partial_sums(self, args, result, children, failed):
        if failed is not None:
            return
        z, cutoffs = args[0], args[3]
        self.counts["asymptotics.kernel.terms"] += max(int(n) for n in cutoffs) * len(z)

    def _after_nested_sums(self, args, result, children, failed):
        if failed is not None:
            return
        z, cutoffs = args[0], args[2]
        top = max(int(n) for n in cutoffs)
        self.counts["polylog.kernel.terms"] += top * len(z)
        if self.active["polylog.eval_convergent"]:
            self.counts["polylog.eval_convergent.rungs"] += 1
            key = "polylog.eval_convergent.cutoff_max"
            self.counts[key] = max(self.counts[key], top)

    def _after_term_nparts(self, args, result, children, failed):
        # a call that did no work in lower layers was served from a cache
        if failed is None and children == 0:
            self.counts["summation.term_nparts.hits"] += 1

    def _hook_run_matching(self, args, kwargs):
        sums_fn = args[0]
        counts = self.counts

        def counted(cutoffs):
            counts["summation.run_matching.attempts"] += 1
            return sums_fn(cutoffs)

        return (counted,) + tuple(args[1:]), kwargs

    def _after_run_matching(self, args, result, children, failed):
        if failed is not None:
            self.counts["summation.run_matching.failures"] += 1
        else:
            key = "summation.run_matching.cutoff_max"
            self.counts[key] = max(self.counts[key], int(result[2]))

    def _after_eval_convergent(self, args, result, children, failed):
        # domain errors are rejected requests, not failures of the route
        if failed is not None and type(failed).__name__ != "DomainError":
            self.counts["polylog.eval_convergent.failures"] += 1

    def _after_verify_translation(self, args, result, children, failed):
        if failed is None:
            self.counts["polylog.verify_translation.terms_used"] += result.terms_used

    # -- per-layer metrics ---------------------------------------------------

    def layer_self(self, layer):
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def metrics(self, values: int):
        c, s, n = self.calls, self.self_s, self.counts
        engines = ("summation.euler_maclaurin", "summation.gen_euler_boole")
        nparts_calls = c["summation._term_nparts"]
        out = {
            "rootsofunity.power_values.calls": (c["rootsofunity.power_values"], "count"),
            "rootsofunity.power_values.self_s": (s["rootsofunity.power_values"], "s"),
            "rootsofunity.self_s": (self.layer_self("rootsofunity"), "s"),
            "scalefun.shift_expand.calls": (c["scalefun.shift_expand"], "count"),
            "scalefun.shift_expand.self_s": (s["scalefun.shift_expand"], "s"),
            "scalefun.self_s": (self.layer_self("scalefun"), "s"),
            "eulerpoly.inner_product.calls": (c["eulerpoly.inner_product"], "count"),
            "eulerpoly.self_s": (self.layer_self("eulerpoly"), "s"),
            "eulerpoly.cache_hit_ratio": (self.cache_hit_ratio(), "ratio"),
            "summation.term_nparts.calls": (nparts_calls, "count"),
            "summation.term_nparts.cache_hit_ratio": (
                n["summation.term_nparts.hits"] / nparts_calls if nparts_calls else 0.0,
                "ratio"),
            "summation.term_nparts.self_s": (s["summation._term_nparts"], "s"),
            "summation.run_matching.calls": (c["summation.run_matching"], "count"),
            "summation.run_matching.attempts": (n["summation.run_matching.attempts"], "count"),
            "summation.run_matching.cutoff_max": (n["summation.run_matching.cutoff_max"], "count"),
            "summation.run_matching.failures": (n["summation.run_matching.failures"], "count"),
            "summation.engines.calls": (sum(c[e] for e in engines), "count"),
            "summation.engines.self_s": (sum(s[e] for e in engines), "s"),
            "summation.self_s": (self.layer_self("summation"), "s"),
            "asymptotics.kernel.calls": (c["asymptotics.nested_char_partial_sums"], "count"),
            "asymptotics.kernel.terms": (n["asymptotics.kernel.terms"], "count"),
            "asymptotics.kernel.self_s": (s["asymptotics.nested_char_partial_sums"], "s"),
            "asymptotics.kernel.terms_per_value": (
                n["asymptotics.kernel.terms"] / values if values else 0.0, "count"),
            "asymptotics.expansion.self_s": (
                s["asymptotics.depth_expansion"] + s["asymptotics.partial_sum"]
                + s["asymptotics._eval_parts_by_char"], "s"),
            "asymptotics.self_s": (self.layer_self("asymptotics"), "s"),
            "polylog.kernel.calls": (c["polylog._nested_sums"], "count"),
            "polylog.kernel.terms": (n["polylog.kernel.terms"], "count"),
            "polylog.kernel.self_s": (s["polylog._nested_sums"], "s"),
            "polylog.eval_convergent.rungs": (n["polylog.eval_convergent.rungs"], "count"),
            "polylog.eval_convergent.cutoff_max": (n["polylog.eval_convergent.cutoff_max"], "count"),
            "polylog.eval_convergent.failures": (n["polylog.eval_convergent.failures"], "count"),
            "polylog.verify_translation.terms_used": (
                n["polylog.verify_translation.terms_used"], "count"),
            "polylog.self_s": (self.layer_self("polylog"), "s"),
            "cli.calls": (c["cli.command"], "count"),
            "cli.self_s": (s["cli.command"], "s"),
            "cli.exit_nonzero": (n["cli.exit_nonzero"], "count"),
        }
        return out
