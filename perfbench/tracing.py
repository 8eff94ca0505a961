"""Outside-in tracing of the library's layers.

``Tracer.install()`` replaces the module-level names through which one
layer calls the next with wrappers that record a span per call (name,
start, end, parent span) and count work at the same boundary. Nothing in
``src/`` is edited; ``uninstall()`` puts every original back. Spans are
kept in memory and written out by ``save()`` at the end of a run.

A span's layer is the module prefix of its name. A layer's self time is
the summed duration of its spans minus the part covered by their child
spans. GK panels are not spans (there are too many); the time spent in the
integrand they sample is measured in bulk and moved from contour's self
time to polyexp's, whose closure the integrand is.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

LAYERS = ("polyexp", "contour", "funcmodel", "asymptotics", "rootfinder",
          "valuedist", "rayconfig", "kernels", "cli")

# (metric, unit) for every per-layer metric a traced run reports
PER_LAYER = [
    ("contour.gk_panels", "count"),
    ("contour.quad_calls", "count"),
    ("contour.quad_s", "s"),
    ("contour.quad_failed", "count"),
    ("polyexp.segment_calls", "count"),
    ("polyexp.segment_s", "s"),
    ("polyexp.chunks_per_segment", "ratio"),
    ("polyexp.integrand_s", "s"),
    ("contour.windings", "count"),
    ("contour.winding_s", "s"),
    ("contour.winding_failed", "count"),
    ("contour.path_samples", "count"),
    ("contour.bisection_samples", "count"),
    ("rootfinder.windings_per_root", "ratio"),
    ("rootfinder.winding_yield", "ratio"),
    ("funcmodel.reanchors", "count"),
    ("funcmodel.reanchor_ratio", "ratio"),
    ("funcmodel.anchored_s", "s"),
    ("asymptotics.tail_calls", "count"),
    ("asymptotics.tail_s", "s"),
    ("rootfinder.roots", "count"),
    ("rootfinder.newton_evals", "count"),
    ("rootfinder.newton_s", "s"),
    ("rootfinder.clipped_boxes", "count"),
    ("rootfinder.clusters", "count"),
    ("valuedist.circle_evals", "count"),
    ("valuedist.circle_s", "s"),
    ("valuedist.product_value_calls", "count"),
    ("valuedist.product_factor_mults", "count"),
    ("asymptotics.values_s", "s"),
    ("rayconfig.configs", "count"),
    ("rayconfig.sweep_s", "s"),
    ("kernels.quad_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
]

# counters that define a traced run's work; they repeat exactly
COUNTS = ("gk_panels", "quad_calls", "quad_failed", "segment_calls",
          "segment_parts", "windings", "winding_failed", "path_samples",
          "planned_samples", "walk_samples", "reanchors", "anchored_calls",
          "tail_calls", "roots", "newton_evals", "clipped_boxes", "clusters",
          "circle_evals", "product_value_calls", "product_factor_mults",
          "configs")


class _PathProxy:
    """Counts the samples a winding walk takes through its path evaluator."""

    __slots__ = ("_inner", "_counts")

    def __init__(self, inner, counts):
        self._inner = inner
        self._counts = counts

    def start(self, z):
        self._counts["path_samples"] += 1
        return self._inner.start(z)

    def extend(self, prev, z):
        self._counts["path_samples"] += 1
        return self._inner.extend(prev, z)

    def min_samples(self, z0, z1):
        n = self._inner.min_samples(z0, z1)
        self._counts["walk_planned"] += max(2, n)
        return n


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.counts = Counter()
        self.seconds = defaultdict(float)
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # (id, parent id, name index, start, end); id 0 is "no parent"
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1
        self._walks = 0
        self._searches = 0
        self._patches: list[tuple] = []

    # -- span mechanics ---------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _call(self, idx, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        stack = self._stack
        parent = stack[-1]
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, idx, t0, t1))

    def _span(self, name, fn):
        idx = self._intern(name)
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(idx, fn, args, kwargs)
        return wrapper

    # -- the wrappers -----------------------------------------------------

    def _integrate(self, fn):
        idx = self._intern("contour.integrate_segment_err")
        counts = self.counts
        seconds = self.seconds
        clock = time.perf_counter

        def g_counted(g):
            def inner(z):
                counts["gk_panels"] += 1
                t0 = clock()
                try:
                    return g(z)
                finally:
                    seconds["integrand"] += clock() - t0
            return inner

        @functools.wraps(fn)
        def wrapper(g, *args, **kwargs):
            counts["quad_calls"] += 1
            try:
                return self._call(idx, fn, (g_counted(g),) + args, kwargs)
            except Exception:
                counts["quad_failed"] += 1
                raise
        return wrapper

    def _winding(self, fn):
        idx = self._intern("contour.winding_count")
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(pathval, box):
            counts["windings"] += 1
            before = counts["path_samples"]
            counts["walk_planned"] = 0
            self._walks += 1
            try:
                out = self._call(idx, fn, (_PathProxy(pathval, counts), box),
                                 {})
            except Exception:
                counts["winding_failed"] += 1
                raise
            finally:
                self._walks -= 1
            counts["planned_samples"] += counts["walk_planned"]
            counts["walk_samples"] += counts["path_samples"] - before
            return out
        return wrapper

    def _anchored(self, fn):
        idx = self._intern("funcmodel.anchored_f")
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["anchored_calls"] += 1
            if self._walks:
                counts["reanchors"] += 1
            return self._call(idx, fn, args, kwargs)
        return wrapper

    def _model_eval(self, name, fn):
        """diff_scaled / derivative_scaled: Newton evaluations when called
        by a search outside any walk."""
        idx = self._intern(name)
        counts = self.counts
        seconds = self.seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._searches or self._walks:
                return self._call(idx, fn, args, kwargs)
            counts["newton_evals"] += 1
            t0 = time.perf_counter()
            try:
                return self._call(idx, fn, args, kwargs)
            finally:
                seconds["newton"] += time.perf_counter() - t0
        return wrapper

    def _search(self, name, fn):
        idx = self._intern(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._searches += 1
            try:
                result = self._call(idx, fn, args, kwargs)
            finally:
                self._searches -= 1
            counts["roots"] += len(result)
            counts["clusters"] += sum(1 for r in result if r.cluster)
            counts["clipped_boxes"] += len(result.clipped)
            return result
        return wrapper

    def _product_value(self, fn):
        idx = self._intern("valuedist.CanonicalProductModel.value")
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(model, z):
            counts["product_value_calls"] += 1
            counts["product_factor_mults"] += model.n_core
            return self._call(idx, fn, (model, z), {})
        return wrapper

    def _counted(self, name, fn, key, amount=lambda args, out: 1):
        idx = self._intern(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self._call(idx, fn, args, kwargs)
            counts[key] += amount(args, out)
            return out
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _patch(self, modname: str, attr: str, make) -> None:
        """Replace modname.attr (attr may be Class.method) by make(original)."""
        mod = importlib.import_module(f"sectorroots.{modname}")
        owner = mod
        name = attr
        if "." in attr:
            cls, name = attr.split(".")
            owner = getattr(mod, cls)
        original = owner.__dict__[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        counted = self._counted
        span = self._span
        shared = {}

        def once(key, make):
            """One wrapper for every module that imported the same function
            by name, so that each call is recorded once."""
            def get(original):
                if key not in shared:
                    shared[key] = make(original)
                return shared[key]
            return get

        segment = once("isp", lambda f: counted(
            "polyexp.integral_scaled_parts", f, "segment_calls"))
        values = once("av", lambda f: span("asymptotics.asymptotic_values", f))
        find = once("fap", lambda f: self._search("rootfinder.find_a_points",
                                                  f))
        self._patch("polyexp", "integral_scaled_parts", segment)
        self._patch("funcmodel", "integral_scaled_parts", segment)
        self._patch("polyexp", "_one_segment_parts", lambda f: counted(
            "polyexp._one_segment_parts", f, "segment_parts"))
        self._patch("contour", "integrate_segment_err", self._integrate)
        self._patch("rootfinder", "winding_count", self._winding)
        self._patch("funcmodel", "PolyExpRootModel.anchored_f",
                    self._anchored)
        self._patch("funcmodel", "tail_remainder", lambda f: counted(
            "asymptotics.tail_remainder", f, "tail_calls"))
        for mod in ("asymptotics", "funcmodel", "cli"):
            self._patch(mod, "asymptotic_values", values)
        self._patch("rootfinder", "_newton",
                    lambda f: span("rootfinder._newton", f))
        for meth in ("diff_scaled", "derivative_scaled"):
            self._patch("funcmodel", f"PolyExpRootModel.{meth}",
                        lambda f, m=meth: self._model_eval(
                            f"funcmodel.{m}", f))
            self._patch("valuedist", f"CanonicalProductModel.{meth}",
                        lambda f, m=meth: self._model_eval(
                            f"valuedist.{m}", f))
        for mod in ("rootfinder", "cli"):
            self._patch(mod, "find_a_points", find)
        self._patch("valuedist", "find_product_a_points", lambda f:
                    self._search("valuedist.find_product_a_points", f))
        self._patch("valuedist", "_log_abs_f", lambda f: counted(
            "valuedist._log_abs_f", f, "circle_evals"))
        self._patch("valuedist", "jensen_defect",
                    lambda f: span("valuedist.jensen_defect", f))
        self._patch("valuedist", "order_estimate",
                    lambda f: span("valuedist.order_estimate", f))
        self._patch("valuedist", "CanonicalProductModel.value",
                    self._product_value)
        self._patch("cli", "canonical_product_eval", lambda f: counted(
            "valuedist.canonical_product_eval", f, "product_factor_mults",
            lambda args, out: args[0].n_terms))
        self._patch("cli", "enumerate_configs", lambda f: counted(
            "rayconfig.enumerate_configs", f, "configs",
            lambda args, out: out.configs_checked))
        self._patch("kernels", "kernel_integral_quadrature",
                    lambda f: span("kernels.kernel_integral_quadrature", f))
        self._patch("cli", "main", lambda f: span("cli.main", f))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def op(self, name: str, fn):
        """Run one benchmark operation as a root span."""
        return self._call(self._intern(f"bench.{name}"), fn, (), {})

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {k: self.counts[k] for k in COUNTS}

    def inclusive(self) -> dict:
        """Summed duration per span name (no wrapped function recurses)."""
        out = defaultdict(float)
        for _, _, idx, t0, t1 in self.spans:
            out[self.names[idx]] += t1 - t0
        return out

    def self_times(self) -> dict:
        covered = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            covered[parent] += t1 - t0
        out = defaultdict(float)
        for sid, _, idx, t0, t1 in self.spans:
            layer = self.names[idx].split(".")[0]
            out[layer] += (t1 - t0) - covered[sid]
        out["contour"] -= self.seconds["integrand"]
        out["polyexp"] += self.seconds["integrand"]
        return out

    def metrics(self, overhead_frac: float) -> dict:
        c = self.counts
        inc = self.inclusive()
        own = self.self_times()

        def ratio(num, den):
            return num / den if den else 0.0

        # the planned samples of failed walks are not known, so bisection
        # samples are counted over successful walks only
        values = {
            "contour.gk_panels": c["gk_panels"],
            "contour.quad_calls": c["quad_calls"],
            "contour.quad_s": inc["contour.integrate_segment_err"],
            "contour.quad_failed": c["quad_failed"],
            "polyexp.segment_calls": c["segment_calls"],
            "polyexp.segment_s": inc["polyexp.integral_scaled_parts"],
            "polyexp.chunks_per_segment": ratio(c["segment_parts"],
                                                c["segment_calls"]),
            "polyexp.integrand_s": self.seconds["integrand"],
            "contour.windings": c["windings"],
            "contour.winding_s": inc["contour.winding_count"],
            "contour.winding_failed": c["winding_failed"],
            "contour.path_samples": c["path_samples"],
            "contour.bisection_samples": c["walk_samples"]
            - c["planned_samples"],
            "rootfinder.windings_per_root": ratio(c["windings"], c["roots"]),
            "rootfinder.winding_yield": ratio(
                c["windings"] - c["winding_failed"], c["windings"]),
            "funcmodel.reanchors": c["reanchors"],
            "funcmodel.reanchor_ratio": ratio(c["reanchors"],
                                              c["path_samples"]),
            "funcmodel.anchored_s": inc["funcmodel.anchored_f"],
            "asymptotics.tail_calls": c["tail_calls"],
            "asymptotics.tail_s": inc["asymptotics.tail_remainder"],
            "rootfinder.roots": c["roots"],
            "rootfinder.newton_evals": c["newton_evals"],
            "rootfinder.newton_s": self.seconds["newton"],
            "rootfinder.clipped_boxes": c["clipped_boxes"],
            "rootfinder.clusters": c["clusters"],
            "valuedist.circle_evals": c["circle_evals"],
            "valuedist.circle_s": inc["valuedist._log_abs_f"],
            "valuedist.product_value_calls": c["product_value_calls"],
            "valuedist.product_factor_mults": c["product_factor_mults"],
            "asymptotics.values_s": inc["asymptotics.asymptotic_values"],
            "rayconfig.configs": c["configs"],
            "rayconfig.sweep_s": inc["rayconfig.enumerate_configs"],
            "kernels.quad_s": inc["kernels.kernel_integral_quadrature"],
            "trace.spans": len(self.spans),
            "trace.overhead_frac": overhead_frac,
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = max(own[layer], 0.0)
        return values

    def save(self, path) -> None:
        """Write the spans as columns of a compressed .npz file."""
        import numpy as np

        cols = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        np.savez_compressed(path, id=cols[:, 0].astype(np.int64),
                            parent=cols[:, 1].astype(np.int64),
                            name=cols[:, 2].astype(np.int32),
                            start=cols[:, 3], end=cols[:, 4],
                            names=np.array(self.names))
