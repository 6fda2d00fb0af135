"""Item timing, spans and counters recorded around expmoment's layers.

Every wrapper is installed from the benchmark: it replaces a module
attribute that a caller looks up at call time (``verify.windowed_abs_average``,
``quadrature.power_on_array``, ``spectral.expand``, ...), in every expmoment
module that binds the same function object, so no file of the package
changes. A layer's self time is its spans' duration minus the part covered
by child spans; the root span ``cli`` is the whole pass, so the self times
of all layers plus ``cli.self_s`` add up to the traced pass time.

Two modules are not timed. ``fejer``: the kernel is inlined in quadrature
and no hot path calls its scalar functions. ``core``: it only validates
inputs, and that time stays in the calling layer's self time.
"""
from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "evaluate": "evaluate.s",
    "quadrature": "quadrature.s",
    "spectral.expand": "spectral.expand_s",
    "spectral.rational_expand": "spectral.rational_expand_s",
    "spectral.kernel_sum": "spectral.kernel_sum_s",
    "rademacher.exact": "rademacher.exact_s",
    "rademacher.exhaustive": "rademacher.exhaustive_s",
    "zeta.corollary": "zeta.corollary_s",
    "zeta.divisor_table": "zeta.divisor_table_s",
    "zeta.power_coefficients": "zeta.power_coefficients_s",
    "zeta.growth_fit": "zeta.growth_fit_s",
    "verify.theorem1": "verify.theorem1_s",
    "verify.lemma": "verify.lemma_s",
    "verify.eq45": "verify.eq45_s",
    "verify.sup_chain": "verify.sup_chain_s",
    "verify.ingham_mordell": "verify.ingham_mordell_s",
    "verify.bohr": "verify.bohr_s",
    "cli": "cli.self_s",
}

# The calls the CLI makes per report: each is one item of the workload.
ITEM_TARGETS = [
    ("verify", "check_theorem1", "verify.theorem1"),
    ("verify", "check_lemma", "verify.lemma"),
    ("verify", "check_eq45", "verify.eq45"),
    ("verify", "check_sup_chain", "verify.sup_chain"),
    ("verify", "check_ingham_mordell", "verify.ingham_mordell"),
    ("verify", "check_bohr_bound", "verify.bohr"),
    ("zeta", "corollary_lower_bound", "zeta.corollary"),
]


class Recorder:
    """Per-pass store of item latencies and, when tracing, spans and counts.

    Spans are lists ``[name, start, end, parent, item]`` kept in memory;
    the caller writes them out when the run ends.
    """

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.items: list[list] = []  # [name, ms, ok]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._item: int | None = None
        self._undo: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self._item])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str | None):
        if not (self.tracing and name):
            yield
            return
        self.open(name)
        try:
            yield
        finally:
            self.close()

    @contextmanager
    def item(self, name: str, span: str | None = None):
        """Time one item; the body sets ``state["ok"] = False`` on a failure.

        A call nested inside another item is not an item of its own.
        """
        state = {"ok": True}
        if self._item is not None:
            with self.span(span):
                yield state
            return
        self._item = len(self.items)
        entry = [name, 0.0, True]
        self.items.append(entry)
        start = time.perf_counter()
        try:
            with self.span(span):
                yield state
        except BaseException:
            state["ok"] = False
            raise
        finally:
            entry[1] = (time.perf_counter() - start) * 1e3
            entry[2] = state["ok"]
            self._item = None

    def current_item(self) -> int | None:
        return self._item

    # -- installing wrappers ---------------------------------------------

    def patch(self, module, attr: str, make, per_binding: bool = False) -> None:
        """Replace every expmoment binding of ``module.attr``.

        The replacement is ``make(original, binding_module_name)``, built
        once for all bindings unless ``per_binding``. An absent attribute is
        skipped, so the benchmark survives renames inside the package.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        shared = None if per_binding else make(original, module.__name__)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "expmoment" or name.startswith("expmoment.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, shared or make(original, name))
                    self._undo.append((mod, key, original))

    def restore(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def wrap(self, fn, span: str | None, hook=None, errors=()):
        """A span around ``fn``; ``hook(result, exc, bound_args)`` counts work.

        ``errors`` lists the exception types the hook sees before they
        propagate.
        """
        signature = _signature(fn)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with rec.span(span):
                try:
                    result = fn(*args, **kwargs)
                except errors as exc:
                    if hook is not None:
                        rec._count(hook, None, exc, signature, args, kwargs)
                    raise
                if hook is not None:
                    rec._count(hook, result, None, signature, args, kwargs)
                return result
        return wrapper

    def _count(self, hook, result, exc, signature, args, kwargs) -> None:
        # A hook that cannot read a changed signature leaves its counters at
        # zero and is counted here, instead of failing the run.
        try:
            hook(result, exc, _bind(signature, args, kwargs))
        except (AttributeError, KeyError, TypeError, ValueError):
            self.counts["trace.hook_errors"] += 1


def _signature(fn):
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None


def _bind(signature, args, kwargs) -> dict:
    if signature is None:
        return {}
    try:
        bound = signature.bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return dict(bound.arguments)


# --------------------------------------------------------------------------
# Wrappers: item boundaries (every run) and layers (traced runs)
# --------------------------------------------------------------------------

def install_items(rec: Recorder, em, on_error) -> None:
    """Item boundaries: always installed, they feed latency and failures.

    ``on_error(check_name, exc)`` builds the failed report that lets the
    CLI go on after a per-item NotConvergedError or TermBudgetExceededError.
    """
    caught = (em.core.NotConvergedError, em.core.TermBudgetExceededError)
    for mod_name, attr, span in ITEM_TARGETS:
        module = getattr(em, mod_name)

        def make(fn, _binding, span=span):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with rec.item(span, span) as state:
                    try:
                        report = fn(*args, **kwargs)
                    except caught as exc:
                        state["ok"] = False
                        rec.counts["verify.reports"] += 1
                        return on_error(span, exc)
                    state["ok"] = state["ok"] and bool(report.passed)
                    rec.counts["verify.reports"] += 1
                    engine = (getattr(report, "method", None) or {}).get("engine")
                    rec.counts["verify.spectral_reports"] += engine == "spectral"
                    return report
            return wrapper
        rec.patch(module, attr, make)


def install_layers(rec: Recorder, em) -> None:
    """Spans and counters around every timed layer."""
    core = em.core
    counts, maxima = rec.counts, rec.maxima

    def on_points(grid: bool):
        def hook(result, exc, a):
            source, ts = a.get("source"), a.get("ts")
            if source is None or ts is None:
                return
            n, terms = int(ts.size), int(ts.size) * source.size
            counts["evaluate.points"] += n
            counts["evaluate.grid_points" if grid else "quadrature.points"] += n
            counts["evaluate.term_points"] += terms
            maxima["evaluate.chunk_mb"] = max(maxima["evaluate.chunk_mb"],
                                              terms * 16 / 1e6)
        return hook

    for attr in ("power_on_array", "abs_on_array"):
        rec.patch(em.evaluate, attr, lambda fn, binding: rec.wrap(
            fn, "evaluate", on_points(binding.endswith(".verify"))),
            per_binding=True)

    quad = em.quadrature

    def on_quadrature(kind: str):
        def hook(result, exc, a):
            counts["quadrature.calls"] += 1
            if exc is not None:
                counts["quadrature.not_converged"] += 1
                return
            panels = (getattr(result, "metadata", None) or {}).get("panels") or 0
            config = a.get("config") or quad.DEFAULT_CONFIG
            counts["quadrature.panels"] += panels
            counts["quadrature.final_points"] += panels * config.gauss_order
            base = _initial_panels(quad, kind, a)
            if panels and base:
                counts["quadrature.levels"] += round(math.log2(panels / base)) + 1
        return hook

    for attr, kind in (("windowed_average", "window"),
                       ("fejer_weighted_integral", "fejer"),
                       ("windowed_abs_average", "abs")):
        rec.patch(quad, attr, lambda fn, _b, kind=kind: rec.wrap(
            fn, "quadrature", on_quadrature(kind), (core.NotConvergedError,)))

    spec = em.spectral

    def on_expansion(result, exc, a):
        source, q = a.get("source"), a.get("q")
        if exc is not None:
            counts["spectral.budget_exceeded"] += 1
            return
        comps = math.comb(source.size + q - 1, q)
        meta = getattr(result, "metadata", None) or {}
        counts["spectral.compositions"] += comps
        counts["spectral.raw_pairs"] += meta.get("raw_pairs", comps * comps)
        counts["spectral.modes"] += int(result.omegas.size)
        maxima["spectral.parseval_max"] = max(maxima["spectral.parseval_max"],
                                              meta.get("parseval_rel_err", 0.0))

    for attr, span in (("expand", "spectral.expand"),
                       ("rational_mode_expand", "spectral.rational_expand")):
        rec.patch(spec, attr, lambda fn, _b, span=span: rec.wrap(
            fn, span, on_expansion, (core.TermBudgetExceededError,)))
    for attr in ("integral_exact", "fejer_weighted_exact", "limit_moment"):
        rec.patch(spec, attr, lambda fn, _b: rec.wrap(fn, "spectral.kernel_sum"))

    def on_exact(result, exc, a):
        n, q = len(a.get("values", ())), a.get("q")
        counts["rademacher.exact_compositions"] += math.comb(n + q - 1, q)

    def on_exhaustive(result, exc, a):
        counts["rademacher.sign_vectors"] += 2 ** len(a.get("values", ()))

    rad = em.rademacher
    rec.patch(rad, "exact_even_moment",
              lambda fn, _b: rec.wrap(fn, "rademacher.exact", on_exact))
    rec.patch(rad, "exhaustive_moment",
              lambda fn, _b: rec.wrap(fn, "rademacher.exhaustive", on_exhaustive))

    def on_divisors(result, exc, a):
        counts["zeta.divisor_entries"] += int(result.x)

    def on_coefficients(result, exc, a):
        counts["zeta.coefficient_entries"] += int(result.limit)

    zeta = em.zeta
    rec.patch(zeta, "divisor_table",
              lambda fn, _b: rec.wrap(fn, "zeta.divisor_table", on_divisors))
    rec.patch(zeta, "power_coefficients",
              lambda fn, _b: rec.wrap(fn, "zeta.power_coefficients", on_coefficients))
    rec.patch(zeta, "growth_fit", lambda fn, _b: rec.wrap(fn, "zeta.growth_fit"))


def _initial_panels(quad, kind: str, a: dict) -> int:
    """Panel count of the first refinement level, from ``bandlimit``."""
    source = a.get("source")
    if source is None:
        return 0
    if kind == "fejer":
        params = a["params"]
        band = max(quad.bandlimit(source, a["q"]), 1.0 / params.T)
        return 2 * max(1, math.ceil(params.T * band / math.pi))
    band = quad.bandlimit(source, a["q"] if kind == "window" else 1)
    if band == 0.0:
        return 0
    return max(1, math.ceil(2 * a["window"].half_width * band / math.pi))


# --------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# --------------------------------------------------------------------------

def layer_metrics(rec: Recorder, wall_s: float) -> dict[str, float]:
    durations = [end - start for _, start, end, _, _ in rec.spans]
    covered = [0.0] * len(rec.spans)
    for i, (_, _, _, parent, _) in enumerate(rec.spans):
        if parent >= 0:
            covered[parent] += durations[i]
    self_time: dict[str, float] = defaultdict(float)
    for i, (name, *_rest) in enumerate(rec.spans):
        self_time[name] += durations[i] - covered[i]

    out = {metric: self_time.get(span, 0.0)
           for span, metric in SELF_TIME_METRICS.items()}
    c, m = rec.counts, rec.maxima
    for key in ("evaluate.points", "evaluate.grid_points", "evaluate.term_points",
                "quadrature.calls", "quadrature.panels", "quadrature.points",
                "quadrature.not_converged", "spectral.compositions",
                "spectral.raw_pairs", "spectral.modes", "spectral.budget_exceeded",
                "rademacher.exact_compositions", "rademacher.sign_vectors",
                "zeta.divisor_entries", "zeta.coefficient_entries",
                "verify.reports"):
        out[key] = float(c[key])
    out["evaluate.chunk_mb"] = m["evaluate.chunk_mb"]
    out["spectral.parseval_max"] = m["spectral.parseval_max"]
    out["evaluate.ns_per_term_point"] = _ratio(out["evaluate.s"] * 1e9,
                                               c["evaluate.term_points"])
    out["quadrature.levels"] = _ratio(c["quadrature.levels"], c["quadrature.calls"])
    out["quadrature.useful_point_share"] = _ratio(c["quadrature.final_points"],
                                                  c["quadrature.points"])
    out["spectral.modes_per_pair"] = _ratio(c["spectral.modes"],
                                            c["spectral.raw_pairs"])
    out["zeta.divisor_entries_per_s"] = _ratio(c["zeta.divisor_entries"],
                                               out["zeta.divisor_table_s"])
    out["verify.auto_spectral_share"] = _ratio(c["verify.spectral_reports"],
                                               c["verify.reports"])
    out["trace.wall_s"] = wall_s
    out["trace.accounted_s"] = math.fsum(self_time.values())
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
