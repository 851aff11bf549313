"""Span-recording wrappers installed on minorsieve's layers from outside.

``install()`` wraps every public function of each layer module and
rebinds the wrapper under every name that refers to the function in any
loaded ``minorsieve`` module.  The rebinding matters: the package uses
``from .canon import canonical_data`` style imports, so patching only the
defining module would miss every cross-layer call.  Calls inside a
module go through its globals too, so they are caught as well.

A span is one call of a wrapped function.  Spans are aggregated as they
close instead of being kept in a list: a layer's self time is its span
time minus the time of the spans its calls opened, and a few functions
keep their durations for percentiles.  Generator functions are not
wrapped (a span would close before the work runs); their work lands in
the span of whatever consumes them.

Two private functions of ``generate`` get count-only hooks, because no
public function exposes them: ``_accept`` (accepted augmentation
children) and ``_final_pairs`` (final-level builds).  A missing hook
raises, so a rename shows up as a failed traced run, not as a zero.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("canon", "planarity", "properties", "minimality", "generate",
          "catalog", "formats", "cli")

# canonical searches: every call runs one _Search
_CANON_SEARCHES = frozenset({"canonical_data", "canonical_key_rows",
                             "canonical_perm"})
_DECIDERS = frozenset({"is_minor_minimal", "is_minor_minimal_upclosed",
                       "is_minor_minimal_exhaustive", "is_mmne", "is_mmnc"})
_SCANS = frozenset({"first_planar_vertex_deletion",
                    "first_planar_edge_deletion", "first_planar_contraction"})
_PARSERS = frozenset({"read_graphs", "parse_graph_line", "parse_graph6",
                      "parse_edge_list"})


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tracer:
    """Span aggregates for one traced process."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [layer, child seconds]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: dict[str, int] = {}  # "layer.function" -> spans
        self.canon_by_caller: dict[str, int] = {}
        self.canon_us: list[float] = []
        self.lr_us: list[float] = []
        self.planarity_calls = 0
        self.decision_ms: list[float] = []
        self.hits = 0
        self.claim_ms: list[float] = []
        self.parse_s = 0.0
        self.accepted = 0
        self.canon_data_from_generate = 0
        self.final_levels = 0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, layer: str, name: str, func):
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        key = f"{layer}.{name}"
        calls[key] = 0
        observe = self._observer(layer, name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s[layer] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                calls[key] += 1
            if observe is not None:
                observe(args, result, dur,
                        None if parent is None else parent[0])
            return result

        return wrapper

    def _observer(self, layer: str, name: str):
        if layer == "canon" and name in _CANON_SEARCHES:
            return self._canon_search if name != "canonical_data" \
                else self._canonical_data
        if layer == "planarity":
            return self._lr_rows if name == "is_planar_rows" \
                else self._planarity_entry
        if layer == "minimality" and name in _DECIDERS:
            return self._decision
        if layer == "catalog" and name == "check_claim":
            return self._claim
        if layer == "formats" and name in _PARSERS:
            return self._parse
        return None

    def _caller(self) -> str:
        """Layer of the innermost open span outside canon."""
        for frame in reversed(self.stack):
            if frame[0] != "canon":
                return frame[0]
        return "none"

    def _canon_search(self, args, result, dur, parent):
        caller = self._caller()
        self.canon_by_caller[caller] = self.canon_by_caller.get(caller, 0) + 1
        self.canon_us.append(dur * 1e6)

    def _canonical_data(self, args, result, dur, parent):
        self._canon_search(args, result, dur, parent)
        if parent == "generate":
            self.canon_data_from_generate += 1

    def _planarity_entry(self, args, result, dur, parent):
        if parent != "planarity":
            self.planarity_calls += 1

    def _lr_rows(self, args, result, dur, parent):
        self._planarity_entry(args, result, dur, parent)
        rows = args[0]
        n = len(rows)
        m = sum(r.bit_count() for r in rows) // 2
        if 8 < m <= 3 * n - 6:  # not settled by is_planar_rows' shortcuts
            self.lr_us.append(dur * 1e6)

    def _decision(self, args, result, dur, parent):
        if parent != "minimality":
            self.decision_ms.append(dur * 1e3)
            self.hits += bool(result)

    def _claim(self, args, result, dur, parent):
        self.claim_ms.append(dur * 1e3)

    def _parse(self, args, result, dur, parent):
        if parent != "formats":
            self.parse_s += dur

    def _count_accepted(self, func):
        def hook(*args):
            result = func(*args)
            if result is not None:
                self.accepted += 1
            return result
        return hook

    def _count_final_levels(self, func):
        def hook(*args, **kwargs):
            self.final_levels += 1
            return func(*args, **kwargs)
        return hook

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"minorsieve.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or isinstance(obj, type) \
                        or not callable(obj) \
                        or getattr(obj, "__module__", None) != mod.__name__ \
                        or inspect.isgeneratorfunction(obj):
                    continue
                replace[id(obj)] = (obj, self.wrap(layer, name, obj))
        generate = sys.modules["minorsieve.generate"]
        hooks = {"_accept": self._count_accepted,
                 "_final_pairs": self._count_final_levels}
        for name, make in hooks.items():
            func = getattr(generate, name, None)
            if func is None:
                raise RuntimeError(f"generate.{name} is gone; update "
                                   "the benchmark's tracer")
            replace[id(func)] = (func, make(func))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "minorsieve" and \
                    not mod_name.startswith("minorsieve."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of the traced process (see BENCHMARK.json)."""
        by = self.canon_by_caller
        decisions = len(self.decision_ms)
        out = {
            "canon.calls": sum(self.calls[f"canon.{n}"]
                               for n in _CANON_SEARCHES),
            "canon.calls.generate": by.get("generate", 0),
            "canon.calls.minimality": by.get("minimality", 0),
            "canon.calls.other": sum(
                v for k, v in by.items() if k not in ("generate",
                                                      "minimality")),
            "canon.call_us_p50": _percentile(self.canon_us, 50),
            "canon.call_us_p99": _percentile(self.canon_us, 99),
            "generate.accepted": self.accepted,
            "generate.accept_ratio": (
                self.accepted / self.canon_data_from_generate
                if self.canon_data_from_generate else 0.0),
            "generate.final_levels": self.final_levels,
            "planarity.calls": self.planarity_calls,
            "planarity.lr_calls": len(self.lr_us),
            "planarity.lr_us_p50": _percentile(self.lr_us, 50),
            "planarity.lr_us_p99": _percentile(self.lr_us, 99),
            "planarity.calls_per_decision": (
                self.planarity_calls / decisions if decisions else 0.0),
            "properties.scans": sum(self.calls[f"properties.{n}"]
                                    for n in _SCANS),
            "minimality.decisions": decisions,
            "minimality.hits": self.hits,
            "minimality.one_step_calls":
                self.calls["minimality.one_step_minor_rows"],
            "minimality.decision_ms_p50": _percentile(self.decision_ms, 50),
            "minimality.decision_ms_p99": _percentile(self.decision_ms, 99),
            "catalog.claims": len(self.claim_ms),
            "catalog.claim_ms_p50": _percentile(self.claim_ms, 50),
            "catalog.claim_ms_p95": _percentile(self.claim_ms, 95),
            "catalog.claim_ms_max": max(self.claim_ms, default=0.0),
            "formats.parse_s": self.parse_s,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out
