"""Span recorder that wraps gkcover's public functions from outside.

Every public module-level function of each gkcover module, plus the
lazy `Dag.closure`, is replaced by a wrapper that records a span. A name
is patched in every gkcover module namespace that binds it (`networks`,
for one, imports `residual` and `find_negative_cycle` by name), and
restored afterwards. Self time is span time minus the time of child
spans. Counters that functions return (cancels, min-flow searches and
pushes) are read off the return values at the same boundary.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "dagcore", "flowcore", "networks", "greedy", "oracle", "adversarial")


def _record_circulation(rec: "Recorder", result, args) -> None:
    rec.counts["flowcore.min_cost_circulation.cancels"] += result.iterations


def _record_min_flow(rec: "Recorder", result, args) -> None:
    rec.counts["flowcore.min_flow.searches"] += result.searches
    rec.counts["flowcore.min_flow.pushes"] += result.pushes


def _record_path_cover(rec: "Recorder", result, args) -> None:
    rec.path_covers[args[0].n] = (result[1].searches, result[1].pushes)


RESULT_HOOKS = {
    "flowcore.min_cost_circulation": _record_circulation,
    "flowcore.min_flow": _record_min_flow,
    "greedy.minimum_path_cover": _record_path_cover,
}


class Recorder:
    """Spans and per-function totals of one traced pass."""

    def __init__(self, keep_spans: bool):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.request_id = 0
        self.next_span = 0
        # name -> [calls, inclusive ns, self ns]
        self.stats: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.path_covers: dict[int, tuple[int, int]] = {}

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        hook = RESULT_HOOKS.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self.next_span += 1
            frame = [self.next_span, layer, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[1] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span = end - start
                st = self.stats[name]
                st[0] += 1
                st[1] += span
                st[2] += span - frame[2]
                if parent is not None:
                    parent[2] += span
                if self.keep_spans:
                    self.spans.append((self.request_id, frame[0],
                                       parent[0] if parent else 0, name, start, end))
            if hook is not None:
                hook(self, result, args)
            return result

        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for rid, sid, pid, name, start, end in self.spans:
                fh.write(json.dumps({"request": rid, "span": sid, "parent": pid,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")


def traced_functions() -> dict[str, tuple[object, str]]:
    """'layer.function' -> (owner, attribute) for everything the recorder wraps."""
    targets: dict[str, tuple[object, str]] = {}
    for layer in LAYERS:
        mod = sys.modules[f"gkcover.{layer}"]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                targets[f"{layer}.{attr}"] = (mod, attr)
    targets["dagcore.closure"] = (sys.modules["gkcover.dagcore"].Dag, "closure")
    return targets


class patched:
    """Context manager: route every binding of the traced functions
    through `recorder` for the duration of the block."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Recorder:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "gkcover" or name.startswith("gkcover."))]
        for name, (owner, attr) in traced_functions().items():
            orig = getattr(owner, attr)
            wrapper = self.recorder.wrap(name, orig)
            self.undo.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
            for mod in modules:
                for bound, obj in list(vars(mod).items()):
                    if obj is orig:
                        self.undo.append((mod, bound, orig))
                        setattr(mod, bound, wrapper)
        return self.recorder

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self.undo):
            setattr(owner, attr, orig)
        self.undo.clear()


def _sum(stats: dict, names: list[str], field: int) -> int:
    return sum(stats[n][field] for n in names if n in stats)


def layer_metrics(rec: Recorder, targets: list[str]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed by metric name."""
    st = rec.stats
    ms = 1e-6

    def self_ms(*names: str) -> float:
        return _sum(st, list(names), 2) * ms

    def calls(*names: str) -> int:
        return _sum(st, list(names), 0)

    certify = ["dagcore.certify_antichain", "dagcore.certify_chain", "dagcore.certify_path"]
    brute = ["oracle.brute_alpha", "oracle.brute_beta",
             "oracle.brute_min_knorm_chain_partition",
             "oracle.brute_min_knorm_antichain_partition"]
    out: dict[str, float] = {}
    for fn in ("flowcore.find_negative_cycle", "flowcore.residual", "flowcore.check_feasible",
               "greedy.max_coverage_path"):
        out[f"{fn}.self_ms"] = self_ms(fn)
        out[f"{fn}.calls"] = calls(fn)
    for fn in ("flowcore.decompose", "flowcore.shortest_distances",
               "networks.solve_alpha", "networks.solve_beta", "networks.extract_antichains",
               "networks.build_network", "dagcore.build_dag", "dagcore.closure",
               "cli.parse_dag", "cli.main", "oracle.verify_gk", "adversarial.gen_gc"):
        out[f"{fn}.self_ms"] = self_ms(fn)
    for fn in ("networks.solve_alpha", "networks.solve_beta", "greedy.greedy_k_antichains",
               "greedy.greedy_antichain_cover", "greedy.minimum_path_cover"):
        out[f"{fn}.ms"] = _sum(st, [fn], 1) * ms
    out["dagcore.certify.self_ms"] = self_ms(*certify)
    out["dagcore.certify.calls"] = calls(*certify)
    out["oracle.brute.self_ms"] = self_ms(*brute)
    for key in ("flowcore.min_cost_circulation.cancels", "flowcore.min_flow.searches",
                "flowcore.min_flow.pushes"):
        out[key] = rec.counts[key]
    searches = out["flowcore.find_negative_cycle.calls"]
    out["flowcore.cycle_search_hit_ratio"] = (
        out["flowcore.min_cost_circulation.cancels"] / searches if searches else 0.0)
    flow_searches = out["flowcore.min_flow.searches"]
    out["flowcore.min_flow.push_ratio"] = (
        out["flowcore.min_flow.pushes"] / flow_searches if flow_searches else 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_ms(*[t for t in targets if t.startswith(layer + ".")])
        out[f"{layer}.errors"] = rec.errors[layer]
    return out


def is_count(name: str) -> bool:
    """Counts, unlike times and ratios, must repeat exactly between passes and runs."""
    return not name.endswith(("ms", "ratio", "_pct"))
