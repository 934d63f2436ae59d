"""Per-layer spans recorded from outside the program.

``Tracer.install`` rebinds each layer's public entry point, at every qpart
module that holds it, to a wrapper that records a span; ``uninstall`` puts
the original names back.  Spans stay in memory as
``[name, start, end, parent index, job id, counts]`` and are written once,
after the run.  A layer's time is its spans' self time: duration minus the
part covered by child spans.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

# (module, entry point, span name); partition spans are named by mode below
ENTRIES = (
    ("qpart.circuit", "parse_qasm", "circuit.parse"),
    ("qpart.grouping", "find_groups", "grouping.find_groups"),
    ("qpart.hypergraph", "build_hypergraph", "hypergraph.build"),
    ("qpart.hypergraph", "cut_cost", "hypergraph.cut_cost"),
    ("qpart.fm", "partition", "fm"),
    ("qpart.distribution", "plan_distribution", "distribution.plan"),
    ("qpart.distribution", "emit_subcircuits", "distribution.emit"),
)


def _counts(name: str, args, out) -> dict:
    """Work counts read from an entry point's arguments and return value."""
    if name == "circuit.parse":
        return {"gates": len(out.gates)}
    if name == "grouping.find_groups":
        return {"reuse_groups": sum(1 for g in out if g.is_reuse)}
    if name == "hypergraph.build":
        return {"pins": sum(len(e.pins) for e in out.edges)}
    if name == "fm.refine":
        return {"passes": out.passes_run, "gain_updates": out.gain_updates}
    if name == "fm.random":
        return {"ebits": out.cut.ebits, "baseline": (id(args[0]), args[1].blocks)}
    if name == "distribution.plan":
        return {"channels": len(out.channels),
                "fallback_ebits": out.ebits - out.cut.ebits}
    if name == "distribution.emit":
        return {"texts": out}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_name = name
            if name == "fm":
                config = args[1] if len(args) > 1 else kwargs["config"]
                span_name = "fm.random" if config.mode.value == "random" else "fm.refine"
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            rec[5] = _counts(span_name, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "qpart" or key.startswith("qpart."))]
        for mod_name, attr, name in ENTRIES:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def write(self, path) -> None:
        rows = [[n, s, e, p, j, {k: v for k, v in (c or {}).items() if k != "texts"}]
                for n, s, e, p, j, c in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "counts"],
                       "spans": rows}, fh, separators=(",", ":"))


def layer_metrics(spans: list[list], job_seconds: float, bad_slot_refs) -> dict:
    """Per-layer metrics summed over one pass's spans.

    ``job_seconds`` is the pass's summed job time; ``bad_slot_refs`` counts
    slot rule violations in one emitted program's text.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    top_level = 0.0
    baselines: dict[tuple, list[int]] = defaultdict(list)
    for i, (name, start, end, parent, job, c) in enumerate(spans):
        self_s[name] += end - start - child[i]
        calls[name] += 1
        if parent < 0:
            top_level += end - start
        c = c or {}
        if name == "fm.random":
            baselines[(job, *c["baseline"])].append(c["ebits"])
        elif name == "distribution.emit":
            counts["emit_bytes"] += sum(len(t) for t in c["texts"])
            counts["bad_slot_refs"] += sum(bad_slot_refs(t) for t in c["texts"])
        else:
            for key, value in c.items():
                counts[key] += value
    parse_s = self_s["circuit.parse"]
    return {
        "circuit.parse_s": (parse_s, "s"),
        "circuit.gates": (counts["gates"], "count"),
        "circuit.gates_per_s": (counts["gates"] / parse_s if parse_s else 0.0, "1/s"),
        "grouping.find_groups_s": (self_s["grouping.find_groups"], "s"),
        "grouping.reuse_groups": (counts["reuse_groups"], "count"),
        "hypergraph.build_s": (self_s["hypergraph.build"], "s"),
        "hypergraph.pins": (counts["pins"], "count"),
        "hypergraph.cut_cost_s": (self_s["hypergraph.cut_cost"], "s"),
        "hypergraph.cut_cost_calls": (calls["hypergraph.cut_cost"], "count"),
        "fm.refine_s": (self_s["fm.refine"], "s"),
        "fm.refine_calls": (calls["fm.refine"], "count"),
        "fm.passes": (counts["passes"], "count"),
        "fm.gain_updates": (counts["gain_updates"], "count"),
        "fm.random_s": (self_s["fm.random"], "s"),
        "fm.random_calls": (calls["fm.random"], "count"),
        "fm.random_ebits_std": (sum(statistics.pstdev(v) for v in baselines.values()), "ebits"),
        "fm.random_ebits_min": (sum(min(v) for v in baselines.values()), "ebits"),
        "distribution.plan_s": (self_s["distribution.plan"], "s"),
        "distribution.plan_calls": (calls["distribution.plan"], "count"),
        "distribution.channels": (counts["channels"], "count"),
        "distribution.fallback_ebits": (counts["fallback_ebits"], "ebits"),
        "distribution.bad_slot_refs": (counts["bad_slot_refs"], "count"),
        "distribution.emit_s": (self_s["distribution.emit"], "s"),
        "distribution.emit_bytes": (counts["emit_bytes"], "bytes"),
        "cli.self_s": (job_seconds - top_level, "s"),
    }
