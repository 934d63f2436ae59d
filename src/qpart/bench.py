"""Seeded experiment suite over circuits x methods x block counts.

A suite runs the full pipeline (parse -> [group] -> build -> partition ->
account) for every requested combination and collects one BenchRow per
(circuit, method, seed, k).  The Random method is the baseline: it has one
row per seed in the suite's range, and a method's improvement is measured
against the mean random ebits over that range, always on the same
hypergraph the method itself was partitioned on.  A (circuit, k)'s Random
rows are scored in one batch from ``fm.random_deals``, the random
partition of every seed with its cut, plus the per-block ledger of
``distribution._plan_ledger``; each row equals what ``partition`` and
``plan_distribution`` give for its seed, over all k QPUs.  FMGrouped's
baseline is on the grouped hypergraph, which has no Random rows of its
own, so it is ``fm.expected_ebits`` there: the exact mean over every
random deal, which the Random rows' mean would only estimate.  FM's
baseline stays the mean of its Random rows, so that the summary can be
rebuilt from the CSV.  A row carries
its figures, not its plan: build one with ``partition`` and
``plan_distribution`` for the row's seed and mode.

A deal is a shuffle (``fm._shuffles``: the seed and the qubit count) dealt
into blocks (k, the capacities and the weights).  The shuffle does not
depend on k, so a suite shuffles each seed of its range once per circuit
and deals that one draw, seeds x width matrices of the smallest unsigned
dtype, for the Random rows at every k.
A Random row's ``runtime_ms`` is its k's batch time plus the whole draw's
time, divided by the seed count: each k's rows carry the draw as if that
k had made it alone.

Row order is deterministic and the CSV is byte-stable for a given spec
apart from the runtime column.
"""
from __future__ import annotations

import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .circuit import Circuit, parse_qasm
from .distribution import _plan_ledger, plan_distribution
from .fm import (Mode, PartitionConfig, _shuffles, expected_ebits, partition,
                 random_deals, resolve_capacities)
from .generators import CircuitFamily, generate
from .grouping import find_groups
from .hypergraph import Hypergraph, build_hypergraph

METHODS = ("Random", "FM", "FMGrouped")


def _typed(field: str, value, kind, what: str):
    """``value`` if it is a ``kind`` (a bool counts as no number), else a
    ValueError naming the suite ``field``."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ValueError(f"suite field {field!r} must be {what}, not {value!r}")


def _known(what: str, obj: dict, keys: tuple[str, ...]) -> None:
    """A ValueError naming the first key of ``obj`` that is not in ``keys``,
    so that a misspelt field is refused rather than left at its default."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"{what} has unknown key {key!r}; "
                             f"expected {', '.join(map(repr, keys))}")


def _member(field: str, value, enum):
    """The ``enum`` member whose value is ``value``, else a ValueError
    naming the suite ``field``."""
    for m in enum:
        if m.value == value:
            return m
    raise ValueError(f"suite field {field!r} must be one of "
                     f"{', '.join(m.value for m in enum)}, not {value!r}")


@dataclass(frozen=True)
class CircuitJob:
    """One circuit to benchmark: a generated family or a QASM file."""

    label: str
    family: CircuitFamily | None = None
    n: int | None = None
    gen_seed: int = 0
    path: str | None = None

    @classmethod
    def parse(cls, entry) -> "CircuitJob":
        """Accepts {"family","n","seed"?}, {"file"}, "family:n[:seed]", or a
        path; any other entry is a ValueError naming the bad field."""
        if isinstance(entry, dict):
            _known(f"circuit {entry!r}", entry,
                   ("file",) if "file" in entry else ("family", "n", "seed"))
            if "file" in entry:
                path = _typed("file", entry["file"], str, "a path")
                return cls(label=Path(path).stem, path=path)
            if "family" not in entry or "n" not in entry:
                raise ValueError(f"circuit {entry!r} needs a 'file', or a 'family' and an 'n'")
            fam = _member("family", entry["family"], CircuitFamily)
            n = _typed("n", entry["n"], int, "an integer")
            seed = _typed("seed", entry.get("seed", 0), int, "an integer")
            return cls(label=f"{fam.value}{n}", family=fam, n=n, gen_seed=seed)
        text = _typed("circuits", entry, str,
                      "a list of 'family:n[:seed]' strings, paths or objects")
        head = text.split(":", 1)[0]
        if ":" in text and head in {f.value for f in CircuitFamily}:
            parts = text.split(":")
            fam = CircuitFamily(parts[0])
            n = int(parts[1])
            seed = int(parts[2]) if len(parts) > 2 else 0
            return cls(label=f"{fam.value}{n}", family=fam, n=n, gen_seed=seed)
        return cls(label=Path(text).stem, path=text)

    def load(self) -> Circuit:
        if self.path is not None:
            return parse_qasm(Path(self.path).read_text(), name=self.label)
        return generate(self.family, self.n, self.gen_seed)


@dataclass(frozen=True)
class SuiteSpec:
    """What to run.  ``capacities`` aligns with ``parts`` entry for entry;
    None (or a None entry) means an equal split.  Seeds are the half-open
    range [seed_from, seed_to) used for the Random baseline."""

    circuits: tuple[CircuitJob, ...]
    methods: tuple[str, ...] = METHODS
    parts: tuple[int, ...] = (2,)
    capacities: tuple[tuple[int, ...] | None, ...] | None = None
    seed_from: int = 0
    seed_to: int = 1000
    restarts: int = 8
    mode: Mode = Mode.RECURSIVE_BISECT

    def __post_init__(self) -> None:
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
        if any(k < 2 for k in self.parts):
            raise ValueError(f"parts {list(self.parts)}: every k must be at least 2")
        if self.capacities is not None and len(self.capacities) != len(self.parts):
            raise ValueError("capacities must align with parts, one profile per k")
        if self.seed_to <= self.seed_from:
            raise ValueError("empty seed range")

    @classmethod
    def from_json(cls, data) -> "SuiteSpec":
        """The spec a suite file's JSON describes; a missing ``circuits``, a
        field of the wrong shape or an unknown key is a ValueError naming
        it."""
        if not isinstance(data, dict):
            raise ValueError(f"a suite must be a JSON object, not {data!r}")
        _known("suite", data, ("circuits", "methods", "parts", "capacities", "seeds",
                               "restarts", "mode"))

        def ints(field, value, what="a list of integers"):
            return tuple(_typed(field, x, int, what) for x in _typed(field, value, list, what))

        circuits = _typed("circuits", data.get("circuits"), list, "a list")
        seeds = _typed("seeds", data.get("seeds", {}), dict, "an object")
        _known("suite field 'seeds'", seeds, ("from", "to"))
        per_k = "a list with one integer list or null per k"
        caps = _typed("capacities", data.get("capacities"), (list, type(None)), per_k)
        if caps is not None:
            caps = tuple(None if c is None else ints("capacities", c, per_k) for c in caps)
        return cls(
            circuits=tuple(CircuitJob.parse(c) for c in circuits),
            methods=tuple(_typed("methods", data.get("methods", list(METHODS)), list,
                                 "a list of method names")),
            parts=ints("parts", data.get("parts", [2])),
            capacities=caps,
            seed_from=_typed("seeds", seeds.get("from", 0), int, "integer 'from' and 'to'"),
            seed_to=_typed("seeds", seeds.get("to", 1000), int, "integer 'from' and 'to'"),
            restarts=_typed("restarts", data.get("restarts", 8), int, "an integer"),
            mode=_member("mode", data.get("mode", "fm"), Mode),
        )


CSV_COLUMNS = ("circuit", "n", "size", "depth", "method", "k", "capacities",
               "seed", "cut_edges", "ebits", "r_per_block", "runtime_ms")


@dataclass(frozen=True)
class BenchRow:
    circuit: str
    n: int
    size: int
    depth: int
    method: str
    k: int
    capacities: tuple[int, ...]
    seed: int
    cut_edges: int
    ebits: int
    r_per_block: tuple[float | None, ...]
    runtime_ms: float

    def csv_cells(self) -> list[str]:
        return [self.circuit, str(self.n), str(self.size), str(self.depth),
                self.method, str(self.k),
                ";".join(str(c) for c in self.capacities),
                str(self.seed), str(self.cut_edges), str(self.ebits),
                ";".join("-" if r is None else str(round(r, 4))
                         for r in self.r_per_block),
                f"{self.runtime_ms:.3f}"]


def _one_run(job: CircuitJob, circuit: Circuit, h: Hypergraph, groups,
             method: str, config: PartitionConfig, caps: list[int]) -> BenchRow:
    t0 = time.perf_counter()
    result = partition(h, config)
    ms = (time.perf_counter() - t0) * 1000.0
    plan = plan_distribution(circuit, h, list(result.assignment), groups=groups,
                             blocks=config.blocks)
    return BenchRow(circuit=job.label, n=circuit.width, size=circuit.size,
                    depth=circuit.depth, method=method, k=config.blocks,
                    capacities=tuple(caps), seed=config.seed,
                    cut_edges=result.cut.cut_edges, ebits=result.cut.ebits,
                    r_per_block=tuple(p.r for p in plan.per_block),
                    runtime_ms=ms)


def _random_rows(job: CircuitJob, circuit: Circuit, h: Hypergraph, groups,
                 config: PartitionConfig, caps: list[int], seeds, draw,
                 draw_ms: float) -> list[BenchRow]:
    """One Random row per seed, scored in one batch: ``fm.random_deals`` of
    ``draw``, the seeds' ``fm._shuffles`` made in ``draw_ms``, with the o
    and e of every QPU from ``distribution._plan_ledger``.  Each row equals
    what ``_one_run`` makes for its seed, except that ``runtime_ms`` is the
    batch time, draw included, over the seed count.
    """
    t0 = time.perf_counter()
    ledger = _plan_ledger(circuit, h, config.blocks, groups)
    scored = []
    for assign, cut_edges, ebits in random_deals(h, config, draw):
        o, e = ledger(assign)
        scored.extend(zip(cut_edges.tolist(), ebits.tolist(), o.tolist(), e.tolist()))
    ms = ((time.perf_counter() - t0) * 1000.0 + draw_ms) / len(scored)
    return [BenchRow(circuit=job.label, n=circuit.width, size=circuit.size,
                     depth=circuit.depth, method="Random", k=config.blocks,
                     capacities=tuple(caps), seed=seed, cut_edges=cut, ebits=eb,
                     r_per_block=tuple(x / y if y else None for x, y in zip(e, o)),
                     runtime_ms=ms)
            for seed, (cut, eb, o, e) in zip(seeds, scored)]


def run_suite(spec: SuiteSpec, strict: bool = False) -> tuple[list[BenchRow], list[dict]]:
    """All rows in spec order plus one improvement summary per (circuit, k).

    A missing circuit file is skipped with a warning unless ``strict``.
    Improvement is None when there is no baseline or the baseline is zero.
    """
    rows: list[BenchRow] = []
    summaries: list[dict] = []
    for job in spec.circuits:
        try:
            circuit = job.load()
        except FileNotFoundError:
            if strict:
                raise
            print(f"warning: skipping missing circuit file {job.path}", file=sys.stderr)
            continue
        h_plain = build_hypergraph(circuit)
        groups = find_groups(circuit) if "FMGrouped" in spec.methods else None
        h_grouped = build_hypergraph(circuit, groups) if groups is not None else None
        seeds = range(spec.seed_from, spec.seed_to)
        draw, draw_ms = None, 0.0
        if "Random" in spec.methods:
            # the shuffle does not depend on k, so one draw deals every k's rows
            t0 = time.perf_counter()
            draw = list(_shuffles(circuit.width, seeds))
            draw_ms = (time.perf_counter() - t0) * 1000.0

        for ki, k in enumerate(spec.parts):
            caps_in = spec.capacities[ki] if spec.capacities is not None else None
            caps = resolve_capacities(caps_in, circuit.width, k)
            summary = {"circuit": job.label, "n": circuit.width, "k": k,
                       "random_mean_ebits": None,
                       "fm_ebits": None, "fm_improvement_pct": None,
                       "fm_grouped_ebits": None, "fm_grouped_improvement_pct": None}

            def config(method_mode: Mode, seed: int, restarts: int) -> PartitionConfig:
                return PartitionConfig(blocks=k, capacities=caps_in, restarts=restarts,
                                       seed=seed, mode=method_mode)

            if "Random" in spec.methods:
                random_rows = _random_rows(job, circuit, h_plain, None,
                                           config(Mode.RANDOM, spec.seed_from, 1), caps,
                                           seeds, draw, draw_ms)
                rows.extend(random_rows)
                summary["random_mean_ebits"] = \
                    sum(r.ebits for r in random_rows) / len(random_rows)

            if "FM" in spec.methods:
                row = _one_run(job, circuit, h_plain, None, "FM",
                               config(spec.mode, spec.seed_from, spec.restarts), caps)
                rows.append(row)
                summary["fm_ebits"] = row.ebits
                base = summary["random_mean_ebits"]
                if base:
                    summary["fm_improvement_pct"] = 100.0 * (base - row.ebits) / base

            if "FMGrouped" in spec.methods:
                row = _one_run(job, circuit, h_grouped, groups, "FMGrouped",
                               config(spec.mode, spec.seed_from, spec.restarts), caps)
                rows.append(row)
                summary["fm_grouped_ebits"] = row.ebits
                if "Random" in spec.methods:
                    # baseline on the same (grouped) hypergraph the method saw
                    base = expected_ebits(h_grouped, config(Mode.RANDOM, spec.seed_from, 1))
                    if base:
                        summary["fm_grouped_improvement_pct"] = \
                            100.0 * (base - row.ebits) / base

            summaries.append(summary)
    return rows, summaries


def write_csv(rows: list[BenchRow], out) -> None:
    """Write rows to a path or file object, header first, spec order."""
    if hasattr(out, "write"):
        w = csv.writer(out, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for row in rows:
            w.writerow(row.csv_cells())
        return
    with open(out, "w", newline="") as fh:
        write_csv(rows, fh)


def format_summary(summaries: list[dict]) -> str:
    lines = []
    for s in summaries:
        bits = [f"{s['circuit']} k={s['k']}"]
        if s["random_mean_ebits"] is not None:
            bits.append(f"random mean ebits {s['random_mean_ebits']:.2f}")
        if s["fm_ebits"] is not None:
            imp = s["fm_improvement_pct"]
            bits.append(f"FM ebits {s['fm_ebits']}"
                        + (f" ({imp:.1f}% better)" if imp is not None else ""))
        if s["fm_grouped_ebits"] is not None:
            imp = s["fm_grouped_improvement_pct"]
            bits.append(f"FMGrouped ebits {s['fm_grouped_ebits']}"
                        + (f" ({imp:.1f}% better)" if imp is not None else ""))
        lines.append("  ".join(bits))
    return "\n".join(lines)


def load_suite(path: str) -> SuiteSpec:
    with open(path) as fh:
        return SuiteSpec.from_json(json.load(fh))
