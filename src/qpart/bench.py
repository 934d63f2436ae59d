"""Seeded experiment suite over circuits x methods x block counts.

A suite runs the full pipeline (parse -> build, grouped for FMGrouped ->
partition -> account) for every requested combination and collects one
BenchRow per (circuit, method, seed, k).  The Random method is the
baseline: it has one row per seed in the suite's range, and a method's
improvement is measured against the mean random ebits over that range,
always on the same hypergraph the method itself was partitioned on.  FMGrouped's is on the
grouped hypergraph, which has no Random rows, so it is
``fm.expected_ebits`` there, the exact mean over every random deal; FM's
stays the mean of its Random rows, so the summary can be rebuilt from the
CSV.

Every row is scored by ``_rows``: a method hands it priced assignment
matrices, and each QPU's o and e come from the batched
``distribution._plan_ledger``, so a row equals what ``partition`` and
``plan_distribution`` give for its seed, over all k QPUs, without a plan.
The Random rows are ``fm.random_deals`` of every seed; the FM row is
``partition`` at the range's first seed and shares their ledger of the
plain hypergraph; FMGrouped's row gets one ledger of the grouped one.

A deal is a shuffle (``fm._shuffles``: the seed and the qubit count) dealt
into blocks (k, the capacities and the weights).  The shuffle does not
depend on k, so a suite shuffles each seed once per circuit and deals that
one draw, seeds x width matrices of the smallest unsigned dtype, at every
k.  A row's ``runtime_ms`` is its method's time plus its scoring time
(building its ledger, unless the Random rows did), over its seed count.
A Random row's method time is the whole draw's, so each k's rows carry
the draw as if that k had made it alone; FM's and FMGrouped's is
``partition``'s.

Row order is deterministic and the CSV is byte-stable for a given spec
apart from the runtime column.
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import Circuit, parse_qasm
from .distribution import _plan_ledger
from .fm import (Mode, PartitionConfig, _shuffles, expected_ebits, partition,
                 random_deals, resolve_capacities)
from .generators import CircuitFamily, generate
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
        path; any other entry, or a shorthand with an extra or a non-integer
        field, is a ValueError naming the bad field or the shorthand."""
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
        family, *fields = text.split(":")
        if fields and family in {f.value for f in CircuitFamily}:
            try:  # one field is n; a third one fails to unpack
                n, seed = map(int, fields if len(fields) == 2 else [*fields, 0])
            except ValueError:
                raise ValueError(f"circuit {text!r} is not of the form family:n[:seed] "
                                 "with an integer n and seed") from None
            return cls(label=f"{family}{n}", family=CircuitFamily(family), n=n, gen_seed=seed)
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
        if self.mode is Mode.RANDOM:  # the FM rows would be random deals labelled FM
            raise ValueError("suite field 'mode' must be fm or kway, not 'random'")

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


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def _rows(job: CircuitJob, circuit: Circuit, method: str, caps: list[int], seeds,
          ledger, priced, ms: float) -> list[BenchRow]:
    """One row of ``method`` per seed of ``seeds``, in order.

    ``priced`` yields (assign, cut_edges, ebits): a seeds x vertices block
    matrix and each row's cut edges and ebits, as ``fm.random_deals`` does.
    ``ledger`` is ``distribution._plan_ledger`` over the hypergraph they
    partition, so a row's ``r_per_block`` is ``plan_distribution``'s, and a
    row it refuses raises the plan's InfeasibleError.  ``runtime_ms`` is
    ``ms``, the method's time, plus the time spent here, over the seed
    count.
    """
    t0 = time.perf_counter()
    scored = []
    for assign, cut_edges, ebits in priced:
        o, e = ledger(assign)
        scored.extend(zip(cut_edges.tolist(), ebits.tolist(), o.tolist(), e.tolist()))
    ms = (ms + _ms_since(t0)) / len(scored)
    return [BenchRow(circuit=job.label, n=circuit.width, size=circuit.size,
                     depth=circuit.depth, method=method, k=len(caps),
                     capacities=tuple(caps), seed=seed, cut_edges=cut, ebits=eb,
                     r_per_block=tuple(x / y if y else None for x, y in zip(e, o)),
                     runtime_ms=ms)
            for seed, (cut, eb, o, e) in zip(seeds, scored)]


def run_suite(spec: SuiteSpec) -> tuple[list[BenchRow], list[dict]]:
    """All rows in spec order plus one improvement summary per (circuit, k).

    A missing circuit file raises FileNotFoundError.  Improvement is None
    when there is no baseline or the baseline is zero.
    """
    rows: list[BenchRow] = []
    summaries: list[dict] = []
    for job in spec.circuits:
        circuit = job.load()
        h_plain = build_hypergraph(circuit)
        h_grouped = build_hypergraph(circuit, grouped=True) \
            if "FMGrouped" in spec.methods else None
        seeds = range(spec.seed_from, spec.seed_to)
        draw, draw_ms = None, 0.0
        if "Random" in spec.methods:
            # the shuffle does not depend on k, so one draw deals every k's rows
            t0 = time.perf_counter()
            draw = list(_shuffles(circuit.width, seeds))
            draw_ms = _ms_since(t0)

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

            plain = None  # h_plain's ledger, shared by the Random rows and FM
            if "Random" in spec.methods:
                t0 = time.perf_counter()
                plain = _plan_ledger(circuit, h_plain, k)
                random_rows = _rows(job, circuit, "Random", caps, seeds, plain,
                                    random_deals(h_plain, config(Mode.RANDOM, spec.seed_from, 1),
                                                 draw), draw_ms + _ms_since(t0))
                rows.extend(random_rows)
                summary["random_mean_ebits"] = \
                    sum(r.ebits for r in random_rows) / len(random_rows)

            for method, key, h in (("FM", "fm", h_plain), ("FMGrouped", "fm_grouped", h_grouped)):
                if method not in spec.methods:
                    continue
                t0 = time.perf_counter()
                ledger = plain if method == "FM" and plain is not None else \
                    _plan_ledger(circuit, h, k)
                result = partition(h, config(spec.mode, spec.seed_from, spec.restarts))
                priced = (np.array([result.assignment], dtype=np.intp),
                          np.array([result.cut.cut_edges]), np.array([result.cut.ebits]))
                row, = _rows(job, circuit, method, caps, [spec.seed_from], ledger, [priced],
                             _ms_since(t0))
                rows.append(row)
                summary[f"{key}_ebits"] = row.ebits
                if "Random" in spec.methods:
                    # baseline on the same hypergraph the method saw
                    base = summary["random_mean_ebits"] if method == "FM" else \
                        expected_ebits(h, config(Mode.RANDOM, spec.seed_from, 1))
                    if base:
                        summary[f"{key}_improvement_pct"] = 100.0 * (base - row.ebits) / base

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
        for method, key in (("FM", "fm"), ("FMGrouped", "fm_grouped")):
            if s[f"{key}_ebits"] is not None:
                imp = s[f"{key}_improvement_pct"]
                bits.append(f"{method} ebits {s[f'{key}_ebits']}"
                            + (f" ({imp:.1f}% better)" if imp is not None else ""))
        lines.append("  ".join(bits))
    return "\n".join(lines)


def load_suite(path: str) -> SuiteSpec:
    with open(path) as fh:
        return SuiteSpec.from_json(json.load(fh))
