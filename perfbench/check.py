"""Output checks, written without calling the qpart functions they check.

The checker reads QASM text with its own line parser, finds reuse groups
with its own scan, recomputes connectivity-minus-one from its own pins, and
reads slot use in emitted programs from their text.  ``parse_qasm`` is
called only to confirm that emitted programs re-parse.

Each check returns a list of ``(category, message)`` problems; a job with
any problem counts as failed.  ``KNOWN_DEFECTS`` names the categories that
are failures of the program already on record (see perfbench/README.md):
they count as failed jobs like any other, but only a problem outside them
makes a run incorrect.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass

# emit_subcircuits keys the channel serving a remote operand by (carried
# qubit, remote block) and keeps the last one, so gate lines can name a slot
# that is not the open one.  Remove once emit_subcircuits is fixed.
KNOWN_DEFECTS = frozenset({"slot"})

_GROUPABLE = {"cx", "cz", "cp", "cu1"}
_THREE = {"ccx", "ccz"}
_DECLARATIONS = {"OPENQASM", "include", "qreg", "creg", "opaque"}
_STMT = re.compile(r"([A-Za-z_]\w*)\s*(\([^)]*\))?\s*(.*)")
_REF = re.compile(r"([A-Za-z_]\w*)\[(\d+)\]")
_EBIT = re.compile(r"\bebit\[(\d+)\]")


def statements(text: str):
    """Non-empty statements, one per line, comments stripped."""
    for line in text.splitlines():
        line = line.split("//", 1)[0].strip()
        if line:
            yield line.rstrip(";").strip()


@dataclass
class Source:
    """A circuit as the checker reads it: qubit count and the gate list in
    statement order, operands as dense qubit indices (declaration order)."""

    n: int
    gates: list[tuple[str, tuple[int, ...]]]

    @property
    def operations(self) -> int:
        return sum(1 for name, _ in self.gates if name != "barrier")

    @property
    def has_three_qubit(self) -> bool:
        return any(name in _THREE for name, _ in self.gates)


def read_source(text: str) -> Source:
    offsets: dict[str, int] = {}
    n = 0
    gates = []
    for stmt in statements(text):
        name, _, rest = _STMT.match(stmt).groups()
        if name == "qreg":
            reg, size = _REF.match(rest).groups()
            offsets[reg] = n
            n += int(size)
            continue
        if name in _DECLARATIONS:
            continue
        if name == "measure":
            rest = rest.split("->", 1)[0]
        refs = _REF.findall(rest)
        if len(refs) != rest.count(",") + 1:
            raise ValueError(f"checker reads indexed operands only: {stmt!r}")
        gates.append((name, tuple(offsets[r] + int(i) for r, i in refs)))
    return Source(n=n, gates=gates)


def edges_of(src: Source, grouped: bool) -> list[tuple[int, ...]]:
    """Qubit pin sets of the interaction hypergraph.

    With grouping, a run of CX/CZ/CP gates on one control wire, unbroken by
    any other gate on that wire, becomes one edge over the control and its
    targets once it has two or more members.  The grouping vertex is left
    out: it always sits in a block its edge already spans.
    """
    runs: list[list[tuple[int, int]]] = []  # each run: (seq, target) pairs
    singles: list[tuple[int, tuple[int, ...]]] = []
    open_runs: dict[int, list] = {}

    def close(wire: int) -> None:
        run = open_runs.pop(wire, None)
        if run:
            runs.append((wire, run))

    for seq, (name, ops) in enumerate(src.gates):
        if name in _THREE:
            singles.append((seq, ops))
        if grouped and name in _GROUPABLE:
            control, target = ops
            open_runs.setdefault(control, []).append((seq, target))
            close(target)
        elif name in _GROUPABLE:
            singles.append((seq, ops))
        else:
            for q in ops:
                close(q)
    for wire in list(open_runs):
        close(wire)
    for control, run in runs:
        if len(run) >= 2:
            singles.append((run[0][0], (control, *{t for _, t in run})))
        else:
            singles.extend((seq, (control, t)) for seq, t in run)
    return [pins for _, pins in sorted(singles, key=lambda s: s[0])]


def lambda_minus_one(edges: list[tuple[int, ...]], block_of) -> int:
    return sum(len({block_of[p] for p in pins}) - 1 for pins in edges)


def capacity_bounds(n: int, k: int) -> list[int]:
    """Per-block data bound ceil((1+eps)*cap) for an equal split; every job
    runs with the default eps = 0."""
    base, extra = divmod(n, k)
    return [base + (1 if b < extra else 0) for b in range(k)]


def random_reference_ebits(src: Source, edges, k: int, deals: int,
                           seed: int) -> float:
    """Mean ebits of ``deals`` seeded balanced random deals of the qubits:
    the reference the library workloads' improvement is measured against."""
    rng = random.Random(seed)
    sizes = capacity_bounds(src.n, k)
    total = 0
    for _ in range(deals):
        order = list(range(src.n))
        rng.shuffle(order)
        block_of = [0] * src.n
        pos = 0
        for b, size in enumerate(sizes):
            for q in order[pos:pos + size]:
                block_of[q] = b
            pos += size
        total += 2 * lambda_minus_one(edges, block_of)
    return total / deals


def bad_slot_refs(text: str) -> int:
    """Slot rule violations in one emitted program, from its text alone:
    a statement that names an ``ebit`` slot after that slot's
    ``cat_disentangler``, or a slot released without any earlier use."""
    used: set[int] = set()
    released: set[int] = set()
    bad = 0
    for stmt in statements(text):
        if stmt.startswith("qreg"):
            continue
        slots = [int(s) for s in _EBIT.findall(stmt)]
        if stmt.startswith("cat_disentangler"):
            for s in slots:
                if s not in used or s in released:
                    bad += 1
                released.add(s)
            continue
        for s in slots:
            if s in released:
                bad += 1
            used.add(s)
    return bad


def _program_census(text: str, n: int):
    """(data qubits named, original operations, entangler lines,
    disentangler lines) of one emitted program; the program declares the
    source's n data qubits first, then its ``ebit`` slots."""
    program = read_source(text)
    names = [name for name, _ in program.gates]
    local = {q for _, ops in program.gates for q in ops if q < n}
    ent = names.count("cat_entangler")
    dis = names.count("cat_disentangler")
    return local, len(names) - ent - dis - names.count("barrier"), ent, dis


def _check_emitted(texts: list[str], k: int, parse_qasm) -> list:
    problems = []
    if len(texts) != k:
        return [("emit", f"{len(texts)} programs for {k} blocks")]
    for b, text in enumerate(texts):
        try:
            parse_qasm(text, name=f"block{b}")
        except ValueError as ex:
            problems.append(("reparse", f"block {b}: {ex}"))
        bad = bad_slot_refs(text)
        if bad:
            problems.append(("slot", f"block {b}: {bad} ebit slot rule violations"))
    return problems


# --------------------------------------------------------------------------
# per-workload checks

def check_library(src: Source, k: int, out, parse_qasm) -> list:
    """Checks on a library pipeline job's result, plan and programs."""
    problems = []
    n = src.n
    result, plan = out.result, out.plan
    assign = tuple(result.assignment[:n])
    if len(result.assignment) < n or any(not 0 <= b < k for b in assign):
        return [("cut", "assignment does not map every qubit to a block")]
    lam = lambda_minus_one(edges_of(src, grouped=True), assign)
    for who, cut in (("partition", result.cut), ("plan", plan.cut)):
        if cut.lambda_minus_one != lam or cut.ebits != 2 * lam:
            problems.append(("cut", f"{who} reports lambda-1={cut.lambda_minus_one} "
                                    f"ebits={cut.ebits}, recomputed {lam}"))
    if tuple(plan.assignment[:n]) != assign:
        problems.append(("cut", "plan assignment differs from the partition"))

    data = [0] * k
    for b in assign:
        data[b] += 1
    for b, (d, bound) in enumerate(zip(data, capacity_bounds(n, k))):
        if d > bound:
            problems.append(("capacity", f"block {b} holds {d} qubits, bound {bound}"))
    if [p.data for p in plan.per_block] != data:
        problems.append(("accounting", "plan data counts differ from the assignment"))

    channels = plan.channels
    if sum(p.e for p in plan.per_block) != 2 * len(channels) or plan.ebits != 2 * len(channels):
        problems.append(("accounting", f"sum e={sum(p.e for p in plan.per_block)}, "
                                       f"ebits={plan.ebits}, channels={len(channels)}"))
    if sum(p.o for p in plan.per_block) != src.operations:
        problems.append(("accounting", f"sum o={sum(p.o for p in plan.per_block)}, "
                                       f"operations={src.operations}"))

    serving: dict[tuple[int, int], list] = {}
    for c in channels:
        serving.setdefault((c.carries, c.remote), []).append(c)
    unserved = 0
    for seq, (name, ops) in enumerate(src.gates):
        if name == "barrier":
            continue
        at = plan.exec_block[seq]
        for q in ops:
            if assign[q] != at and not any(c.first_use <= seq <= c.last_use
                                           for c in serving.get((q, at), ())):
                unserved += 1
    if unserved:
        problems.append(("service", f"{unserved} remote operands without an open channel"))

    problems += _check_emitted(out.texts, k, parse_qasm)
    if sum(_program_census(t, n)[3] for t in out.texts) != len(channels):
        problems.append(("emit", "cat_disentangler count differs from the channel count"))
    return problems


def check_report(src: Source, k: int, grouped: bool, out, emitted: list[str] | None,
                 parse_qasm) -> tuple[list, dict | None]:
    """Checks on one ``partition --json`` job; returns (problems, report)."""
    if out.code != 0:
        return [("error", f"exit {out.code}: {out.stderr.strip()[:200]}")], None
    try:
        rep = json.loads(out.stdout)
        blocks = rep["blocks"]
        ebits = rep["ebits"]
    except (ValueError, KeyError, TypeError) as ex:
        return [("output", f"unreadable report: {ex}")], None
    problems = []
    if rep.get("n") != src.n or rep.get("k") != k or len(blocks) != k:
        return [("output", f"report n={rep.get('n')} k={rep.get('k')} "
                           f"blocks={len(blocks)}")], rep
    data = [blk["data"] for blk in blocks]
    e = [blk["e"] for blk in blocks]
    if sum(data) != src.n or any(d > c for d, c in zip(data, capacity_bounds(src.n, k))):
        problems.append(("capacity", f"data per block {data} for {src.n} qubits"))
    if sum(blk["o"] for blk in blocks) != src.operations:
        problems.append(("accounting", f"sum o={sum(blk['o'] for blk in blocks)}, "
                                       f"operations={src.operations}"))
    if sum(e) % 2 or sum(e) < ebits or (not src.has_three_qubit and sum(e) != ebits):
        problems.append(("accounting", f"sum e={sum(e)} against ebits={ebits}"))
    imp = rep.get("improvement_pct")
    if src.n >= k and not (isinstance(imp, (int, float)) and math.isfinite(imp)):
        problems.append(("output", "no improvement over random reported"))
    if emitted is None:
        return problems, rep

    problems += _check_emitted(emitted, k, parse_qasm)
    block_of: dict[int, int] = {}
    for b, text in enumerate(emitted):
        local, ops, ent, dis = _program_census(text, src.n)
        for q in local:
            if block_of.setdefault(q, b) != b:
                problems.append(("emit", f"qubit {q} named on blocks {block_of[q]} and {b}"))
        if ops != blocks[b]["o"]:
            problems.append(("accounting", f"block {b} runs {ops} operations, reports o={blocks[b]['o']}"))
        if ent + dis != blocks[b]["e"]:
            problems.append(("accounting", f"block {b} has {ent + dis} cat lines, reports e={blocks[b]['e']}"))
    edges = edges_of(src, grouped)
    if any(p not in block_of for pins in edges for p in pins):
        problems.append(("emit", "an interacting qubit appears in no program"))
    elif 2 * lambda_minus_one(edges, block_of) != ebits:
        problems.append(("cut", f"report ebits={ebits}, recomputed "
                                f"{2 * lambda_minus_one(edges, block_of)} from the programs"))
    return problems, rep


SUITE_COLUMNS = ["circuit", "n", "size", "depth", "method", "k", "capacities",
                 "seed", "cut_edges", "ebits", "r_per_block", "runtime_ms"]
_IMPROVEMENT = re.compile(r"(FM|FMGrouped) ebits (\d+) \((-?[\d.]+)% better\)")


def check_suite(src: Source, label: str, suite: dict, out, csv_text: str | None):
    """Checks on one ``bench`` job; returns (problems, rows, improvements)."""
    if out.code != 0 or csv_text is None:
        return [("error", f"exit {out.code}: {out.stderr.strip()[:200]}")], [], []
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != SUITE_COLUMNS:
        return [("output", "CSV header differs")], [], []
    rows = [dict(zip(SUITE_COLUMNS, r)) for r in rows[1:]]
    seeds = range(suite["seeds"]["from"], suite["seeds"]["to"])
    expect = [(m, k, s) for k in suite["parts"]
              for m, ss in (("Random", seeds), ("FM", [seeds[0]]), ("FMGrouped", [seeds[0]]))
              for s in ss]
    got = [(r["method"], int(r["k"]), int(r["seed"])) for r in rows]
    if got != expect:
        return [("output", f"{len(got)} rows, expected {len(expect)} in spec order")], rows, []
    problems = []
    for r in rows:
        k, ebits, cut = int(r["k"]), int(r["ebits"]), int(r["cut_edges"])
        caps = [int(c) for c in r["capacities"].split(";")]
        if (r["circuit"] != label or int(r["n"]) != src.n or int(r["size"]) != src.operations
                or caps != capacity_bounds(src.n, k) or len(r["r_per_block"].split(";")) != k):
            problems.append(("output", f"row {r['method']} k={k} seed={r['seed']} "
                                       "misreports the circuit"))
        if ebits % 2 or not (cut <= ebits // 2) or (cut == 0) != (ebits == 0):
            problems.append(("cut", f"row {r['method']} k={k} seed={r['seed']}: "
                                    f"cut_edges={cut} ebits={ebits}"))
    improvements = [(m, int(e), float(p)) for m, e, p in _IMPROVEMENT.findall(out.stdout)]
    if len(improvements) != 2 * len(suite["parts"]):
        problems.append(("output", f"{len(improvements)} improvement figures in the summary"))
    for k in suite["parts"]:
        rand = [int(r["ebits"]) for r in rows if r["method"] == "Random" and int(r["k"]) == k]
        fm = next(int(r["ebits"]) for r in rows if r["method"] == "FM" and int(r["k"]) == k)
        base = sum(rand) / len(rand)
        want = f"FM ebits {fm} ({100.0 * (base - fm) / base:.1f}% better)"
        if base and want not in out.stdout:
            problems.append(("output", f"k={k}: summary lacks {want!r}"))
    return problems, rows, [p for _, _, p in improvements]
