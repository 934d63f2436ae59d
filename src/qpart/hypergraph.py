"""Hypergraph view of a circuit's non-local interactions.

Qubits are a circuit hypergraph's only vertices: qubit q is vertex q, of
weight 1 (weight-0 vertices come only from hMETIS files).  Each CX/CZ/CP
gate contributes a 2-pin edge (control, target) and each CCX/CCZ a 3-pin
edge over its operands; with grouping, each reuse group is one edge
(control, *targets) instead.  Single-qubit gates, MEASURE and BARRIER do
not appear.  An edge's first pin is the qubit whose state it shares from
its home side.  A vertex or an edge is its position in its list.

The cut metric is connectivity minus one: an edge spanning b blocks costs
b - 1, and every unit of cost is one entangled pair, i.e. two ebits.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit
from .grouping import GateGroup


@dataclass(frozen=True, kw_only=True)
class Vertex:
    """A qubit vertex of positive weight, or a weight-0 one (hMETIS only)."""

    weight: int = 1

    @property
    def is_qubit(self) -> bool:
        return self.weight > 0


@dataclass(frozen=True, kw_only=True)
class Hyperedge:
    """Pins are distinct vertex indices, at least two of them.  ``origin``
    records where the edge came from: ("gate", position in the circuit's
    gate list) or ("group", position in the groups list)."""

    pins: tuple[int, ...]
    weight: int = 1
    origin: tuple[str, int] | None = None


class Hypergraph:
    """Vertex and edge lists plus the derived incidence structure."""

    def __init__(self, vertices: list[Vertex], edges: list[Hyperedge]):
        self.vertices = list(vertices)
        self.edges = list(edges)
        self.validate()
        self.incidence: list[list[int]] = [[] for _ in self.vertices]
        for i, e in enumerate(self.edges):
            for p in e.pins:
                self.incidence[p].append(i)

    def validate(self) -> None:
        n = len(self.vertices)
        for i, v in enumerate(self.vertices):
            if v.weight < 0:
                raise ValueError(f"vertex {i} has negative weight {v.weight}")
        for i, e in enumerate(self.edges):
            if e.weight < 0:
                raise ValueError(f"edge {i} has negative weight {e.weight}")
            if len(e.pins) < 2:
                raise ValueError(f"edge {i} has fewer than 2 pins")
            if len(set(e.pins)) != len(e.pins):
                raise ValueError(f"edge {i} has repeated pins {e.pins}")
            for p in e.pins:
                if not 0 <= p < n:
                    raise ValueError(f"edge {i} pin {p} out of range")

    def n_qubit_vertices(self) -> int:
        return sum(1 for v in self.vertices if v.is_qubit)


def build_hypergraph(circuit: Circuit, groups: list[GateGroup] | None = None) -> Hypergraph:
    """Translate a circuit, optionally folding reuse groups into hyperedges.

    Each group edge (control, *targets) sits at its group's first member.
    A ValueError names the group and the gate when a member is not a
    groupable gate of the circuit, when its first operand is not the
    group's ``control``, when a gate is listed twice, in one group or in
    two, or when a gate outside the group acts on the control between its
    members, whose remote copies would then read a stale control.  The
    last rule is checked once every group has passed the others."""
    groups = groups or []
    for gi, grp in enumerate(groups):
        for seq in grp.members:
            if not 0 <= seq < len(circuit.gates) or not circuit.gates[seq].kind.groupable:
                raise ValueError(f"group {gi} references gate {seq}, "
                                 "which is not a groupable gate of this circuit")

    member_of: dict[int, int] = {}  # gate position -> group position
    for gi, grp in enumerate(groups):
        for seq in grp.members:
            control = circuit.gates[seq].operands[0]
            if control != grp.control:
                raise ValueError(f"group {gi} has control {grp.control}, but its gate "
                                 f"{seq} is controlled by qubit {control}")
            if seq in member_of:
                raise ValueError(f"group {gi} lists gate {seq}, which group "
                                 f"{member_of[seq]} already lists")
            member_of[seq] = gi
    last = {gi: max(grp.members) for gi, grp in enumerate(groups) if grp.is_reuse}
    open_on: dict[int, int] = {}  # control qubit -> the group whose span is open on it
    edges: list[Hyperedge] = []
    for seq, g in enumerate(circuit.gates):
        gi = member_of.get(seq)
        for q in g.operands:
            if open_on.get(q, gi) != gi:
                raise ValueError(f"group {open_on[q]} spans gate {seq}, which acts on "
                                 f"its control qubit {q}")
        if gi is not None and groups[gi].is_reuse:
            grp = groups[gi]
            open_on[grp.control] = gi
            if seq == last[gi]:
                del open_on[grp.control]
            if seq == grp.members[0]:  # one edge per group, at its first member
                targets = dict.fromkeys(circuit.gates[s].operands[1] for s in grp.members)
                edges.append(Hyperedge(pins=(grp.control, *targets), origin=("group", gi)))
        elif g.kind.n_qubits in (2, 3):  # CX/CZ/CP and CCX/CCZ
            edges.append(Hyperedge(pins=g.operands, origin=("gate", seq)))
    return Hypergraph([Vertex() for _ in range(circuit.width)], edges)


@dataclass(frozen=True)
class CutReport:
    """cut_edges: edges spanning more than one block.
    lambda_minus_one: sum over edges of (blocks spanned - 1).
    ebits: 2 * lambda_minus_one, one entangled pair per unit of cost."""

    cut_edges: int
    lambda_minus_one: int
    ebits: int


def _check_assignment(h: Hypergraph, assignment: list[int], blocks: int) -> None:
    if len(assignment) != len(h.vertices):
        raise ValueError(f"assignment covers {len(assignment)} of {len(h.vertices)} vertices")
    for v, b in enumerate(assignment):
        if b is None or not 0 <= b < blocks:
            raise ValueError(f"vertex {v} assigned to invalid block {b}")


def cut_cost(h: Hypergraph, assignment: list[int], blocks: int) -> CutReport:
    """Evaluate an assignment under the connectivity-minus-one metric."""
    _check_assignment(h, assignment, blocks)
    cut = lam = 0
    for e in h.edges:
        spanned = len({assignment[p] for p in e.pins})
        if spanned > 1:
            cut += 1
            lam += (spanned - 1) * e.weight
    return CutReport(cut_edges=cut, lambda_minus_one=lam, ebits=2 * lam)


def block_endpoints(h: Hypergraph, assignment: list[int], blocks: int) -> list[int]:
    """Communication endpoints per block: one per (cut edge, remote block)
    on the remote side plus one on the home side, the block of the edge's
    first pin.  Sums to 2*(lambda-1)."""
    _check_assignment(h, assignment, blocks)
    counts = [0] * blocks
    for e in h.edges:
        home = assignment[e.pins[0]]
        for b in {assignment[p] for p in e.pins} - {home}:
            counts[home] += e.weight
            counts[b] += e.weight
    return counts


# --------------------------------------------------------------------------
# hMETIS interchange format

def export_hmetis(h: Hypergraph) -> str:
    """Render in hMETIS format: header "E V [fmt]", 1-indexed pin lines.

    Weights are written (fmt 11) only when some vertex or edge weight is
    not 1; a plain unit-weight graph gets the bare two-field header.
    """
    weighted = any(v.weight != 1 for v in h.vertices) or any(e.weight != 1 for e in h.edges)
    lines = [f"{len(h.edges)} {len(h.vertices)}" + (" 11" if weighted else "")]
    for e in h.edges:
        pins = " ".join(str(p + 1) for p in e.pins)
        lines.append(f"{e.weight} {pins}" if weighted else pins)
    if weighted:
        lines.extend(str(v.weight) for v in h.vertices)
    return "\n".join(lines) + "\n"


def import_hmetis(text: str) -> Hypergraph:
    """Parse hMETIS format (fmt absent, 1, 10 or 11) into a plain hypergraph.

    Single-pin edges are dropped, since no partition cuts them; the
    remaining edges keep their file order.  Every file edge is checked
    before the drop, so an error names the edge by its index in the file
    and gives its pins as written.
    """
    rows = [line.split("//")[0].split("%")[0].strip() for line in text.splitlines()]
    rows = [r for r in rows if r]
    if not rows:
        raise ValueError("empty hmetis input")
    header = rows[0].split()
    if len(header) not in (2, 3) or not all(f.isdigit() for f in header):
        raise ValueError(f"malformed hmetis header {rows[0]!r}")
    n_edges, n_vertices = int(header[0]), int(header[1])
    fmt = header[2] if len(header) == 3 else ""
    if fmt not in ("", "1", "10", "11"):
        raise ValueError(f"unsupported hmetis fmt {fmt!r}")
    edge_weighted = fmt in ("1", "11")
    vertex_weighted = fmt in ("10", "11")
    expect = 1 + n_edges + (n_vertices if vertex_weighted else 0)
    if len(rows) != expect:
        raise ValueError(f"expected {expect} lines, got {len(rows)}")

    edges = []
    for i, row in enumerate(rows[1:1 + n_edges]):
        fields = [int(f) for f in row.split()]
        weight = 1
        if edge_weighted:
            weight, fields = fields[0], fields[1:]
        if weight < 0:
            raise ValueError(f"edge {i} has negative weight {weight}")
        if not fields:
            raise ValueError(f"edge {i} has no pins")
        if len(set(fields)) != len(fields):
            raise ValueError(f"edge {i} has repeated pins {tuple(fields)}")
        pins = []
        for p in fields:
            if not 1 <= p <= n_vertices:
                raise ValueError(f"edge {i} pin {p} out of range 1..{n_vertices}")
            pins.append(p - 1)
        if len(pins) == 1:
            continue  # legal in hMETIS and never cut
        edges.append(Hyperedge(pins=tuple(pins), weight=weight))
    if vertex_weighted:
        vertices = [Vertex(weight=int(r)) for r in rows[1 + n_edges:]]
    else:
        vertices = [Vertex() for _ in range(n_vertices)]
    return Hypergraph(vertices, edges)
