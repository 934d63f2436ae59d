"""Hypergraph view of a circuit's non-local interactions.

Qubits are a circuit hypergraph's only vertices: qubit q is vertex q, of
weight 1 (weight-0 vertices come only from hMETIS files).  Each CX/CZ/CP
gate contributes a 2-pin edge (control, target) and each CCX/CCZ a 3-pin
edge over its operands; with grouping, each reuse group of
``grouping.find_groups`` is one edge (control, *targets) instead, so the
run rule lives only there.  Single-qubit gates, MEASURE and BARRIER do
not appear.  An edge's first pin is the qubit whose state it shares from
its home side, and its ``gates`` are the gates it stands for, which the
distribution plan reads.  A vertex or an edge is its position in its
tuple.

The cut metric is connectivity minus one: an edge spanning b blocks costs
b - 1, and every unit of cost is one entangled pair: two ebits, one
endpoint per side.  It is priced here only (``cut_cost``, and ``_cut_rows``
for batches), apart from FM's incremental cost and ``fm.expected_ebits``.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .circuit import Circuit
from .grouping import find_groups

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, slots=True, kw_only=True)
class Vertex:
    """A vertex: a qubit of weight 1, or an hMETIS vertex of any weight
    from 0 up.  The weight counts only toward the load bound; a vertex of
    any weight, 0 included, keeps its block in use.  ``is_qubit`` is read
    only by perfbench's tests."""

    weight: int = 1

    @property
    def is_qubit(self) -> bool:
        return self.weight > 0


@dataclass(frozen=True, slots=True, kw_only=True)
class Hyperedge:
    """Pins are distinct vertex indices, at least two of them.  ``gates``
    are the positions, in the circuit's gate list, of the gates the edge
    stands for: one gate, or a reuse group's members (none for an hMETIS
    edge)."""

    pins: tuple[int, ...]
    weight: int = 1
    gates: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class Hypergraph:
    """Its vertex and edge tuples, checked here, with nothing derived from
    them to go stale: ``fm._Engine`` builds the adjacency it walks.  Any
    sequence given is stored as a tuple; ``dataclasses.replace`` checks again."""

    vertices: tuple[Vertex, ...]
    edges: tuple[Hyperedge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        n = len(self.vertices)
        # weights are integers from 0 up; the exact type test spares a
        # plain int the slow abstract-class check
        for i, v in enumerate(self.vertices):
            if type(v.weight) is not int and not isinstance(v.weight, numbers.Integral):
                raise ValueError(f"vertex {i} has non-integer weight {v.weight!r}")
            if v.weight < 0:
                raise ValueError(f"vertex {i} has negative weight {v.weight}")
        for i, e in enumerate(self.edges):
            if type(e.weight) is not int and not isinstance(e.weight, numbers.Integral):
                raise ValueError(f"edge {i} has non-integer weight {e.weight!r}")
            if e.weight < 0:
                raise ValueError(f"edge {i} has negative weight {e.weight}")
            if len(e.pins) < 2:
                raise ValueError(f"edge {i} has fewer than 2 pins")
            if len(set(e.pins)) != len(e.pins):
                raise ValueError(f"edge {i} has repeated pins {e.pins}")
            for p in e.pins:
                if not 0 <= p < n:
                    raise ValueError(f"edge {i} pin {p} out of range")


def build_hypergraph(circuit: Circuit, grouped: bool = False) -> Hypergraph:
    """Translate a circuit; when ``grouped`` is true, fold each reuse group
    of ``find_groups`` into one edge, placed at its first member.
    ``grouped`` is read for its truth value, so a caller that passes
    ``find_groups(c)``, as perfbench does, gets the same graph: an empty
    list means the circuit has no CX/CZ/CP, and then both graphs agree."""
    group_of: dict[int, tuple[int, ...]] = {}  # reuse-group member -> the group's members
    if grouped:
        for grp in find_groups(circuit):
            if grp.is_reuse:
                group_of.update(dict.fromkeys(grp.members, grp.members))
    edges: list[Hyperedge] = []
    for seq, g in enumerate(circuit.gates):
        members = group_of.get(seq)
        if members is None:
            if g.kind.splittable:  # CX/CZ/CP and CCX/CCZ
                edges.append(Hyperedge(pins=g.operands, gates=(seq,)))
        elif seq == members[0]:
            targets = dict.fromkeys(circuit.gates[s].operands[1] for s in members)
            edges.append(Hyperedge(pins=(g.operands[0], *targets), gates=members))
    return Hypergraph([Vertex() for _ in range(circuit.width)], edges)


@dataclass(frozen=True, slots=True)
class CutReport:
    """cut_edges: edges spanning more than one block.
    lambda_minus_one: sum over edges of (blocks spanned - 1) * weight.
    endpoints: each block's share of ebits.  A cut edge gives its weight to
    each block it spans other than its home, its first pin's block, and
    its home as much as all of those together.
    ebits: 2 * lambda_minus_one, one entangled pair per unit of cost."""

    cut_edges: int
    lambda_minus_one: int
    endpoints: tuple[int, ...]
    ebits = property(lambda self: 2 * self.lambda_minus_one)


def _check_assignment(h: Hypergraph, assignment: list[int], blocks: int) -> None:
    if len(assignment) != len(h.vertices):
        raise ValueError(f"assignment covers {len(assignment)} of {len(h.vertices)} vertices")
    for v, b in enumerate(assignment):
        if type(b) is not int and not isinstance(b, numbers.Integral):
            raise ValueError(f"vertex {v} assigned to non-integer block {b!r}")
        if not 0 <= b < blocks:
            raise ValueError(f"vertex {v} assigned to invalid block {b}")


def cut_cost(h: Hypergraph, assignment: list[int], blocks: int) -> CutReport:
    """Price an assignment under the connectivity-minus-one metric: the
    scalar reference that tests compare ``_cut_rows`` against."""
    _check_assignment(h, assignment, blocks)
    cut = lam = 0
    endpoints = [0] * blocks
    for e in h.edges:
        spanned = {assignment[p] for p in e.pins}
        if len(spanned) > 1:
            cut += 1
            lam += (len(spanned) - 1) * e.weight
            for b in spanned:
                endpoints[b] += e.weight
            endpoints[assignment[e.pins[0]]] += (len(spanned) - 2) * e.weight
    return CutReport(cut_edges=cut, lambda_minus_one=lam, endpoints=tuple(endpoints))


def _cut_rows(h: Hypergraph, assign: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``cut_cost``'s cut edges and ebits for each row of a seeds x vertices
    block matrix; the blocks each edge spans are summed per block from
    ``logical_or.reduceat`` over the edges' pins.  The bench's batch path,
    and the one place here that imports numpy."""
    import numpy as np

    if not h.edges:
        zero = np.zeros(len(assign), dtype=np.int64)
        return zero, zero
    pins = [p for e in h.edges for p in e.pins]
    starts = np.cumsum([0] + [len(e.pins) for e in h.edges[:-1]])
    weights = np.array([e.weight for e in h.edges], dtype=np.int64)
    got = assign[:, pins]
    extra = np.full((len(assign), len(h.edges)), -1, dtype=np.int32)  # spanned - 1
    for b in range(k):
        extra += np.logical_or.reduceat(got == b, starts, axis=1)
    return np.count_nonzero(extra > 0, axis=1), 2 * (extra @ weights)


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
    and gives its pins as written; a field that is not an integer is named
    as written, with its edge or vertex.
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

    def integer(field: str, owner: str, i: int, what: str) -> int:
        try:
            return int(field)
        except ValueError:
            raise ValueError(f"{owner} {i} has non-integer {what} {field!r}") from None

    edges = []
    for i, row in enumerate(rows[1:1 + n_edges]):
        fields = row.split()
        weight = integer(fields.pop(0), "edge", i, "weight") if edge_weighted else 1
        fields = [integer(f, "edge", i, "pin") for f in fields]
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
    weights = rows[1 + n_edges:] if vertex_weighted else ["1"] * n_vertices
    vertices = [Vertex(weight=integer(w, "vertex", v, "weight")) for v, w in enumerate(weights)]
    return Hypergraph(vertices, edges)
