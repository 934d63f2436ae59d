"""Exhaustive min-cut: an independent reference for the partitioner.

Deliberately simple and slow; it exists to check the fast paths on small
instances.  The statevector simulator that checks the emitted programs
lives with the tests, in ``tests/statevector.py``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .hypergraph import Hypergraph

MAX_ORACLE_QUBIT_VERTICES = 14
MAX_ORACLE_BLOCKS = 4


@dataclass(frozen=True)
class OracleResult:
    lambda_minus_one: int
    ebits: int
    assignment: tuple[int, ...]


def brute_force_mincut(h: Hypergraph, config) -> OracleResult:
    """Exhaustive optimum of the connectivity-minus-one metric.

    ``config`` is a PartitionConfig; its blocks and capacities define the
    feasible set.  Enumerates every capacity-feasible placement
    of the weighted vertices; weight-0 vertices are resolved to the
    cheapest block afterwards, which is exact because each belongs to at
    most one edge (one on two or more edges raises ValueError).  Guarded
    to small instances on purpose.
    """
    from .fm import resolve_capacities  # local import, no cycle at module load

    blocks = config.blocks
    qubit_vs = [i for i, v in enumerate(h.vertices) if v.is_qubit]
    free_vs = [i for i, v in enumerate(h.vertices) if not v.is_qubit]
    if len(qubit_vs) > MAX_ORACLE_QUBIT_VERTICES:
        raise ValueError(f"{len(qubit_vs)} weighted vertices exceeds the oracle limit")
    if not 2 <= blocks <= MAX_ORACLE_BLOCKS:
        raise ValueError(f"oracle handles 2..{MAX_ORACLE_BLOCKS} blocks, got {blocks}")
    if blocks > len(qubit_vs):
        raise ValueError(f"{blocks} blocks exceed the {len(qubit_vs)} weighted vertices")
    for v in free_vs:
        if len(h.incidence[v]) > 1:
            raise ValueError(f"weight-0 vertex {v} lies on {len(h.incidence[v])} edges; "
                             "the oracle resolves only one-edge weight-0 vertices")
    vweight = [v.weight for v in h.vertices]
    caps = resolve_capacities(config.capacities, sum(vweight[v] for v in qubit_vs), blocks)

    edge_qpins = [tuple(p for p in e.pins if h.vertices[p].is_qubit) for e in h.edges]
    weights = [e.weight for e in h.edges]
    symmetric = len(set(caps)) == 1

    assign = [0] * len(h.vertices)
    best_cost = None
    best = None
    loads = [0] * blocks
    counts = [0] * blocks

    def walk(i: int):
        nonlocal best_cost, best
        if i == len(qubit_vs):
            if 0 in counts:  # every block must host a qubit vertex
                return
            cost = 0
            for pins, w in zip(edge_qpins, weights):
                cost += (len({assign[p] for p in pins}) - 1) * w
                if best_cost is not None and cost >= best_cost:
                    return
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best = assign.copy()
            return
        v = qubit_vs[i]
        choices = range(1) if (symmetric and i == 0) else range(blocks)
        for b in choices:
            if loads[b] + vweight[v] > caps[b]:
                continue
            loads[b] += vweight[v]
            counts[b] += 1
            assign[v] = b
            walk(i + 1)
            loads[b] -= vweight[v]
            counts[b] -= 1
        assign[v] = 0

    walk(0)
    if best is None:
        raise ValueError("no capacity-feasible assignment exists")
    for v in free_vs:  # snap each weight-0 vertex into a block its edge spans
        for e in h.incidence[v]:
            qpins = edge_qpins[e]
            if qpins:
                best[v] = min(best[p] for p in qpins)
                break
    final = 0
    for e, w in zip(h.edges, weights):
        final += (len({best[p] for p in e.pins}) - 1) * w
    return OracleResult(lambda_minus_one=final, ebits=2 * final, assignment=tuple(best))
