"""Exhaustive min-cut: an independent reference for the partitioner.

Deliberately simple and slow; it exists to check the fast paths on small
instances, as ``statevector.py`` checks the emitted programs.
"""
from __future__ import annotations

from dataclasses import dataclass

from qpart import Hypergraph
from qpart.fm import resolve_capacities

MAX_ORACLE_VERTICES = 14
MAX_ORACLE_BLOCKS = 4


@dataclass(frozen=True)
class OracleResult:
    lambda_minus_one: int
    assignment: tuple[int, ...]
    ebits = property(lambda self: 2 * self.lambda_minus_one)


def brute_force_mincut(h: Hypergraph, config) -> OracleResult:
    """Exhaustive optimum of the connectivity-minus-one metric.

    ``config`` is a PartitionConfig; its blocks and capacities define the
    feasible set.  Enumerates every capacity-feasible placement of every
    vertex in which each block holds a vertex; a weight-0 vertex fits in
    any block and keeps it in use.  Guarded to small instances on purpose.
    """
    blocks = config.blocks
    n = len(h.vertices)
    if n > MAX_ORACLE_VERTICES:
        raise ValueError(f"{n} vertices exceeds the oracle limit")
    if not 2 <= blocks <= MAX_ORACLE_BLOCKS:
        raise ValueError(f"oracle handles 2..{MAX_ORACLE_BLOCKS} blocks, got {blocks}")
    if blocks > n:
        raise ValueError(f"{blocks} blocks exceed the {n} vertices")
    vweight = [v.weight for v in h.vertices]
    caps = resolve_capacities(config.capacities, sum(vweight), blocks)

    edge_pins = [e.pins for e in h.edges]
    weights = [e.weight for e in h.edges]
    symmetric = len(set(caps)) == 1

    assign = [0] * n
    best_cost = None
    best = None
    loads = [0] * blocks
    counts = [0] * blocks  # vertices per block

    def walk(v: int):
        nonlocal best_cost, best
        if v == n:
            if 0 in counts:  # every block must host a vertex
                return
            cost = 0
            for pins, w in zip(edge_pins, weights):
                cost += (len({assign[p] for p in pins}) - 1) * w
                if best_cost is not None and cost >= best_cost:
                    return
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best = assign.copy()
            return
        choices = range(1) if (symmetric and v == 0) else range(blocks)
        for b in choices:
            if loads[b] + vweight[v] > caps[b]:
                continue
            loads[b] += vweight[v]
            counts[b] += 1
            assign[v] = b
            walk(v + 1)
            loads[b] -= vweight[v]
            counts[b] -= 1
        assign[v] = 0

    walk(0)
    if best is None:
        raise ValueError("no capacity-feasible assignment exists")
    return OracleResult(lambda_minus_one=best_cost, assignment=tuple(best))
