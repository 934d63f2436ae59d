"""Independent oracles: dense statevector simulation and exhaustive min-cut.

Both are deliberately simple and slow; they exist to check the fast paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, GateKind
from .hypergraph import Hypergraph

MAX_SIM_QUBITS = 14
MAX_ORACLE_QUBIT_VERTICES = 14
MAX_ORACLE_BLOCKS = 4

_SQ = {
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.T: np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
}


def _rot(kind: GateKind, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if kind is GateKind.RX:
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind is GateKind.RY:
        return np.array([[c, -s], [s, c]])
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def simulate(circuit: Circuit) -> np.ndarray:
    """Statevector after the circuit, from |0...0>.  Qubit i is tensor axis i
    (qubit 0 most significant).  MEASURE and opaque calls are rejected;
    BARRIER is a no-op."""
    n = circuit.width
    if n > MAX_SIM_QUBITS:
        raise ValueError(f"{n} qubits exceeds the {MAX_SIM_QUBITS}-qubit simulator limit")
    state = np.zeros([2] * n, dtype=complex)
    state[(0,) * n] = 1.0
    for g in circuit.gates:
        if g.kind is GateKind.BARRIER:
            continue
        if g.kind in (GateKind.MEASURE, GateKind.OPAQUE):
            raise ValueError(f"cannot simulate {g.qasm_name}")
        ax = g.operands
        if g.kind in _SQ or g.kind in (GateKind.RX, GateKind.RY, GateKind.RZ):
            u = _SQ[g.kind] if g.kind in _SQ else _rot(g.kind, g.params[0])
            state = np.tensordot(u, state, axes=([1], [ax[0]]))
            state = np.moveaxis(state, 0, ax[0])
        elif g.kind is GateKind.CX:
            c, t = ax
            idx = _sel(n, {c: 1})
            state[idx] = np.flip(state[idx], axis=t if t < c else t - 1)
        elif g.kind is GateKind.CZ:
            state[_sel(n, {ax[0]: 1, ax[1]: 1})] *= -1
        elif g.kind is GateKind.CP:
            state[_sel(n, {ax[0]: 1, ax[1]: 1})] *= np.exp(1j * g.params[0])
        elif g.kind is GateKind.CCX:
            c1, c2, t = ax
            idx = _sel(n, {c1: 1, c2: 1})
            shift = sum(1 for c in (c1, c2) if c < t)
            state[idx] = np.flip(state[idx], axis=t - shift)
        elif g.kind is GateKind.CCZ:
            state[_sel(n, {ax[0]: 1, ax[1]: 1, ax[2]: 1})] *= -1
        else:  # pragma: no cover
            raise ValueError(f"unhandled gate kind {g.kind}")
    flat = state.reshape(-1)
    assert abs(np.linalg.norm(flat) - 1.0) < 1e-9
    return flat


def _sel(n: int, fixed: dict[int, int]) -> tuple:
    return tuple(fixed.get(i, slice(None)) for i in range(n))


def equivalent(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Equality up to global phase: |<a|b>| within tol of 1."""
    if a.shape != b.shape:
        return False
    overlap = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    return bool(overlap >= 1.0 - tol)


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
    qubit_vs = [v.id for v in h.vertices if v.is_qubit]
    free_vs = [v.id for v in h.vertices if not v.is_qubit]
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
    vweight = [h.vertices[v].weight for v in range(h.n_vertices())]
    caps = resolve_capacities(config.capacities, sum(vweight[v] for v in qubit_vs), blocks)

    edge_qpins = [tuple(p for p in e.pins if h.vertices[p].is_qubit) for e in h.edges]
    weights = [e.weight for e in h.edges]
    symmetric = len(set(caps)) == 1

    assign = [0] * h.n_vertices()
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
