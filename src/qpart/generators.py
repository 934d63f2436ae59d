"""Built-in circuit families for experiments and tests.

GHZ and QFT are the standard textbook constructions; RANDOM_LAYERED builds
seeded layers mixing single-qubit gates and CX pairs.  Anything else (VQE
ansaetze, amplitude estimation, ...) enters the pipeline as a QASM file.
"""
from __future__ import annotations

import math
import random
from enum import Enum

from .circuit import Circuit, Gate, GateKind


class CircuitFamily(Enum):
    GHZ = "ghz"
    QFT = "qft"
    RANDOM_LAYERED = "random"


_SINGLE_KINDS = (GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S, GateKind.T)


def generate(kind: CircuitFamily | str, n: int, seed: int = 0) -> Circuit:
    """Generate a named n-qubit circuit; seed only matters for RANDOM_LAYERED."""
    family = CircuitFamily(kind) if not isinstance(kind, CircuitFamily) else kind
    if n < 2:
        raise ValueError(f"need at least 2 qubits, got {n}")
    if family is CircuitFamily.GHZ:
        return _ghz(n)
    if family is CircuitFamily.QFT:
        return _qft(n)
    return _random_layered(n, seed)


def _ghz(n: int) -> Circuit:
    gates = [Gate(GateKind.H, (0,))]
    gates += [Gate(GateKind.CX, (i, i + 1)) for i in range(n - 1)]
    return Circuit(f"ghz{n}", [("q", n)], gates)


def _qft(n: int) -> Circuit:
    # textbook order, controls on the higher-index qubit, no final swaps
    gates = []
    for i in range(n):
        gates.append(Gate(GateKind.H, (i,)))
        for j in range(i + 1, n):
            gates.append(Gate(GateKind.CP, (j, i), (math.pi / 2 ** (j - i),)))
    return Circuit(f"qft{n}", [("q", n)], gates)


def _random_layered(n: int, seed: int) -> Circuit:
    rng = random.Random(seed)
    gates = []
    for _ in range(n):
        order = list(range(n))
        rng.shuffle(order)
        for a, b in zip(order[0::2], order[1::2]):
            if rng.random() < 0.5:
                gates.append(Gate(GateKind.CX, (a, b)))
            else:
                gates.append(Gate(rng.choice(_SINGLE_KINDS), (a,)))
                gates.append(Gate(rng.choice(_SINGLE_KINDS), (b,)))
        if n % 2:
            gates.append(Gate(rng.choice(_SINGLE_KINDS), (order[-1],)))
    return Circuit(f"random{n}_s{seed}", [("q", n)], gates)
