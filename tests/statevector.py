"""Dense statevector simulation, and the stitcher that runs a plan's
emitted per-QPU programs as one circuit.

Both are deliberately simple and slow; they exist to check the pipeline.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import replace

import numpy as np

from qpart import Circuit, Gate, GateKind, parse_qasm

MAX_SIM_QUBITS = 14

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


def _zero(n: int) -> np.ndarray:
    """|0...0> on n qubits, as a tensor with one axis per qubit."""
    if n > MAX_SIM_QUBITS:
        raise ValueError(f"{n} qubits exceeds the {MAX_SIM_QUBITS}-qubit simulator limit")
    state = np.zeros([2] * n, dtype=complex)
    state[(0,) * n] = 1.0
    return state


def _apply(state: np.ndarray, g: Gate) -> np.ndarray:
    """The state after gate ``g``; qubit i is tensor axis i.  MEASURE and
    opaque calls are rejected; BARRIER is a no-op."""
    n = state.ndim
    if g.kind is GateKind.BARRIER:
        return state
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
    return state


def simulate(circuit: Circuit) -> np.ndarray:
    """Statevector after the circuit, from |0...0>.  Qubit i is tensor axis i
    (qubit 0 most significant).  MEASURE and opaque calls are rejected;
    BARRIER is a no-op."""
    state = _zero(circuit.width)
    for g in circuit.gates:
        state = _apply(state, g)
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


def check_programs(circuit: Circuit, plan, texts: list[str]) -> None:
    """Prove by simulation that a plan's per-QPU programs ``texts``,
    stitched into one circuit, compute ``circuit``.

    The stitched circuit acts on the source's data qubits followed by a
    pool of copy qubits, as wide as the most channels live at once; the
    two together must fit in ``MAX_SIM_QUBITS``.  The source gates replay
    in order, and each gate's line is the next line of the program of its
    ``plan.exec_block``.  Around it run the next
    lines of its channels' programs: ``cat_entangler a,ebit[s]`` on the
    home block becomes ``cx a,r``, where r is a free pool slot that turns
    into the copy of the channel holding home slot s; an ``ebit[s]``
    operand on a remote block names the copy of the channel holding that
    remote slot; ``cat_disentangler ebit[s]`` becomes ``cx carried,r``,
    after which r must be back in |0> and returns to the pool.  Slots are
    numbered on each block in channel order.

    Fails an assertion on a line of the wrong gate or one missing or left
    over, a data qubit that is not local, a copy that is not live or not
    released clean, or a final state other than the source state ⊗ |0...0>.
    """
    channels = plan.channels
    home_of, remote_of = {}, {}  # (block, slot) -> channel index
    used = [0] * len(plan.per_block)
    opening: dict[int, list] = {}  # gate position -> channels first used there
    closing: dict[int, list] = {}
    for i, c in enumerate(channels):
        home = plan.assignment[c.carries]
        home_of[home, used[home]] = i
        used[home] += 1
        remote_of[c.remote, used[c.remote]] = i
        used[c.remote] += 1
        opening.setdefault(c.first_use, []).append(c)
        closing.setdefault(c.last_use, []).append(c)
    peak = max((sum(1 for c in channels if c.first_use <= s <= c.last_use)
                for s in opening), default=0)
    n = circuit.width
    free = list(range(n, n + peak))  # a sorted list is a heap
    copy: dict[int, int] = {}  # channel index -> its pool slot

    data = {q: i for i, q in enumerate(circuit.qubits())}
    programs = []  # per block: its (gate, operand names) lines
    for b, text in enumerate(texts):
        p = parse_qasm(text, name=f"block{b}")
        names = p.qubits()
        programs.append(iter([(g, [names[q] for q in g.operands]) for g in p.gates
                              if g.kind is not GateKind.BARRIER]))

    def next_line(b: int):
        line = next(programs[b], None)
        assert line is not None, f"block {b} runs out of lines"
        return line

    def slot(name: str) -> int:
        assert name.startswith("ebit["), name
        return int(name[len("ebit["):-1])

    def local(name: str, b: int) -> int:
        q = data[name]
        assert plan.assignment[q] == b, f"{name} is not on block {b}"
        return q

    def operand(name: str, b: int) -> int:
        if name in data:
            return local(name, b)
        i = remote_of.get((b, slot(name)))
        assert i is not None and i in copy, f"{name} on block {b} is not a live copy"
        return copy[i]

    state = _zero(n + peak)
    for seq, g in enumerate(circuit.gates):
        if g.kind is GateKind.BARRIER:
            continue
        for c in opening.get(seq, ()):
            home = plan.assignment[c.carries]
            line, (a, s) = next_line(home)
            assert line.label == "cat_entangler", (c, line)
            copy[home_of[home, slot(s)]] = r = heapq.heappop(free)
            state = _apply(state, Gate(GateKind.CX, (local(a, home), r)))
        b = plan.exec_block[seq]
        line, ops = next_line(b)
        assert (line.kind, line.params, line.label) == (g.kind, g.params, g.label), (g, line)
        state = _apply(state, replace(g, operands=tuple(operand(q, b) for q in ops)))
        for c in closing.get(seq, ()):
            line, (s,) = next_line(c.remote)
            assert line.label == "cat_disentangler", (c, line)
            released = remote_of[c.remote, slot(s)]
            r = copy.pop(released)
            state = _apply(state, Gate(GateKind.CX, (channels[released].carries, r)))
            assert np.linalg.norm(np.take(state, 1, axis=r)) < 1e-9, \
                f"channel {released} leaves its copy entangled"
            heapq.heappush(free, r)
    for b, lines in enumerate(programs):
        assert next(lines, None) is None, f"block {b} has lines left over"
    pool = np.zeros(2 ** peak, dtype=complex)
    pool[0] = 1.0
    assert equivalent(state.reshape(-1), np.kron(simulate(circuit), pool))
