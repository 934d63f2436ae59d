"""Detection of controlled-gate runs that can share one entangled pair.

A group is a maximal run of CX/CZ/CP gates, in any mix of kinds and
angles, driven by the same control qubit, with no intervening gate
touching that control wire.  Gates on the
target wires do not break a run.  The control of a symmetric gate (CZ, CP)
is its syntactic first operand.  CCX/CCZ are never grouped.

Also provides depth-window segmentation, used to partition deep circuits
stage by stage.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, Gate, GateKind, gate_layers

GROUPABLE = frozenset(k for k in GateKind if k.groupable)


@dataclass(frozen=True)
class GateGroup:
    """One run of controlled gates sharing a control qubit.

    ``control`` and ``targets`` are qubit indices; ``members`` are gate seq
    numbers in circuit order.  A group with two or more members is a reuse
    group: its control state can be shared once and reused by every member.
    """

    id: int
    control: int
    members: tuple[int, ...]
    targets: frozenset[int]
    kinds: frozenset[GateKind]

    @property
    def is_reuse(self) -> bool:
        return len(self.members) >= 2


def find_groups(circuit: Circuit) -> list[GateGroup]:
    """Partition the circuit's CX/CZ/CP gates into control-wire runs.

    Gates of any of the three kinds, at any angle, share a run; a run of
    two or more gates is a reuse group, a lone gate is a singleton group.
    """
    open_runs: dict[int, list[Gate]] = {}  # control qubit -> its open run
    closed: list[list[Gate]] = []
    for g in circuit.gates:
        if g.kind.groupable:
            control, target = g.operands
            open_runs.setdefault(control, []).append(g)
            if target in open_runs:
                closed.append(open_runs.pop(target))
        else:
            for q in g.operands:
                if q in open_runs:
                    closed.append(open_runs.pop(q))
    closed += open_runs.values()

    closed.sort(key=lambda run: run[0].seq)
    return [GateGroup(id=i,
                      control=run[0].operands[0],
                      members=tuple(g.seq for g in run),
                      targets=frozenset(g.operands[1] for g in run),
                      kinds=frozenset(g.kind for g in run))
            for i, run in enumerate(closed)]


@dataclass(frozen=True)
class Segment:
    """A consecutive window of depth layers and the gates scheduled in it."""

    index: int
    layer_range: tuple[int, int]
    gates: tuple[int, ...]


def segment_by_depth(circuit: Circuit, window: int) -> list[Segment]:
    """Split the ASAP layering into consecutive windows of ``window`` layers.

    Every gate lands in the segment covering its layer; a trailing BARRIER
    whose sync point equals the depth is clamped into the last segment.
    Concatenating segments reproduces the circuit up to reordering of gates
    on disjoint wires (per-wire order is always preserved).
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    if not circuit.gates:
        return []
    layers = gate_layers(circuit)
    depth = max(circuit.depth, 1)
    n_seg = -(-depth // window)
    buckets: list[list[int]] = [[] for _ in range(n_seg)]
    for g, lay in zip(circuit.gates, layers):
        buckets[min(lay // window, n_seg - 1)].append(g.seq)
    return [Segment(index=s,
                    layer_range=(s * window, min((s + 1) * window, depth)),
                    gates=tuple(b))
            for s, b in enumerate(buckets)]


def segment_subcircuit(circuit: Circuit, segment: Segment) -> Circuit:
    """Materialise one segment as a circuit over the same registers."""
    from .circuit import make_circuit
    gates = [circuit.gates[s] for s in segment.gates]
    return make_circuit(f"{circuit.name}.seg{segment.index}",
                        circuit.registers, gates, circuit.cregs)
