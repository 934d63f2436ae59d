"""Detection of controlled-gate runs that can share one entangled pair.

A group is a maximal run of CX/CZ/CP gates, in any mix of kinds and
angles, driven by the same control qubit, with no intervening gate
touching that control wire.  Gates on the
target wires do not break a run.  The control of a symmetric gate (CZ, CP)
is its syntactic first operand.  CCX/CCZ are never grouped.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit


@dataclass(frozen=True, slots=True)
class GateGroup:
    """One run of controlled gates sharing a control qubit.

    ``control`` is a qubit index; ``members`` are the positions of its
    gates in the circuit's gate list, in circuit order.  A group is
    identified by its position in the list ``find_groups`` returns.  A
    group with two or more members is a reuse group: its control state can
    be shared once and reused by every member.
    """

    control: int
    members: tuple[int, ...]

    @property
    def is_reuse(self) -> bool:
        return len(self.members) >= 2


def find_groups(circuit: Circuit) -> list[GateGroup]:
    """Partition the circuit's CX/CZ/CP gates into control-wire runs.

    Gates of any of the three kinds, at any angle, share a run; a run of
    two or more gates is a reuse group, a lone gate is a singleton group.
    """
    open_runs: dict[int, list[int]] = {}  # control qubit -> its open run
    closed: list[list[int]] = []
    for i, g in enumerate(circuit.gates):
        if g.kind.groupable:
            control, target = g.operands
            open_runs.setdefault(control, []).append(i)
            if target in open_runs:
                closed.append(open_runs.pop(target))
        else:
            for q in g.operands:
                if q in open_runs:
                    closed.append(open_runs.pop(q))
    closed += open_runs.values()

    closed.sort()
    return [GateGroup(control=circuit.gates[run[0]].operands[0], members=tuple(run))
            for run in closed]
