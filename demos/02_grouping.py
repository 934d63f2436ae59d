#!/usr/bin/env python3
# Detect runs of controlled gates that share a control wire.  A run of two
# or more gates can reuse one shared control state at the far end, so the
# whole run costs a single channel instead of one per gate.

from qpart import find_groups, generate

qft = generate("qft", 6)

print("qft6 control-wire runs:")
names = qft.qubits()  # a group's control is a qubit index
for g in find_groups(qft):
    tag = "reuse" if g.is_reuse else "single"
    print(f"  {tag}  control {names[g.control]}  gates {g.members}")
