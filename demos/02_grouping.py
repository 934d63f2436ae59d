#!/usr/bin/env python3
# Detect runs of controlled gates that share a control wire.  A run of two
# or more gates can reuse one shared control state at the far end, so the
# whole run costs a single channel instead of one per gate.

from qpart import find_groups, generate, segment_by_depth, segment_subcircuit

qft = generate("qft", 6)

print("qft6 control-wire runs:")
names = qft.qubits()  # a group's control is a qubit index
for g in find_groups(qft):
    tag = "reuse" if g.is_reuse else "single"
    print(f"  {tag}  control {names[g.control]}  gates {g.members}")

# depth windows cut the circuit into segments for phase-by-phase work;
# groups are then judged inside each window on its own, with gate numbers
# counted from the start of the window
print("\nqft6 in windows of 4 layers:")
for seg in segment_by_depth(qft, 4):
    runs = find_groups(segment_subcircuit(qft, seg))
    reuse = [g.members for g in runs if g.is_reuse]
    print(f"  layers {seg.layer_range}: {len(seg.gates)} gates, reuse runs {reuse}")
