#!/usr/bin/env python3
# Detect runs of controlled gates that share a control wire.  A run of two
# or more gates can reuse one shared control state at the far end, so the
# whole run costs a single channel instead of one per gate.  The hypergraph
# turns each reuse group into one edge over its control and its targets,
# and the edge lists the group's gates; a gate elsewhere on the control
# wire would close the run, since the shared copy would then be stale.

from qpart import build_hypergraph, find_groups, generate

qft = generate("qft", 6)

print("qft6 control-wire runs:")
names = qft.qubits()  # a group's control is a qubit index
for g in find_groups(qft):
    tag = "reuse" if g.is_reuse else "single"
    print(f"  {tag}  control {names[g.control]}  gates {g.members}")

h = build_hypergraph(qft, grouped=True)  # groups with find_groups itself
print(f"grouped hypergraph: {len(h.vertices)} vertices (one per qubit), "
      f"{len(h.edges)} edges")
print("  gates per edge:", [e.gates for e in h.edges])
