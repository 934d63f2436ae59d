#!/usr/bin/env python3
# Translate a circuit into the hypergraph the partitioner works on.
# Qubits become weight-1 vertices, and they are the only vertices; each
# 2-qubit gate becomes a 2-pin edge.  A reuse group collapses into one
# hyperedge over its control and its targets, control first, which is what
# makes grouped partitions cheaper.  A vertex or an edge is its position in
# its list.

from qpart import (build_hypergraph, cut_cost, export_hmetis, find_groups,
                   generate)

qft = generate("qft", 4)

flat = build_hypergraph(qft)
print(f"ungrouped: {len(flat.vertices)} vertices, {len(flat.edges)} edges, "
      f"{sum(len(e.pins) for e in flat.edges)} pins")

groups = find_groups(qft)
grouped = build_hypergraph(qft, groups)
print(f"grouped:   {len(grouped.vertices)} vertices, {len(grouped.edges)} edges, "
      f"{sum(len(e.pins) for e in grouped.edges)} pins")
for i, e in enumerate(grouped.edges):
    print(f"  edge {i}: pins {e.pins} shares {e.pins[0]} origin {e.origin}")

# same assignment, different cost model: the grouped edges count each
# spanned block once instead of once per gate
split = [0, 0, 1, 1]
print("ungrouped cut:", cut_cost(flat, split, 2))
print("grouped cut:  ", cut_cost(grouped, split, 2))

# the hMETIS rendering feeds external partitioners; weights appear only
# when something is not unit weight (fmt 11), which no circuit graph has
print("\nhMETIS, grouped:")
print(export_hmetis(grouped), end="")
