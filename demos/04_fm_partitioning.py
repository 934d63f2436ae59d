#!/usr/bin/env python3
# Partition hypergraphs with the move-based refinement engine and check a
# small case against the exhaustive reference.

from qpart import (Mode, PartitionConfig, brute_force_mincut, build_hypergraph,
                   find_groups, generate, partition)

# a 10-qubit chain: the ideal bipartition severs exactly one link
ghz = build_hypergraph(generate("ghz", 10))
res = partition(ghz, PartitionConfig(blocks=2))
print("ghz10 k=2:", "assignment", res.assignment,
      "cut", res.cut.cut_edges, "ebits", res.cut.ebits)

# four blocks via recursive bisection
res = partition(ghz, PartitionConfig(blocks=4))
print("ghz10 k=4:", "ebits", res.cut.ebits,
      "loads", list(res.loads))

# direct k-way with uneven hardware
res = partition(ghz, PartitionConfig(blocks=3, capacities=(5, 3, 2),
                                     mode=Mode.DIRECT_KWAY))
print("ghz10 k=3 caps(5,3,2):", "ebits", res.cut.ebits,
      "loads", list(res.loads))

# grouped qft: refinement matches the brute-force optimum here
qft = generate("qft", 8)
h = build_hypergraph(qft, find_groups(qft))
cfg = PartitionConfig(blocks=2, restarts=16)
fm = partition(h, cfg)
best = brute_force_mincut(h, cfg)
print("qft8 grouped:", "fm ebits", fm.cut.ebits, "oracle ebits", best.ebits)
