#!/usr/bin/env python3
# Partition hypergraphs with the move-based refinement engine and compare
# a result with the mean random deal, the CLI's improvement baseline.

from qpart import Mode, PartitionConfig, build_hypergraph, generate, partition
from qpart.fm import expected_ebits

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

# grouped qft: refinement against the exact mean of every random deal
qft = generate("qft", 8)
h = build_hypergraph(qft, grouped=True)
cfg = PartitionConfig(blocks=2, restarts=16)
fm = partition(h, cfg)
base = expected_ebits(h, cfg)
print("qft8 grouped:", "fm ebits", fm.cut.ebits, "random mean ebits", f"{base:.2f}",
      f"improvement {100 * (base - fm.cut.ebits) / base:.1f}%")
