#!/usr/bin/env python3
# Turn a partition into an execution plan: which QPU runs each gate, which
# channels carry shared control state across the cut, and what each block's
# program looks like with explicit entangle/disentangle calls.

from qpart import (PartitionConfig, build_hypergraph, emit_subcircuits,
                   generate, partition, plan_distribution)

qft = generate("qft", 4)
h = build_hypergraph(qft, grouped=True)
res = partition(h, PartitionConfig(blocks=2))
plan = plan_distribution(qft, h, list(res.assignment))  # edges name their gates

print("assignment:", plan.assignment)
print("channels:")
for i, ch in enumerate(plan.channels):
    print(f"  channel {i}: vertex {ch.carries} "
          f"from QPU {plan.assignment[ch.carries]} to QPU {ch.remote}, live gates "
          f"{ch.first_use}..{ch.last_use}")

print("per block:")
for i, b in enumerate(plan.per_block):
    r = f"{b.e / b.o:.3f}" if b.o else "-"
    print(f"  QPU {i}: data={b.data} ops={b.o} e={b.e} r={r}")
print("total ebits:", plan.ebits)

for i, text in enumerate(emit_subcircuits(qft, plan)):
    print(f"\n--- QPU {i} program ---")
    print(text, end="")
