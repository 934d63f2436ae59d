#!/usr/bin/env python3
# Parse a QASM file, look at its metrics, and round-trip it through the
# emitter.  Everything downstream (grouping, partitioning, planning)
# starts from the Circuit object built here.

from pathlib import Path

from qpart import emit_qasm, gate_layers, generate, parse_qasm

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

text = (FIXTURES / "phase_kernel_6.qasm").read_text()
c = parse_qasm(text, name="phase_kernel_6")

print(f"{c.name}: width={c.width} size={c.size} depth={c.depth}")
print("registers:", c.registers)

# the first few gates, with their ASAP layers; operands are qubit indices,
# and c.qubits() names them
names = c.qubits()
layers = gate_layers(c)
for g, lay in list(zip(c.gates, layers))[:8]:
    ops = ",".join(str(names[q]) for q in g.operands)
    print(f"  layer {lay}: {g.qasm_name} {ops}")

# emit -> parse is gate-for-gate stable
again = parse_qasm(emit_qasm(c), name=c.name)
print("round-trip identical:", again.gates == c.gates)

# generated families work the same way
qft = generate("qft", 5)
print(f"{qft.name}: width={qft.width} size={qft.size} depth={qft.depth}")
