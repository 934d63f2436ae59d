#!/usr/bin/env python3
# Parse a QASM file, look at its metrics, and round-trip it through the
# emitter.  Everything downstream (grouping, partitioning, planning)
# starts from the Circuit object built here.  Circuit(name, registers,
# gates) checks its input and derives width, size and depth itself.

from pathlib import Path

from qpart import (Circuit, Gate, GateKind, QasmError, emit_qasm, gate_layers,
                   generate, parse_qasm)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

text = (FIXTURES / "phase_kernel_6.qasm").read_text()
c = parse_qasm(text, name="phase_kernel_6")

print(f"{c.name}: width={c.width} size={c.size} depth={c.depth}")
print("registers:", c.registers)

# the first few gates, with their ASAP layers; operands are qubit indices,
# and c.qubits()[q] is the written name of qubit q ("q[3]")
names = c.qubits()
layers = gate_layers(c)
for g, lay in list(zip(c.gates, layers))[:8]:
    ops = ",".join(names[q] for q in g.operands)
    print(f"  layer {lay}: {g.qasm_name} {ops}")

# emit -> parse is gate-for-gate stable
again = parse_qasm(emit_qasm(c), name=c.name)
print("round-trip identical:", again.gates == c.gates)

# generated families work the same way
qft = generate("qft", 5)
print(f"{qft.name}: width={qft.width} size={qft.size} depth={qft.depth}")

# a circuit built by hand: Circuit checks its registers and operands and
# derives the metrics, so no circuit carries a width its registers lack
bell = Circuit("bell", [("q", 2)], [Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 1))])
print(f"{bell.name}: width={bell.width} size={bell.size} depth={bell.depth}")
try:
    Circuit("bad", [("q", 2)], [Gate(GateKind.CX, (0, 2))])
except QasmError as exc:
    print("refused:", exc)
