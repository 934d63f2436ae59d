"""Circuit IR and OpenQASM 2 subset parser/emitter.

The model is deliberately small: named quantum registers, a fixed gate
alphabet (H/X/Y/Z/S/T, RX/RY/RZ, CX/CZ/CP, CCX/CCZ, MEASURE, BARRIER) and
one statement per gate.  Circuits are immutable once built; width, size and
depth are computed at construction time.

Parser coverage is the OpenQASM 2.0 fragment emitted by common circuit
generators: header, optional include, register declarations, gate
applications with literal or pi-rational parameters, measure, barrier, and
``opaque`` declarations (used by the distribution emitter).  Gate
definitions and ``if`` statements are rejected.  Statements end with ``;``
and may share a line or span lines; ``//`` starts a comment that runs to
the end of its line.  A parse error names the line where its statement
starts.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from enum import Enum


class QasmError(ValueError):
    """Parse or validation failure; ``line`` is where the failing statement
    starts, or None for a failure that belongs to no one statement."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GateKind(Enum):
    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    T = "t"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    CX = "cx"
    CZ = "cz"
    CP = "cp"
    CCX = "ccx"
    CCZ = "ccz"
    MEASURE = "measure"
    BARRIER = "barrier"
    OPAQUE = "opaque"

    @property
    def n_qubits(self) -> int | None:
        """Operand count, or None for variable-arity kinds."""
        if self in _ONE_QUBIT:
            return 1
        if self in _TWO_QUBIT:
            return 2
        if self in _THREE_QUBIT:
            return 3
        if self is GateKind.MEASURE:
            return 1
        return None  # BARRIER and OPAQUE take any number

    @property
    def n_params(self) -> int:
        return _PARAM_COUNT.get(self, 0)


_ONE_QUBIT = {GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S,
              GateKind.T, GateKind.RX, GateKind.RY, GateKind.RZ}
_TWO_QUBIT = {GateKind.CX, GateKind.CZ, GateKind.CP}
_THREE_QUBIT = {GateKind.CCX, GateKind.CCZ}
_PARAM_COUNT = {GateKind.RX: 1, GateKind.RY: 1, GateKind.RZ: 1, GateKind.CP: 1}

# qasm statement name -> kind, including decomposable aliases
_NAME_TO_KIND = {k.value: k for k in GateKind
                 if k not in (GateKind.OPAQUE, GateKind.MEASURE, GateKind.BARRIER)}
_NAME_TO_KIND["cu1"] = GateKind.CP


@dataclass(frozen=True)
class QubitRef:
    """A (register, index) pair naming one qubit."""

    register: str
    index: int

    def __str__(self) -> str:
        return f"{self.register}[{self.index}]"


@dataclass(frozen=True)
class Gate:
    """One circuit statement.

    ``seq`` is the position in the circuit's gate list and is assigned at
    circuit construction.  ``cbit`` carries the classical target of a
    MEASURE; ``label`` carries the declared name of an OPAQUE call.
    """

    kind: GateKind
    operands: tuple[QubitRef, ...]
    params: tuple[float, ...] = ()
    seq: int = 0
    cbit: tuple[str, int] | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        arity = self.kind.n_qubits
        if arity is not None and len(self.operands) != arity:
            raise ValueError(f"{self.kind.value} takes {arity} operand(s), got {len(self.operands)}")
        if len(set(self.operands)) != len(self.operands):
            raise ValueError(f"{self.kind.value} operands must be distinct: {self.operands}")
        if self.kind is not GateKind.OPAQUE and len(self.params) != self.kind.n_params:
            raise ValueError(f"{self.kind.value} takes {self.kind.n_params} parameter(s), got {len(self.params)}")
        if self.kind is GateKind.OPAQUE and not self.label:
            raise ValueError("opaque gate needs a label")

    @property
    def qasm_name(self) -> str:
        return self.label if self.kind is GateKind.OPAQUE else self.kind.value


@dataclass(frozen=True)
class Circuit:
    """Immutable gate list with precomputed metrics.

    ``registers`` are the quantum registers in declaration order; ``cregs``
    the classical ones (kept only so MEASURE round-trips).  ``size`` counts
    non-BARRIER gates.  ``depth`` is the greedy as-soon-as-possible layer
    count: a gate lands one layer past the latest previous gate on any of
    its operands, and BARRIER synchronises its operands without occupying a
    layer of its own.
    """

    name: str
    registers: tuple[tuple[str, int], ...]
    gates: tuple[Gate, ...]
    cregs: tuple[tuple[str, int], ...] = ()
    width: int = 0
    size: int = 0
    depth: int = 0

    def qubits(self) -> list[QubitRef]:
        """All qubits in register-declaration order."""
        return [QubitRef(reg, i) for reg, n in self.registers for i in range(n)]

    def qubit_index(self) -> dict[QubitRef, int]:
        """Qubit -> dense index, following register-declaration order."""
        return {q: i for i, q in enumerate(self.qubits())}


def make_circuit(name: str,
                 registers: list[tuple[str, int]] | tuple[tuple[str, int], ...],
                 gates: list[Gate] | tuple[Gate, ...],
                 cregs: list[tuple[str, int]] | tuple[tuple[str, int], ...] = ()) -> Circuit:
    """Build a validated Circuit; reassigns seq numbers to list positions."""
    registers = tuple(registers)
    cregs = tuple(cregs)
    names = [r for r, _ in registers] + [c for c, _ in cregs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate register name in {names}")
    for _, n in registers + cregs:
        if n < 1:
            raise ValueError("register size must be positive")
    declared = {QubitRef(reg, i) for reg, n in registers for i in range(n)}
    fixed = []
    for i, g in enumerate(gates):
        for q in g.operands:
            if q not in declared:
                raise QasmError(f"qubit {q} is not declared")
        fixed.append(replace(g, seq=i) if g.seq != i else g)
    gates = tuple(fixed)
    width = sum(n for _, n in registers)
    size = sum(1 for g in gates if g.kind is not GateKind.BARRIER)
    depth = 0 if not gates else max(
        (lay + 1 for g, lay in zip(gates, _layers(gates))
         if g.kind is not GateKind.BARRIER), default=0)
    return Circuit(name=name, registers=registers, gates=gates, cregs=cregs,
                   width=width, size=size, depth=depth)


def _layers(gates: tuple[Gate, ...]) -> list[int]:
    """Zero-based ASAP layer per gate; BARRIER records its sync point."""
    frontier: dict[QubitRef, int] = {}
    layers = []
    for g in gates:
        at = max((frontier.get(q, 0) for q in g.operands), default=0)
        layers.append(at)
        if g.kind is GateKind.BARRIER:
            for q in g.operands:
                frontier[q] = at
        else:
            for q in g.operands:
                frontier[q] = at + 1
    return layers


def gate_layers(circuit: Circuit) -> list[int]:
    return _layers(circuit.gates)


# --------------------------------------------------------------------------
# parsing

# a quoted string is kept whole, so a "//" inside it is not a comment
_COMMENT_RE = re.compile(r'("[^"\n]*")|//[^\n]*')
# word [ (params) ] rest
_STATEMENT_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\(([^()]*)\))?(.*)", re.S)
# name [ [index] ]
_ARG_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[\s*(\d+)\s*\])?\s*")
_STRING_RE = re.compile(r'\s*"[^"\n]*"\s*')
# name param (, param)*
_OPAQUE_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s+[A-Za-z_][A-Za-z0-9_]*"
                        r"((?:\s*,\s*[A-Za-z_][A-Za-z0-9_]*)*)\s*")
_SIGNS_RE = re.compile(r"\s*((?:[+-]\s*)*)")
_OPERATOR_RE = re.compile(r"([*/])")
# literal | pi
_ATOM_RE = re.compile(r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                      r"|\d+(?:[eE][+-]?\d+)?)|pi)\s*")
_KEYWORDS = ("include", "qreg", "creg", "opaque", "measure", "barrier")


def _statements(text: str):
    """Yield (line, statement) per ``;``-terminated statement, comments
    blanked and leading blanks stripped; ``line`` is where the statement
    starts.  Non-blank text after the last ``;`` is an error."""
    *statements, tail = _COMMENT_RE.sub(r"\1", text).split(";")
    line = 1
    for stmt in statements:
        body = stmt.lstrip()
        line += stmt.count("\n", 0, len(stmt) - len(body))
        yield line, body
        line += body.count("\n")
    body = tail.lstrip()
    if body:
        raise QasmError("unexpected end of input", line + tail.count("\n", 0, len(tail) - len(body)))


def _arg(text: str) -> tuple[str, int | None]:
    m = _ARG_RE.fullmatch(text)
    if m is None:
        raise QasmError(f"malformed argument {text.strip()!r}")
    return m[1], None if m[2] is None else int(m[2])


def _param(text: str) -> float:
    """Signs, then literal or pi atoms joined by * and /, folded left to
    right."""
    signs = _SIGNS_RE.match(text)
    parts = _OPERATOR_RE.split(text[signs.end():])
    atoms = []
    for atom in parts[::2]:
        m = _ATOM_RE.fullmatch(atom)
        if m is None:
            raise QasmError(f"unsupported parameter expression {text.strip()!r}; "
                            "only literals and rational multiples of pi are accepted")
        atoms.append(math.pi if m[1] is None else float(m[1]))
    value = atoms[0]
    for op, rhs in zip(parts[1::2], atoms[1:]):
        if op == "*":
            value *= rhs
        elif rhs == 0:
            raise QasmError("division by zero in parameter")
        else:
            value /= rhs
    return (-1.0 if signs[1].count("-") % 2 else 1.0) * value


class _Parser:
    def __init__(self, name: str):
        self.name = name
        self.qregs: dict[str, int] = {}  # name -> size, in declaration order
        self.cregs: dict[str, int] = {}
        self.opaque: dict[str, int] = {}  # declared name -> arity
        self.gates: list[Gate] = []

    def _add(self, kind: GateKind, operands, params: tuple[float, ...] = (), **extra) -> None:
        """Append a gate numbered by its list position, as make_circuit
        numbers it."""
        self.gates.append(Gate(kind, tuple(operands), params, seq=len(self.gates), **extra))

    def parse(self, text: str) -> Circuit:
        statements = _statements(text)
        line, body = next(statements, (1, ""))
        m = _STATEMENT_RE.match(body)
        if m is None or m[1] != "OPENQASM":
            raise QasmError("file must start with 'OPENQASM 2.0;'", line)
        if m[2] is not None or m[3].strip() != "2.0":
            raise QasmError(f"unsupported OPENQASM version {m[3].strip()}", line)
        for line, body in statements:
            try:
                self._statement(body)
            except ValueError as exc:  # gate validation included
                raise QasmError(str(exc), line) from None
        if not self.qregs:
            raise QasmError("no quantum register declared")
        return make_circuit(self.name, list(self.qregs.items()), self.gates,
                            list(self.cregs.items()))

    def _statement(self, body: str) -> None:
        m = _STATEMENT_RE.match(body)
        if m is None:
            raise QasmError(f"malformed statement {body!r}")
        word, params, rest = m.groups()
        if word in ("gate", "if", "reset"):
            raise QasmError(f"'{word}' statements are not supported")
        if word not in _KEYWORDS:
            self._application(word, params, rest)
            return
        if params is not None:
            raise QasmError(f"{word} takes no parameters")
        if word == "include":
            if _STRING_RE.fullmatch(rest) is None:
                raise QasmError("include needs a quoted file name")
        elif word in ("qreg", "creg"):
            name, size = _arg(rest)
            if size is None:
                raise QasmError(f"{word} needs a size")
            if size < 1:
                raise QasmError("register size must be positive")
            if name in self.qregs or name in self.cregs:
                raise QasmError(f"register {name!r} already declared")
            (self.qregs if word == "qreg" else self.cregs)[name] = size
        elif word == "opaque":
            decl = _OPAQUE_RE.fullmatch(rest)
            if decl is None:
                raise QasmError(f"malformed opaque declaration {rest.strip()!r}")
            self.opaque[decl[1]] = decl[2].count(",") + 1
        elif word == "measure":
            self._measure(rest)
        else:
            qubits = []
            for a in rest.split(","):
                qubits.extend(self._expand(_arg(a)))
            self._add(GateKind.BARRIER, qubits)

    def _measure(self, rest: str) -> None:
        src, arrow, dst = rest.partition("->")
        if not arrow:
            raise QasmError("measure needs '->'")
        squbits = self._expand(_arg(src))
        creg, bit = _arg(dst)
        if creg not in self.cregs:
            raise QasmError(f"classical register {creg!r} is not declared")
        if bit is None:
            if len(squbits) != self.cregs[creg]:
                raise QasmError("measure register sizes differ")
            targets = [(creg, i) for i in range(len(squbits))]
        else:
            if bit >= self.cregs[creg]:
                raise QasmError(f"bit {creg}[{bit}] out of range")
            if len(squbits) != 1:
                raise QasmError("cannot measure a register into one bit")
            targets = [(creg, bit)]
        for q, c in zip(squbits, targets):
            self._add(GateKind.MEASURE, (q,), cbit=c)

    def _application(self, word: str, params: str | None, rest: str) -> None:
        values = () if params is None else tuple(_param(p) for p in params.split(","))
        args = [_arg(a) for a in rest.split(",")]
        if word in self.opaque:
            operands = []
            for a in args:
                got = self._expand(a)
                if len(got) != 1:
                    raise QasmError("opaque calls need indexed operands")
                operands.append(got[0])
            if len(operands) != self.opaque[word]:
                raise QasmError(f"{word} takes {self.opaque[word]} operand(s)")
            self._add(GateKind.OPAQUE, operands, values, label=word)
            return
        kind = _NAME_TO_KIND.get(word)
        if kind is None:
            raise QasmError(f"unknown gate {word!r}")
        if len(values) != kind.n_params:
            raise QasmError(f"{word} takes {kind.n_params} parameter(s), got {len(values)}")
        if kind.n_qubits == 1:
            # bare register broadcasts over its qubits
            qubit_lists = [self._expand(a) for a in args]
            if len(qubit_lists) != 1:
                raise QasmError(f"{word} takes 1 operand")
            for q in qubit_lists[0]:
                self._add(kind, (q,), values)
        else:
            operands = []
            for a in args:
                got = self._expand(a)
                if len(got) != 1:
                    raise QasmError(f"{word} operands must be indexed qubits")
                operands.append(got[0])
            self._add(kind, operands, values)

    def _expand(self, arg: tuple[str, int | None]) -> list[QubitRef]:
        """Resolve an argument to qubits, broadcasting bare registers."""
        name, idx = arg
        if name not in self.qregs:
            raise QasmError(f"quantum register {name!r} is not declared")
        if idx is None:
            return [QubitRef(name, i) for i in range(self.qregs[name])]
        if idx >= self.qregs[name]:
            raise QasmError(f"qubit {name}[{idx}] out of range")
        return [QubitRef(name, idx)]


def parse_qasm(text: str, name: str = "circuit") -> Circuit:
    """Parse the supported OpenQASM 2.0 subset into a Circuit."""
    return _Parser(name).parse(text)


# --------------------------------------------------------------------------
# emission

def _fmt_param(x: float) -> str:
    # repr is the shortest string that re-parses to exactly the same float
    return repr(float(x))


def _cregs(circuit: Circuit) -> tuple[tuple[str, int], ...]:
    """Declared cregs, or ``c[width]`` when the circuit measures without any."""
    if not circuit.cregs and any(g.kind is GateKind.MEASURE for g in circuit.gates):
        return (("c", circuit.width),)
    return circuit.cregs


def _preamble(circuit: Circuit, gates, cregs, opaque: tuple[str, ...] = (),
              comm_width: int = 0) -> list[str]:
    """Header and declarations: the ``opaque`` lines given, one opaque per
    label that ``gates`` call, the circuit's qregs, ``ebit[comm_width]``
    when nonzero, then ``cregs``."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', *opaque]
    arity: dict[str, int] = {}
    for g in gates:
        if g.kind is GateKind.OPAQUE:
            arity.setdefault(g.label, len(g.operands))
    for label, n in arity.items():
        lines.append(f"opaque {label} {','.join(chr(ord('a') + i) for i in range(n))};")
    lines += [f"qreg {reg}[{n}];" for reg, n in circuit.registers]
    if comm_width:
        lines.append(f"qreg ebit[{comm_width}];")
    lines += [f"creg {reg}[{n}];" for reg, n in cregs]
    return lines


def _gate_line(g: Gate, ops: list[str], cregs, index: dict[QubitRef, int]) -> str:
    """One statement applying ``g`` to the operand strings ``ops``; a
    measure without a classical target writes to ``cregs[0]`` at the
    qubit's dense index."""
    if g.kind is GateKind.MEASURE:
        cb = g.cbit if g.cbit is not None else (cregs[0][0], index[g.operands[0]])
        return f"measure {ops[0]} -> {cb[0]}[{cb[1]}];"
    if g.params:
        return f"{g.qasm_name}({','.join(_fmt_param(p) for p in g.params)}) {','.join(ops)};"
    return f"{g.qasm_name} {','.join(ops)};"


def emit_qasm(circuit: Circuit) -> str:
    """Emit the circuit as OpenQASM 2.0; parse(emit(c)) is gate-for-gate c."""
    cregs = _cregs(circuit)
    lines = _preamble(circuit, circuit.gates, cregs)
    index = circuit.qubit_index()
    lines += [_gate_line(g, [str(q) for q in g.operands], cregs, index)
              for g in circuit.gates]
    return "\n".join(lines) + "\n"
