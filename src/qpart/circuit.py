"""Circuit IR and OpenQASM 2 subset parser/emitter.

The model is deliberately small: named quantum registers, a fixed gate
alphabet (H/X/Y/Z/S/T, RX/RY/RZ, CX/CZ/CP, CCX/CCZ, MEASURE, BARRIER) and
one statement per gate.  Circuits are immutable once built; width, size and
depth are computed at construction time.

Parser coverage is the OpenQASM 2.0 fragment emitted by common circuit
generators: header, optional include, register declarations, gate
applications with literal or pi-rational parameters, measure, barrier, and
``opaque`` declarations (used by the distribution emitter).  Gate
definitions and ``if`` statements are rejected.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from enum import Enum


class QasmError(ValueError):
    """Parse or validation failure, annotated with the source position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"line {line}, col {col}: {message}" if col is not None else f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


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
_NAME_TO_KIND = {k.value: k for k in GateKind if k not in (GateKind.OPAQUE,)}
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
        (lay + 1 for g, lay in zip(gates, gate_layers_from(registers, gates))
         if g.kind is not GateKind.BARRIER), default=0)
    return Circuit(name=name, registers=registers, gates=gates, cregs=cregs,
                   width=width, size=size, depth=depth)


def gate_layers_from(registers: tuple[tuple[str, int], ...], gates: tuple[Gate, ...]) -> list[int]:
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
    return gate_layers_from(circuit.registers, circuit.gates)


# --------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<arrow>->)
  | (?P<sym>[\[\](),;*/+-])
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QasmError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, name: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.name = name
        self.qregs: dict[str, int] = {}  # name -> size, in declaration order
        self.cregs: dict[str, int] = {}
        self.opaque: dict[str, int] = {}  # declared name -> arity
        self.gates: list[Gate] = []

    # token helpers ---------------------------------------------------------
    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("eof", "", -1, -1)

    def _next(self):
        tok = self._peek()
        if tok[0] == "eof":
            raise QasmError("unexpected end of input")
        self.pos += 1
        return tok

    def _expect(self, kind: str, value: str | None = None):
        tok = self._next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise QasmError(f"expected {want!r}, got {tok[1]!r}", tok[2], tok[3])
        return tok

    def _fail(self, message: str):
        tok = self._peek()
        raise QasmError(message, tok[2], tok[3])

    def _add(self, kind: GateKind, operands, params: tuple[float, ...] = (), **extra) -> None:
        """Append a gate numbered by its list position, as make_circuit
        numbers it."""
        self.gates.append(Gate(kind, tuple(operands), params, seq=len(self.gates), **extra))

    # grammar ---------------------------------------------------------------
    def parse(self) -> Circuit:
        tok = self._expect("ident")
        if tok[1] != "OPENQASM":
            raise QasmError("file must start with 'OPENQASM 2.0;'", tok[2], tok[3])
        ver = self._expect("number")
        if ver[1] != "2.0":
            raise QasmError(f"unsupported OPENQASM version {ver[1]}", ver[2], ver[3])
        self._expect("sym", ";")
        while self._peek()[0] != "eof":
            self._statement()
        if not self.qregs:
            raise QasmError("no quantum register declared")
        return make_circuit(self.name, list(self.qregs.items()), self.gates,
                            list(self.cregs.items()))

    def _statement(self) -> None:
        tok = self._expect("ident")
        word = tok[1]
        if word == "include":
            self._expect("string")
            self._expect("sym", ";")
        elif word in ("qreg", "creg"):
            name = self._expect("ident")[1]
            self._expect("sym", "[")
            size = int(self._expect("number")[1])
            self._expect("sym", "]")
            self._expect("sym", ";")
            if name in self.qregs or name in self.cregs:
                raise QasmError(f"register {name!r} already declared", tok[2], tok[3])
            (self.qregs if word == "qreg" else self.cregs)[name] = size
        elif word == "opaque":
            name = self._expect("ident")[1]
            self._expect("ident")
            arity = 1
            while self._peek()[1] == ",":
                self._next()
                self._expect("ident")
                arity += 1
            self._expect("sym", ";")
            self.opaque[name] = arity
        elif word == "measure":
            self._measure(tok)
        elif word == "barrier":
            args = self._arglist()
            self._expect("sym", ";")
            qubits = []
            for a in args:
                qubits.extend(self._expand(a, tok))
            self._add(GateKind.BARRIER, qubits)
        elif word in ("gate", "if", "reset"):
            self._fail(f"'{word}' statements are not supported")
        else:
            self._application(word, tok)

    def _measure(self, tok) -> None:
        src = self._argument()
        self._expect("arrow")
        dst = self._argument()
        self._expect("sym", ";")
        squbits = self._expand(src, tok)
        if dst[0] not in self.cregs:
            raise QasmError(f"classical register {dst[0]!r} is not declared", tok[2], tok[3])
        if dst[1] is None:
            if len(squbits) != self.cregs[dst[0]]:
                raise QasmError("measure register sizes differ", tok[2], tok[3])
            targets = [(dst[0], i) for i in range(len(squbits))]
        else:
            if dst[1] >= self.cregs[dst[0]]:
                raise QasmError(f"bit {dst[0]}[{dst[1]}] out of range", tok[2], tok[3])
            if len(squbits) != 1:
                raise QasmError("cannot measure a register into one bit", tok[2], tok[3])
            targets = [(dst[0], dst[1])]
        for q, c in zip(squbits, targets):
            self._add(GateKind.MEASURE, (q,), cbit=c)

    def _application(self, word: str, tok) -> None:
        params: tuple[float, ...] = ()
        if self._peek()[1] == "(":
            self._next()
            values = [self._param_expr()]
            while self._peek()[1] == ",":
                self._next()
                values.append(self._param_expr())
            self._expect("sym", ")")
            params = tuple(values)
        args = self._arglist()
        self._expect("sym", ";")
        if word in self.opaque:
            kind, label = GateKind.OPAQUE, word
            operands = []
            for a in args:
                got = self._expand(a, tok)
                if len(got) != 1:
                    raise QasmError("opaque calls need indexed operands", tok[2], tok[3])
                operands.append(got[0])
            if len(operands) != self.opaque[word]:
                raise QasmError(f"{word} takes {self.opaque[word]} operand(s)", tok[2], tok[3])
            self._add(kind, operands, params, label=label)
            return
        kind = _NAME_TO_KIND.get(word)
        if kind is None or kind in (GateKind.MEASURE, GateKind.BARRIER):
            raise QasmError(f"unknown gate {word!r}", tok[2], tok[3])
        if len(params) != kind.n_params:
            raise QasmError(f"{word} takes {kind.n_params} parameter(s), got {len(params)}", tok[2], tok[3])
        if kind.n_qubits == 1:
            # bare register broadcasts over its qubits
            qubit_lists = [self._expand(a, tok) for a in args]
            if len(qubit_lists) != 1:
                raise QasmError(f"{word} takes 1 operand", tok[2], tok[3])
            for q in qubit_lists[0]:
                self._add(kind, (q,), params)
        else:
            operands = []
            for a in args:
                got = self._expand(a, tok)
                if len(got) != 1:
                    raise QasmError(f"{word} operands must be indexed qubits", tok[2], tok[3])
                operands.append(got[0])
            try:
                self._add(kind, operands, params)
            except ValueError as exc:
                raise QasmError(str(exc), tok[2], tok[3]) from None

    def _arglist(self) -> list[tuple[str, int | None]]:
        args = [self._argument()]
        while self._peek()[1] == ",":
            self._next()
            args.append(self._argument())
        return args

    def _argument(self) -> tuple[str, int | None]:
        name = self._expect("ident")[1]
        if self._peek()[1] == "[":
            self._next()
            idx = int(self._expect("number")[1])
            self._expect("sym", "]")
            return (name, idx)
        return (name, None)

    def _expand(self, arg: tuple[str, int | None], tok) -> list[QubitRef]:
        """Resolve an argument to qubits, broadcasting bare registers."""
        name, idx = arg
        if name not in self.qregs:
            raise QasmError(f"quantum register {name!r} is not declared", tok[2], tok[3])
        if idx is None:
            return [QubitRef(name, i) for i in range(self.qregs[name])]
        if idx >= self.qregs[name]:
            raise QasmError(f"qubit {name}[{idx}] out of range", tok[2], tok[3])
        return [QubitRef(name, idx)]

    def _param_expr(self) -> float:
        """literal | pi, optionally negated, combined with * and /."""
        sign = 1.0
        while self._peek()[1] in ("+", "-"):
            if self._next()[1] == "-":
                sign = -sign
        value = self._param_atom()
        while self._peek()[1] in ("*", "/"):
            op = self._next()[1]
            rhs = self._param_atom()
            if op == "*":
                value *= rhs
            else:
                if rhs == 0:
                    self._fail("division by zero in parameter")
                value /= rhs
        return sign * value

    def _param_atom(self) -> float:
        tok = self._next()
        if tok[0] == "number":
            return float(tok[1])
        if tok[0] == "ident" and tok[1] == "pi":
            return math.pi
        raise QasmError(f"unsupported parameter expression near {tok[1]!r}; "
                        "only literals and rational multiples of pi are accepted",
                        tok[2], tok[3])


def parse_qasm(text: str, name: str = "circuit") -> Circuit:
    """Parse the supported OpenQASM 2.0 subset into a Circuit."""
    return _Parser(text, name).parse()


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
