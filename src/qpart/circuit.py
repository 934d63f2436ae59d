"""Circuit IR, the OpenQASM 2 subset parser, and the one QASM writer.

The model is deliberately small: named quantum registers, a fixed gate
alphabet (H/X/Y/Z/S/T, RX/RY/RZ, CX/CZ/CP, CCX/CCZ, MEASURE, BARRIER) and
one statement per gate.  Gates and circuits are immutable once built.  A
gate is checked once, as it is built; a circuit checks its registers, and
one sweep over its gates checks their operands and derives width, size
and depth.

A gate's operands are dense qubit indices: the registers' qubits numbered
in declaration order, so in ``qreg a[2]; qreg b[3];`` ``b[0]`` is qubit 2.
The parser resolves each operand once, and every later stage works on the
indices.  ``Circuit.qubits()`` is the one name table: entry ``q`` is the
name written for qubit ``q`` (``"b[0]"``) in emitted programs and messages.

Parser coverage is the OpenQASM 2.0 fragment emitted by common circuit
generators: header, optional include, register declarations, gate
applications with literal or pi-rational parameters, measure, barrier, and
``opaque`` declarations (used by the distributed programs); an opaque may
not redeclare a built-in gate, nor an opaque at another arity.  Gate
definitions and ``if`` statements are rejected.  Statements end with ``;``
and may share a line or span lines; ``//`` starts a comment that runs to
the end of its line.  A parse error names the line where its statement
starts.

All program text is written here, by ``_programs``: one sweep over the
gates writes one program per block.  ``emit_qasm`` is its case of one
block and no channels; ``distribution.emit_subcircuits`` passes it a plan.
Every circuit that construction accepts writes as text the parser reads
back: a register name and an opaque label are identifiers, a label is no
statement word and no built-in gate name and is called at one arity, a
parameter is finite, and a measure writes to a declared bit, or to a ``c``
register of its own when the circuit declares no creg and no ``c``.
Distributed programs also declare an ``ebit`` register and call the cat
primitives ``cat_entangler`` and ``cat_disentangler``, so when a plan has
a channel the writer refuses a circuit that uses those names.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
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
    """A gate kind: its QASM name, ``n_qubits`` operands (None for the
    variable-arity BARRIER and OPAQUE) and ``n_params`` parameters.

    Every multi-qubit kind is a controlled gate.  ``groupable`` marks the
    two-qubit ones (CX/CZ/CP), whose runs on one control can share an
    entangled pair; ``splittable`` marks them all, since each may run with
    remote operands riding channels.  These and ``qasm``, the QASM name,
    are plain member attributes, so per-gate code tests them without
    hashing the member or reading the ``value`` descriptor.
    """

    H = ("h", 1)
    X = ("x", 1)
    Y = ("y", 1)
    Z = ("z", 1)
    S = ("s", 1)
    T = ("t", 1)
    RX = ("rx", 1, 1)
    RY = ("ry", 1, 1)
    RZ = ("rz", 1, 1)
    CX = ("cx", 2)
    CZ = ("cz", 2)
    CP = ("cp", 2, 1)
    CCX = ("ccx", 3)
    CCZ = ("ccz", 3)
    MEASURE = ("measure", 1)
    BARRIER = ("barrier", None)
    OPAQUE = ("opaque", None)

    def __new__(cls, name: str, n_qubits: int | None, n_params: int = 0):
        kind = object.__new__(cls)
        kind._value_ = kind.qasm = name
        kind.n_qubits = n_qubits
        kind.n_params = n_params
        kind.groupable = n_qubits == 2
        kind.splittable = n_qubits in (2, 3)
        return kind


# qasm statement name -> kind, including decomposable aliases
_NAME_TO_KIND = {k.value: k for k in GateKind
                 if k not in (GateKind.OPAQUE, GateKind.MEASURE, GateKind.BARRIER)}
_NAME_TO_KIND["cu1"] = GateKind.CP
# per-gate code reads the member once, here: a member read off the enum
# class goes through EnumType's attribute hook, several times slower than
# reading a plain class attribute
_OPAQUE, _MEASURE = GateKind.OPAQUE, GateKind.MEASURE


@dataclass(frozen=True, slots=True, init=False)
class Gate:
    """One circuit statement, checked once as it is built and frozen after.

    ``operands`` are dense qubit indices in register-declaration order;
    ``Circuit.qubits()`` names them.  A gate is identified by its position
    in the circuit's gate list.  ``cbit`` carries the classical target of a
    MEASURE; ``label`` carries the declared name of an OPAQUE call.

    Construction refuses (ValueError) an operand count other than the
    kind's, a repeated operand, a parameter count other than the kind's
    (an OPAQUE takes any), a parameter that is not finite, and an OPAQUE
    label that is no identifier, or is a statement word or a built-in gate
    name: each would write as text that does not read back as this gate.
    The ``__init__`` is written out, so the checks run in it with no
    ``__post_init__`` call; assignment still raises ``FrozenInstanceError``,
    and ``==``, ``hash``, ``repr`` and ``dataclasses.replace`` are the
    dataclass's.
    """

    kind: GateKind
    operands: tuple[int, ...]
    params: tuple[float, ...] = ()
    cbit: tuple[str, int] | None = None
    label: str | None = None

    def __init__(self, kind: GateKind, operands: tuple[int, ...], params: tuple[float, ...] = (),
                 cbit: tuple[str, int] | None = None, label: str | None = None) -> None:
        n = len(operands)
        if kind.n_qubits is not None and n != kind.n_qubits:
            raise ValueError(f"{kind.value} takes {kind.n_qubits} operand(s), got {n}")
        if n > 1 and len(set(operands)) != n:
            raise ValueError(f"{kind.value} operands must be distinct: "
                             f"{', '.join(map(str, operands))}")
        if kind is _OPAQUE:
            # no label may shadow a statement word or a gate the parser dispatches on
            if not _IDENT_RE.fullmatch(label or "") or label in _NO_LABEL:
                raise ValueError(f"opaque gate needs a label that is an identifier and "
                                 f"no statement word or built-in gate name, got {label!r}")
        elif len(params) != kind.n_params:
            raise ValueError(f"{kind.value} takes {kind.n_params} parameter(s), got {len(params)}")
        for p in params:
            if not math.isfinite(p):
                raise ValueError(f"{kind.value} parameter {p!r} is not finite")
        # the frozen __setattr__ refuses every write, so object.__setattr__
        # fills the slots; a slotted gate holds its fields in the object
        # itself, with no per-instance dict or values array
        set_ = object.__setattr__
        set_(self, "kind", kind)
        set_(self, "operands", operands)
        set_(self, "params", params)
        set_(self, "cbit", cbit)
        set_(self, "label", label)

    @property
    def qasm_name(self) -> str:
        return self.label if self.kind is _OPAQUE else self.kind.qasm


@dataclass(frozen=True, slots=True)
class Circuit:
    """Immutable, validated gate list with its metrics.

    ``registers`` are the quantum registers in declaration order; ``cregs``
    the classical ones (kept only so MEASURE round-trips).  Either may be
    given as a list or a tuple; a tuple is stored.  Construction refuses
    a register name that is repeated or no identifier, a register size
    below 1, one opaque label called with two operand counts, and a
    measure without a classical bit in a circuit that declares a creg or a
    register named ``c`` (ValueError); and an operand that indexes none of
    the registers' qubits or a measure bit that no creg holds (QasmError).

    ``width``, ``size`` and ``depth`` are derived, never passed:
    ``width`` counts the registers' qubits, ``size`` the non-BARRIER
    gates, and ``depth`` is the greedy as-soon-as-possible layer count of
    ``gate_layers``, where BARRIER occupies no layer of its own.  One
    sweep over the gates, ``_sweep``, checks them and derives the metrics.
    """

    name: str
    registers: tuple[tuple[str, int], ...]
    gates: tuple[Gate, ...]
    cregs: tuple[tuple[str, int], ...] = ()
    width: int = field(init=False)
    size: int = field(init=False)
    depth: int = field(init=False)

    def __post_init__(self) -> None:
        setattr_ = object.__setattr__
        for attr in ("registers", "gates", "cregs"):
            setattr_(self, attr, tuple(getattr(self, attr)))
        names = [r for r, _ in self.registers] + [c for c, _ in self.cregs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register name in {names}")
        bad = [name for name in names if not _IDENT_RE.fullmatch(name)]
        if bad:
            raise ValueError(f"register name {bad[0]!r} is not an identifier")
        if any(n < 1 for _, n in self.registers + self.cregs):
            raise ValueError("register size must be positive")
        width = sum(n for _, n in self.registers)
        _, size, depth, targets = _sweep(self.gates, width)
        bad = targets - {(reg, i) for reg, n in self.cregs for i in range(n)} - {None}
        if bad:
            reg, bit = min(bad)
            raise QasmError(f"bit {reg}[{bit}] is not declared")
        if None in targets and (self.cregs or "c" in names):  # a bare measure writes to c
            raise ValueError("a measure without a bit needs no creg and no register c")
        setattr_(self, "width", width)
        setattr_(self, "size", size)
        setattr_(self, "depth", depth)

    def qubits(self) -> list[str]:
        """The written name of every qubit (``"a[1]"``), indexed by its
        dense operand index."""
        return [f"{reg}[{i}]" for reg, n in self.registers for i in range(n)]


def _sweep(gates, width: int) -> tuple[list[int], int, int, set]:
    """One pass over ``gates`` on ``width`` qubits: (the zero-based ASAP
    layer per gate, the size, the depth, the measure targets).

    A gate takes the first layer free on all its wires and frees the next;
    a BARRIER records its sync point and occupies no layer, so it counts
    toward neither size nor depth.  Refuses an operand outside
    ``range(width)`` (QasmError) and one opaque label at two operand
    counts (ValueError)."""
    barrier, measure, opaque = GateKind.BARRIER, GateKind.MEASURE, GateKind.OPAQUE
    frontier = [0] * width  # per qubit: the first layer free on its wire
    layers = []
    targets = set()
    arity: dict[str, int] = {}  # opaque label -> operands
    size = depth = 0
    for g in gates:
        kind, ops = g.kind, g.operands
        at = 0
        for q in ops:
            if not 0 <= q < width:
                raise QasmError(f"qubit {q} is not declared; the registers hold {width}")
            if frontier[q] > at:
                at = frontier[q]
        layers.append(at)
        if kind is barrier:
            free = at
        else:
            free = at + 1
            size += 1
            if free > depth:
                depth = free
            if kind is measure:
                targets.add(g.cbit)
            elif kind is opaque and arity.setdefault(g.label, len(ops)) != len(ops):
                raise ValueError(f"opaque gate {g.label!r} is called with "
                                 f"{arity[g.label]} and {len(ops)} operands")
        for q in ops:
            frontier[q] = free
    return layers, size, depth, targets


def gate_layers(circuit: Circuit) -> list[int]:
    """Zero-based ASAP layer per gate; BARRIER records its sync point."""
    return _sweep(circuit.gates, circuit.width)[0]


# --------------------------------------------------------------------------
# parsing

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_IDENT)  # also a register name and an opaque label
# a quoted string is kept whole, so a "//" inside it is not a comment
_COMMENT_RE = re.compile(r'("[^"\n]*")|//[^\n]*')
# word [ (params) ] rest
_STATEMENT_RE = re.compile(rf"({_IDENT})\s*(?:\(([^()]*)\))?(.*)", re.S)
# name [ [index] ]
_ARG_RE = re.compile(rf"\s*({_IDENT})\s*(?:\[\s*(\d+)\s*\])?\s*")
_STRING_RE = re.compile(r'\s*"[^"\n]*"\s*')
# name param (, param)*
_OPAQUE_RE = re.compile(rf"\s*({_IDENT})\s+{_IDENT}((?:\s*,\s*{_IDENT})*)\s*")
_SIGNS_RE = re.compile(r"\s*((?:[+-]\s*)*)")
_OPERATOR_RE = re.compile(r"([*/])")
# literal | pi
_ATOM_RE = re.compile(r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                      r"|\d+(?:[eE][+-]?\d+)?)|pi)\s*")
_KEYWORDS = ("include", "qreg", "creg", "opaque", "measure", "barrier")
_UNSUPPORTED = ("gate", "if", "reset")
# what an opaque label may not be: a statement word or a built-in gate
_NO_LABEL = frozenset(_KEYWORDS + _UNSUPPORTED + tuple(_NAME_TO_KIND))


def _line(pieces: list[str], i: int) -> int:
    """The line where ``pieces[i]`` starts, past its leading blanks; the
    pieces are the text split at each ``;``.  Counted only for an error."""
    piece = pieces[i]
    lead = len(piece) - len(piece.lstrip())
    return 1 + sum(p.count("\n") for p in pieces[:i]) + piece.count("\n", 0, lead)


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
    """One parse.  Each gate is built, and so checked, once.  Two memos
    skip repeated work: parameter text -> values, and argument text ->
    the one qubit it names.  An error ends the parse, so both hold
    successes only; a statement skips the argument syntax and register
    lookups of each argument in the second memo, which that argument
    would pass, and resolves the others in order, so its faults are
    reported in the order they would be without the memo."""

    def __init__(self, name: str):
        self.name = name
        # name -> (index of its first qubit, size), in declaration order
        self.qregs: dict[str, tuple[int, int]] = {}
        self.width = 0
        self.cregs: dict[str, int] = {}
        self.opaque: dict[str, int] = {}  # declared name -> arity
        self.gates: list[Gate] = []
        self.values: dict[str, tuple[float, ...]] = {}  # parameter text -> values
        self.qubit: dict[str, int] = {}  # argument text -> the indexed qubit it names

    def _add(self, kind: GateKind, operands: tuple[int, ...], params: tuple[float, ...] = (),
             cbit: tuple[str, int] | None = None, label: str | None = None) -> None:
        """Append a gate.  A repeated operand is refused by its written
        names, before any other fault of the gate."""
        try:
            self.gates.append(Gate(kind, operands, params, cbit, label))
        except ValueError:
            if len(set(operands)) != len(operands):
                raise QasmError(f"{kind.value} operands must be distinct: "
                                + ", ".join(self._name(q) for q in operands)) from None
            raise

    def _name(self, q: int) -> str:
        """How qubit ``q`` is written: registers are numbered in order."""
        for reg, (first, size) in self.qregs.items():
            if q < first + size:
                return f"{reg}[{q - first}]"

    def parse(self, text: str) -> Circuit:
        # the ;-terminated statements with comments blanked, then the text
        # after the last ;, which must be blank
        pieces = _COMMENT_RE.sub(r"\1", text).split(";")
        last = len(pieces) - 1
        if not last and pieces[0].strip():
            raise QasmError("unexpected end of input", _line(pieces, 0))
        m = _STATEMENT_RE.match(pieces[0].lstrip())
        if m is None or m[1] != "OPENQASM":
            raise QasmError("file must start with 'OPENQASM 2.0;'", _line(pieces, 0) if last else 1)
        if m[2] is not None or m[3].strip() != "2.0":
            raise QasmError(f"unsupported OPENQASM version {m[3].strip()}", _line(pieces, 0))
        for i in range(1, last):
            try:
                self._statement(pieces[i].lstrip())
            except ValueError as exc:  # gate validation included
                raise QasmError(str(exc), _line(pieces, i)) from None
        if pieces[last].strip():
            raise QasmError("unexpected end of input", _line(pieces, last))
        if not self.qregs:
            raise QasmError("no quantum register declared")
        return Circuit(self.name, [(reg, size) for reg, (_, size) in self.qregs.items()],
                       self.gates, list(self.cregs.items()))

    def _statement(self, body: str) -> None:
        m = _STATEMENT_RE.match(body)
        if m is None:
            raise QasmError(f"malformed statement {body!r}")
        word, params, rest = m.groups()
        if word in _UNSUPPORTED:
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
            if word == "qreg":
                self.qregs[name] = (self.width, size)
                self.width += size
            else:
                self.cregs[name] = size
        elif word == "opaque":
            decl = _OPAQUE_RE.fullmatch(rest)
            if decl is None:
                raise QasmError(f"malformed opaque declaration {rest.strip()!r}")
            name, arity = decl[1], decl[2].count(",") + 1
            if name in _NAME_TO_KIND:
                raise QasmError(f"opaque {name!r} redeclares a built-in gate")
            if self.opaque.setdefault(name, arity) != arity:
                raise QasmError(f"opaque {name!r} is already declared with "
                                f"{self.opaque[name]} operand(s)")
        elif word == "measure":
            self._measure(rest)
        else:
            qubits = []
            for a in rest.split(","):
                qubits.extend(self._expand(a, _arg(a)))
            self._add(GateKind.BARRIER, tuple(qubits))

    def _measure(self, rest: str) -> None:
        src, arrow, dst = rest.partition("->")
        if not arrow:
            raise QasmError("measure needs '->'")
        squbits = self._expand(src, _arg(src))
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
        if params is None:
            values = ()
        elif (values := self.values.get(params)) is None:
            values = self.values[params] = tuple(_param(p) for p in params.split(","))
        texts = rest.strip().split(",")
        operands = tuple(map(self.qubit.get, texts))
        if None in operands:  # some argument this parse has not yet resolved
            known, operands = operands, None
            args = [None if q is not None else _arg(t) for t, q in zip(texts, known)]
        if word in self.opaque:
            if operands is None:
                operands = self._indexed(word, texts, known, args)
            if len(operands) != self.opaque[word]:
                raise QasmError(f"{word} takes {self.opaque[word]} operand(s)")
            self._add(GateKind.OPAQUE, operands, values, label=word)
            return
        kind = _NAME_TO_KIND.get(word)
        if kind is None:
            raise QasmError(f"unknown gate {word!r}")
        if len(values) != kind.n_params:
            raise QasmError(f"{word} takes {kind.n_params} parameter(s), got {len(values)}")
        if operands is None and kind.n_qubits == 1:
            # bare register broadcasts over its qubits
            qubit_lists = [[q] if q is not None else self._expand(t, a)
                           for t, q, a in zip(texts, known, args)]
            if len(qubit_lists) != 1:
                raise QasmError(f"{word} takes 1 operand")
            for q in qubit_lists[0]:
                self._add(kind, (q,), values)
            return
        if operands is None:
            operands = self._indexed(word, texts, known, args)
        elif kind.n_qubits == 1 and len(operands) != 1:
            raise QasmError(f"{word} takes 1 operand")
        self._add(kind, operands, values)

    def _indexed(self, word: str, texts: list[str], known, args) -> tuple[int, ...]:
        """One qubit per argument of ``word``: the memoised one where
        ``known`` has it, else the one ``_expand`` resolves."""
        operands = []
        for text, q, a in zip(texts, known, args):
            if q is None:
                got = self._expand(text, a)
                if len(got) != 1:
                    raise QasmError(f"{word} operands must be indexed qubits")
                q = got[0]
            operands.append(q)
        return tuple(operands)

    def _expand(self, text: str, arg: tuple[str, int | None]) -> list[int]:
        """Resolve the argument ``text``, read as ``arg``, to qubit indices,
        broadcasting bare registers; an indexed qubit goes in the memo."""
        name, idx = arg
        reg = self.qregs.get(name)
        if reg is None:
            raise QasmError(f"quantum register {name!r} is not declared")
        first, size = reg
        if idx is None:
            return list(range(first, first + size))
        if idx >= size:
            raise QasmError(f"qubit {name}[{idx}] out of range")
        q = self.qubit[text] = first + idx
        return [q]


def parse_qasm(text: str, name: str = "circuit") -> Circuit:
    """Parse the supported OpenQASM 2.0 subset into a Circuit."""
    return _Parser(name).parse(text)


# --------------------------------------------------------------------------
# writing

def _gate_line(g: Gate, ops: list[str], heads: dict[tuple, str]) -> str:
    """One statement applying ``g`` to the operand strings ``ops``; a
    measure without a classical bit writes to ``c`` at its qubit's index.
    A parametrised gate's text before its operands is formatted once per
    distinct (name, params) and kept in ``heads``, except when a parameter
    is zero: 0.0 and -0.0 are one key but write as two texts."""
    if g.kind is _MEASURE:
        reg, bit = g.cbit or ("c", g.operands[0])
        return f"measure {ops[0]} -> {reg}[{bit}];"
    if not g.params:
        return f"{g.qasm_name} {','.join(ops)};"
    key = (g.qasm_name, g.params)
    head = heads.get(key)
    if head is None:
        # repr is the shortest string that re-parses to exactly the same float
        head = f"{g.qasm_name}({','.join(repr(float(p)) for p in g.params)}) "
        if 0 not in g.params:
            heads[key] = head
    return f"{head}{','.join(ops)};"


def _formals(n: int) -> str:
    """The parameter names of an opaque declaration of ``n`` operands:
    ``a`` to ``z`` up to 26, else ``a0`` to ``a{n-1}``."""
    if n <= 26:
        return ",".join(chr(ord("a") + i) for i in range(n))
    return ",".join(f"a{i}" for i in range(n))


def _programs(circuit: Circuit, block_of, exec_block, channels, blocks: int) -> list[str]:
    """One OpenQASM 2.0 program for each of ``blocks`` blocks, in block order.

    Qubit ``q`` lives on block ``block_of[q]``, gate ``seq`` runs on
    ``exec_block[seq]`` (a BARRIER's entry is not read), and a block
    declares ``ebit[n]`` for the n slots it opened, one per channel
    endpoint, numbered as its channels open; n = 0 declares none.
    ``channels`` are ``distribution.Channel``s.  Every program re-declares
    the circuit's registers at full size and names only its own qubits
    and slots.  One sweep over the gates appends each line to the body of
    the block it runs on; a BARRIER goes to every block that holds one of
    its qubits, narrowed to those.  A channel opens before its first use
    with a ``cat_entangler`` on the carried qubit's block and closes after
    its last use with a ``cat_disentangler`` on its remote block, each
    after a ``// channel i`` comment.  A remote operand reads the slot of
    the open channel of its (carried qubit, block) pair, from a table
    written at each entangler and cleared at its disentangler; a pair has
    at most one open channel, which ``plan_distribution`` checks (the runs
    of ``find_groups`` never open two, since a run ends at any other gate
    on its control).

    A program declares the cat primitives it calls, one opaque per label
    its gates call (``Circuit`` holds each label to one arity), the registers, its
    ``ebit`` register, then the cregs, or ``creg c[width]`` for a circuit
    that measures without any.  With a channel, a register named ``ebit``
    or an opaque gate named like a cat primitive would be declared twice,
    so it is a ValueError naming it.
    """
    barrier, measure, opaque = GateKind.BARRIER, GateKind.MEASURE, GateKind.OPAQUE
    names = circuit.qubits()
    entangle_at: dict[int, list[int]] = {}  # first-use gate -> channels
    release_at: dict[int, list[int]] = {}
    for i, c in enumerate(channels):
        entangle_at.setdefault(c.first_use, []).append(i)
        release_at.setdefault(c.last_use, []).append(i)

    bodies: list[list[str]] = [[] for _ in range(blocks)]
    arity: list[dict[str, int]] = [{} for _ in range(blocks)]  # opaque label -> operands, per block
    used = [0] * blocks  # ebit slots opened so far, per block
    live: dict[tuple[int, int], int] = {}  # (carries, remote) -> its open channel's slot
    heads: dict[tuple, str] = {}  # see _gate_line
    for seq, g in enumerate(circuit.gates):
        for i in entangle_at.get(seq, ()):
            c = channels[i]
            home = block_of[c.carries]
            bodies[home] += (f"// channel {i}",
                             f"cat_entangler {names[c.carries]},ebit[{used[home]}];")
            used[home] += 1
            live[c.carries, c.remote] = used[c.remote]
            used[c.remote] += 1
        if g.kind is barrier:  # each block synchronises its own wires
            local: dict[int, list[str]] = {}
            for q in g.operands:
                local.setdefault(block_of[q], []).append(names[q])
            for lb, ops in local.items():
                bodies[lb].append(_gate_line(g, ops, heads))
        else:
            b = exec_block[seq]
            ops = [names[q] if block_of[q] == b else f"ebit[{live[q, b]}]"
                   for q in g.operands]
            bodies[b].append(_gate_line(g, ops, heads))
            if g.kind is opaque:
                arity[b].setdefault(g.label, len(g.operands))
        for i in release_at.get(seq, ()):
            c = channels[i]
            bodies[c.remote] += (f"// channel {i}",
                                 f"cat_disentangler ebit[{live.pop((c.carries, c.remote))}];")

    clash = [f"register {n!r}" for n, _ in circuit.registers + circuit.cregs if n == "ebit"]
    clash += [f"opaque gate {lb!r}" for labels in arity for lb in labels
              if lb in ("cat_entangler", "cat_disentangler")]
    if channels and clash:
        raise ValueError(f"{clash[0]} is reserved for the programs' channels; rename it")
    bare = not circuit.cregs and any(g.kind is measure for g in circuit.gates)
    cregs = [f"creg {reg}[{n}];" for reg, n in ((("c", circuit.width),) if bare else circuit.cregs)]
    qregs = [f"qreg {reg}[{n}];" for reg, n in circuit.registers]
    homes = {block_of[c.carries] for c in channels}
    remotes = {c.remote for c in channels}
    return ["\n".join(["OPENQASM 2.0;", 'include "qelib1.inc";',
                       *(["opaque cat_entangler a,b;"] if b in homes else []),
                       *(["opaque cat_disentangler a;"] if b in remotes else []),
                       *(f"opaque {lb} {_formals(n)};" for lb, n in arity[b].items()),
                       *qregs, *([f"qreg ebit[{used[b]}];"] if used[b] else []),
                       *cregs, *body]) + "\n"
            for b, body in enumerate(bodies)]


def emit_qasm(circuit: Circuit) -> str:
    """Emit the circuit as OpenQASM 2.0, the writer's program for one QPU
    that runs every gate; parse(emit(c)) is gate-for-gate c."""
    return _programs(circuit, [0] * circuit.width, [0] * len(circuit.gates), (), 1)[0]
