"""Parser, metrics and emission round-trip."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from qpart import (Circuit, Gate, GateKind, QasmError, emit_qasm,
                   gate_layers, parse_qasm)

from conftest import fixture_names, load_fixture


def test_ghz4_metrics(ghz4):
    assert (ghz4.width, ghz4.size, ghz4.depth) == (4, 4, 4)


def test_qft4_metrics(qft4):
    assert (qft4.width, qft4.size, qft4.depth) == (4, 10, 7)
    kinds = [g.kind for g in qft4.gates]
    assert kinds.count(GateKind.H) == 4
    assert kinds.count(GateKind.CP) == 6


def test_qft_angles(qft4):
    # cp(pi / 2**(j - i)) with the control on the later qubit
    cps = [g for g in qft4.gates if g.kind is GateKind.CP]
    for g in cps:
        j, i = g.operands
        assert j > i
        assert g.params[0] == pytest.approx(math.pi / 2 ** (j - i))


def test_parse_minimal():
    c = parse_qasm("""OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0],q[1];
""")
    assert c.width == 2 and c.size == 2 and c.depth == 2
    assert [g.kind for g in c.gates] == [GateKind.H, GateKind.CX]
    assert c.gates[1].operands == (0, 1)


def test_comments_skipped():
    c = parse_qasm("""OPENQASM 2.0;
// leading comment
qreg q[1];
h q[0];  // trailing comment
""")
    assert c.size == 1


def test_single_qubit_broadcast():
    c = parse_qasm("OPENQASM 2.0; qreg q[3]; h q;")
    assert [g.operands[0] for g in c.gates] == [0, 1, 2]


def test_measure_register_broadcast():
    c = parse_qasm("OPENQASM 2.0; qreg q[2]; creg c[2]; measure q -> c;")
    assert [g.kind for g in c.gates] == [GateKind.MEASURE] * 2
    assert [g.cbit for g in c.gates] == [("c", 0), ("c", 1)]


def test_measure_single_bit():
    c = parse_qasm("OPENQASM 2.0; qreg q[2]; creg c[2]; measure q[1] -> c[0];")
    assert c.gates[0].operands == (1,)
    assert c.gates[0].cbit == ("c", 0)


def test_param_expressions():
    c = parse_qasm("""OPENQASM 2.0;
qreg q[2];
rz(pi/2) q[0];
cp(-pi/4) q[0],q[1];
rx(0.5) q[1];
ry(2*pi) q[0];
""")
    vals = [g.params[0] for g in c.gates]
    assert vals[0] == pytest.approx(math.pi / 2)
    assert vals[1] == pytest.approx(-math.pi / 4)
    assert vals[2] == 0.5
    assert vals[3] == pytest.approx(2 * math.pi)


def test_cu1_is_cp():
    c = parse_qasm("OPENQASM 2.0; qreg q[2]; cu1(pi/2) q[0],q[1];")
    assert c.gates[0].kind is GateKind.CP
    assert c.gates[0].params[0] == pytest.approx(math.pi / 2)


def test_opaque_roundtrip():
    text = """OPENQASM 2.0;
opaque mystery a,b;
qreg q[3];
mystery q[0],q[2];
"""
    c = parse_qasm(text)
    g = c.gates[0]
    assert g.kind is GateKind.OPAQUE and g.label == "mystery"
    assert g.operands == (0, 2)
    again = parse_qasm(emit_qasm(c))
    assert again.gates == c.gates


@pytest.mark.parametrize("text,fragment", [
    ("qreg q[1]; h q[0];", "OPENQASM"),
    ("OPENQASM 3.0; qreg q[1];", "version"),
    ("OPENQASM 2.0; qreg q[1]; qreg q[2];", "already declared"),
    ("OPENQASM 2.0; qreg q[1]; h q[3];", "out of range"),
    ("OPENQASM 2.0; qreg q[1]; h r[0];", "not declared"),
    ("OPENQASM 2.0; qreg q[1]; bogus q[0];", "unknown gate"),
    ("OPENQASM 2.0; qreg q[2]; cx q[0],q[0];", "distinct"),
    ("OPENQASM 2.0; qreg q[1]; reset q[0];", "not supported"),
    ("OPENQASM 2.0; qreg q[1]; rz(q) q[0];", "parameter"),
    ("OPENQASM 2.0; qreg q[2]; measure q[0] -> c[0];", "not declared"),
    ("OPENQASM 2.0;", "no quantum register"),
], ids=["header", "version", "dup-reg", "range", "undeclared", "unknown",
        "repeat-operand", "reset", "param", "no-creg", "empty"])
def test_parse_errors(text, fragment):
    with pytest.raises(QasmError, match=fragment):
        parse_qasm(text)


_DECLARED = "OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\n"


@pytest.mark.parametrize("text,message", [
    ("OPENQASM 2.0", "line 1: unexpected end of input"),
    (_DECLARED + "3 q[0];", "line 4: malformed statement '3 q[0]'"),
    (_DECLARED + "qreg(2) q[1];", "line 4: qreg takes no parameters"),
    (_DECLARED + "include qelib1.inc;", "line 4: include needs a quoted file name"),
    (_DECLARED + "qreg q;", "line 4: qreg needs a size"),
    (_DECLARED + "opaque 1x a;", "line 4: malformed opaque declaration '1x a'"),
    (_DECLARED + "measure q[0] c[0];", "line 4: measure needs '->'"),
    (_DECLARED + "measure q -> c;", "line 4: measure register sizes differ"),
    (_DECLARED + "measure q[0] -> c[1];", "line 4: bit c[1] out of range"),
    (_DECLARED + "measure q -> c[0];", "line 4: cannot measure a register into one bit"),
], ids=["no-semicolon", "malformed", "keyword-params", "include-unquoted", "qreg-no-size",
        "opaque-malformed", "measure-no-arrow", "measure-sizes", "measure-bit-range",
        "measure-register-to-bit"])
def test_each_statement_refusal_names_its_line(text, message):
    with pytest.raises(QasmError) as info:
        parse_qasm(text)
    assert str(info.value) == message


def test_gate_refuses_a_missing_parameter():
    # the parser checks parameter counts first, so only a built gate gets here
    with pytest.raises(ValueError, match=r"^rz takes 1 parameter\(s\), got 0$"):
        Gate(GateKind.RZ, (0,))


def test_parse_error_position():
    try:
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nbogus q[0];\n")
    except QasmError as exc:
        assert exc.line == 3
        assert "line 3" in str(exc)
    else:
        pytest.fail("expected a parse error")


@pytest.mark.parametrize("stmt,first", [
    ("bogus r[0];", "unknown gate 'bogus'"),
    ("rz q[5];", "rz takes 1 parameter(s), got 0"),
    ("h(pi) q[;", "malformed argument 'q['"),
    ("rz(pi/0) r[0];", "division by zero in parameter"),
    ("cx q[0],q[0],q[1];", "cx operands must be distinct: q[0], q[0], q[1]"),
    ("cx q,r[0];", "cx operands must be indexed qubits"),
    ("h q[0],q[5];", "qubit q[5] out of range"),
    ("h q[0],q[1];", "h takes 1 operand"),
    ("mystery q[1],q[1],q[0];", "mystery takes 2 operand(s)"),
    ("rz(1e400) q[5];", "qubit q[5] out of range"),
], ids=["unknown-undeclared", "params-range", "syntax-params", "param-undeclared",
        "repeat-arity", "bare-undeclared", "range-count", "count", "opaque-arity-repeat",
        "range-nonfinite"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_first_fault_of_a_statement_is_reported(stmt, first, warm):
    # a statement with two faults reports the same one whether or not its
    # qubits were named by earlier statements
    earlier = "cx q[0],q[1]; h q[0]; h q[1];" if warm else ""
    text = f"OPENQASM 2.0;\nopaque mystery a,b; qreg q[2];\n{earlier}\n{stmt}\n"
    with pytest.raises(QasmError) as info:
        parse_qasm(text)
    assert str(info.value) == f"line 4: {first}"


@pytest.mark.parametrize("stmt,first", [
    ("cx q[0],q[;", "malformed argument 'q['"),
    ("bogus q[0],q[;", "malformed argument 'q['"),
    ("cx q[0],r[0];", "quantum register 'r' is not declared"),
    ("cx q[0],q[5];", "qubit q[5] out of range"),
    ("cx q[0],q;", "cx operands must be indexed qubits"),
    ("mystery q[0],q;", "mystery operands must be indexed qubits"),
    ("h q[0],q;", "h takes 1 operand"),
], ids=["malformed", "malformed-unknown", "undeclared", "range", "bare", "opaque-bare",
        "broadcast-count"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_memoised_first_argument_keeps_the_fault_of_the_second(stmt, first, warm):
    # only the arguments not in the memo are resolved, in order, so a
    # statement whose first argument was named before fails as on a cold memo
    earlier = "h q[0];" if warm else ""
    text = f"OPENQASM 2.0;\nopaque mystery a,b; qreg q[2];\n{earlier}\n{stmt}\n"
    with pytest.raises(QasmError) as info:
        parse_qasm(text)
    assert str(info.value) == f"line 4: {first}"


def test_memoised_arguments_resolve_as_written():
    # a ghz chain's control was named by the statement before it
    c = parse_qasm("OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
                   "cx q[2], q[0];\n")
    assert [g.operands for g in c.gates] == [(0,), (0, 1), (1, 2), (2, 0)]


@pytest.mark.parametrize("stmt", ["barrier q[0],q[0];", "mystery q[1],q[1];"],
                         ids=["barrier", "opaque"])
def test_gate_validation_error_line(stmt):
    text = f"OPENQASM 2.0;\nopaque mystery a,b; qreg q[2];\n{stmt}\n"
    with pytest.raises(QasmError, match="distinct") as info:
        parse_qasm(text)
    assert info.value.line == 3


def test_repeated_operand_named_as_written():
    text = "OPENQASM 2.0;\nqreg a[1]; qreg q[2];\ncx q[0],q[0];\n"
    with pytest.raises(QasmError) as info:
        parse_qasm(text)
    assert str(info.value) == "line 3: cx operands must be distinct: q[0], q[0]"


@pytest.mark.parametrize("text,line", [
    ("OPENQASM 2.0;\nqreg q[2];\ncx q[0],\n   q[1];\nbogus q[0];\n", 5),
    ("OPENQASM 2.0;\nqreg q[2];\ncx q[0],\n   q[5];\n", 3),
    ("OPENQASM 2.0;\nqreg q[2]; h q[0]; bogus q[1]; h q[1];\n", 2),
    ("OPENQASM 2.0;\nqreg q[2]; // note;\n\n  h q[0]; bogus q[1];", 4),
], ids=["after-multiline", "multiline", "shared-line", "after-comment"])
def test_error_names_statement_start_line(text, line):
    with pytest.raises(QasmError) as info:
        parse_qasm(text)
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: ")


@pytest.mark.parametrize("decl", ["qreg q[0];", "creg c[0];"], ids=["qreg", "creg"])
def test_zero_size_register_names_its_line(decl):
    text = f"OPENQASM 2.0;\nqreg r[1];\n{decl}\nh r[0];\n"
    with pytest.raises(QasmError, match="^line 3: register size must be positive$") as info:
        parse_qasm(text)
    assert info.value.line == 3


def test_comment_marker_inside_string():
    c = parse_qasm('OPENQASM 2.0;\ninclude "a//b.inc";\nqreg q[1];\nh q[0];\n')
    assert c.size == 1


def test_missing_final_semicolon():
    with pytest.raises(QasmError, match="end of input"):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0]\n")


@pytest.mark.parametrize("expr", ["-pi/4", "--pi/2", "+pi", "2*pi/3", "1e-3", ".5", "3."])
def test_param_accepted(expr):
    c = parse_qasm(f"OPENQASM 2.0; qreg q[1]; rz({expr}) q[0];")
    assert c.gates[0].params[0] == eval(expr, {"pi": math.pi})


@pytest.mark.parametrize("expr", ["pi*-1", "(pi)", "pi pi", "2*", "2pi", "", "pi/0"])
def test_param_rejected(expr):
    with pytest.raises(QasmError):
        parse_qasm(f"OPENQASM 2.0; qreg q[1]; rz({expr}) q[0];")


def test_barrier_synchronises_without_depth():
    c = parse_qasm("OPENQASM 2.0; qreg q[2]; h q[0]; barrier q; h q[1];")
    assert gate_layers(c) == [0, 1, 1]
    assert c.depth == 2        # the barrier itself occupies no layer
    assert c.size == 2


def test_circuit_validation():
    with pytest.raises(ValueError, match="duplicate register"):
        Circuit("bad", [("q", 2), ("q", 3)], [])
    with pytest.raises(ValueError, match="positive"):
        Circuit("bad", [("q", 0)], [])
    with pytest.raises(QasmError, match="not declared"):
        Circuit("bad", [("q", 1)], [Gate(GateKind.H, (1,))])
    with pytest.raises(QasmError, match="not declared"):
        Circuit("bad", [("q", 1)], [Gate(GateKind.H, (-1,))])


def test_circuit_derives_its_metrics():
    gates = [Gate(GateKind.H, (0,)), Gate(GateKind.BARRIER, (0, 2)), Gate(GateKind.CX, (0, 2))]
    c = Circuit("m", [("a", 1), ("b", 2)], gates)
    assert (c.registers, c.gates, c.cregs) == ((("a", 1), ("b", 2)), tuple(gates), ())
    assert (c.width, c.size, c.depth) == (3, 2, 2)
    with pytest.raises(TypeError):
        Circuit("m", [("q", 1)], [], width=5)
    shorter = dataclasses.replace(c, gates=gates[:1])
    assert (shorter.width, shorter.size, shorter.depth) == (3, 1, 1)
    wider = dataclasses.replace(c, registers=[("a", 4)])
    assert (wider.width, wider.size, wider.depth) == (4, 2, 2)
    with pytest.raises(QasmError, match="not declared"):
        dataclasses.replace(c, registers=[("a", 2)])


def test_emit_parse_exact(ghz4, qft4):
    for c in (ghz4, qft4):
        again = parse_qasm(emit_qasm(c), name=c.name)
        assert again.gates == c.gates
        assert again.registers == c.registers
        # a second emission is byte-identical
        assert emit_qasm(again) == emit_qasm(c)


def test_emit_synthesises_creg():
    c = Circuit("m", [("q", 2)], [Gate(GateKind.MEASURE, (1,))])
    text = emit_qasm(c)
    assert "creg c[2];" in text
    assert "measure q[1] -> c[1];" in text
    parse_qasm(text)


# -- every Circuit writes as QASM that parses back --------------------------

@pytest.mark.parametrize("name", ["q-1", "1q", "", "q[0]"])
def test_register_name_must_be_an_identifier(name):
    # `qreg q-1[2];` would not parse; a creg is held to the same rule
    with pytest.raises(ValueError, match="not an identifier"):
        Circuit("bad", [(name, 2)], [])
    with pytest.raises(ValueError, match="not an identifier"):
        Circuit("bad", [("q", 2)], [], [(name, 2)])


@pytest.mark.parametrize("label", ["measure", "barrier", "opaque", "include", "qreg",
                                   "creg", "gate", "if", "reset", "my-gate", "2x"])
def test_opaque_label_must_be_a_gate_name_the_parser_reads(label):
    # `opaque measure a;` does not re-parse, and a `barrier` label would come
    # back as a BARRIER
    with pytest.raises(ValueError, match="identifier and no statement word"):
        Gate(GateKind.OPAQUE, (0,), label=label)


def test_opaque_label_may_be_any_other_identifier():
    c = Circuit("ok", [("q", 2)], [Gate(GateKind.OPAQUE, (1, 0), label="OPENQASM"),
                                   Gate(GateKind.OPAQUE, (0,), label="_tag9")])
    assert parse_qasm(emit_qasm(c)).gates == c.gates


# every gate name the parser dispatches on, the cu1 alias included
_BUILTIN_NAMES = sorted({k.qasm for k in GateKind} | {"cu1"})


@pytest.mark.parametrize("label", _BUILTIN_NAMES)
def test_opaque_label_may_not_be_a_built_in_gate(label):
    # `opaque h a;` next to a real `h` would read back as two opaque gates
    with pytest.raises(ValueError, match="or built-in gate name"):
        Gate(GateKind.OPAQUE, (0,), label=label)


def test_parser_refuses_an_opaque_that_redeclares_a_built_in():
    text = "OPENQASM 2.0;\nqreg q[2];\nopaque h a;\nh q[0];\n"
    with pytest.raises(QasmError, match="^line 3: opaque 'h' redeclares a built-in gate$"):
        parse_qasm(text)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_gate_refuses_a_parameter_that_is_not_finite(value):
    # the writer would write `rz(inf)`, which the parser refuses
    with pytest.raises(ValueError, match="is not finite"):
        Gate(GateKind.RZ, (0,), (value,))
    with pytest.raises(ValueError, match="is not finite"):
        Gate(GateKind.OPAQUE, (0,), (0.5, value), label="tag")


@pytest.mark.parametrize("expr", ["1e400", "-1e400", "1e200*1e200"])
def test_an_overflowing_parameter_is_refused_at_its_line(expr):
    text = f"OPENQASM 2.0;\nqreg q[1];\nrz({expr}) q[0];\nh q[0];\n"
    with pytest.raises(QasmError, match="is not finite") as info:
        parse_qasm(text)
    assert info.value.line == 3


def test_circuit_refuses_one_opaque_label_at_two_arities():
    # the writer declares one arity per label, so the other call would not re-parse
    gates = [Gate(GateKind.OPAQUE, (0,), label="p"), Gate(GateKind.OPAQUE, (0, 1), label="p")]
    with pytest.raises(ValueError, match="'p' is called with 1 and 2 operands"):
        Circuit("bad", [("q", 2)], gates)
    text = "OPENQASM 2.0;\nqreg q[2];\nopaque p a;\nopaque p a;\nopaque p a,b;\n"
    with pytest.raises(QasmError, match="^line 5: opaque 'p' is already declared with 1"):
        parse_qasm(text)


@pytest.mark.parametrize("n", [26, 27, 30])
def test_wide_opaque_declares_identifier_parameters(n):
    c = Circuit("wide", [("q", 30)], [Gate(GateKind.OPAQUE, tuple(range(n)), label="wide")])
    text = emit_qasm(c)
    assert parse_qasm(text).gates == c.gates
    # up to 26 operands the parameters stay a to z, so no pinned program moves
    decl = "a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p,q,r,s,t,u,v,w,x,y,z" if n == 26 else \
        ",".join(f"a{i}" for i in range(n))
    assert f"opaque wide {decl};" in text.splitlines()


@pytest.mark.parametrize("cbit", [("z", 0), ("m", 2), ("m", -1)])
def test_measure_bit_must_be_declared(cbit):
    # `-> z[9];` names a register the program does not declare
    with pytest.raises(QasmError, match=r"bit .* is not declared"):
        Circuit("bad", [("q", 2)], [Gate(GateKind.MEASURE, (0,), cbit=cbit)], [("m", 2)])


def test_registers_over_the_width_limit_are_refused():
    # the register that takes the circuit past 2**24 qubits is named before
    # any list of the width is built
    with pytest.raises(ValueError, match="^register 'b' takes the circuit to 16777217 "
                                         "qubits, over the 16777216 it may hold$"):
        Circuit("big", [("a", 1 << 23), ("b", (1 << 23) + 1)], [])


def test_bare_measure_needs_a_circuit_without_cregs():
    # with `creg m[2]`, a bare measure of qubit 5 has no bit to write to
    with pytest.raises(ValueError, match="no creg and no register c"):
        Circuit("bad", [("q", 6)], [Gate(GateKind.MEASURE, (5,))], [("m", 2)])


def test_bare_measure_refuses_a_quantum_register_named_c():
    # the writer would declare `creg c[2];` next to `qreg c[2];`
    with pytest.raises(ValueError, match="no creg and no register c"):
        Circuit("bad", [("c", 2)], [Gate(GateKind.MEASURE, (0,))])
    # without a bare measure, a register c is an ordinary name
    c = Circuit("ok", [("c", 2)], [Gate(GateKind.H, (0,))])
    assert parse_qasm(emit_qasm(c)).gates == c.gates


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_roundtrip(name):
    c = load_fixture(name)
    again = parse_qasm(emit_qasm(c), name=c.name)
    assert again.gates == c.gates
    assert again.registers == c.registers
    # emit . parse is a fixed point
    assert emit_qasm(again) == emit_qasm(c)


_KINDS = st.sampled_from([GateKind.H, GateKind.T, GateKind.CX, GateKind.CZ,
                          GateKind.CP, GateKind.CCX, GateKind.RZ])


def _draw_gates(draw, width: int) -> list[Gate]:
    gates = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(_KINDS)
        ops = draw(st.permutations(range(width)).map(lambda p: tuple(p[:kind.n_qubits])))
        params = tuple(draw(st.floats(-6.3, 6.3, allow_nan=False))
                       for _ in range(kind.n_params))
        gates.append(Gate(kind, ops, params))
    return gates


@st.composite
def random_circuits(draw):
    n = draw(st.integers(3, 6))
    return Circuit("rand", [("q", n)], _draw_gates(draw, n))


@st.composite
def multi_register_circuits(draw):
    sizes = draw(st.tuples(st.integers(1, 3), st.integers(2, 3), st.integers(0, 2)))
    regs = [(name, n) for name, n in zip("abc", sizes) if n]
    return Circuit("regs", regs, _draw_gates(draw, sum(sizes)))


@settings(max_examples=60, deadline=None)
@given(multi_register_circuits())
def test_multi_register_roundtrip(c: Circuit):
    text = emit_qasm(c)
    assert parse_qasm(text, name="regs").gates == c.gates
    # each operand is written as its entry in the name table
    names = c.qubits()
    for g, stmt in zip(c.gates, text.splitlines()[-len(c.gates):]):
        written = stmt.split(" ", 1)[1].rstrip(";").split(",")
        assert written == [names[q] for q in g.operands]


_LABELS = st.sampled_from(["tag", "probe", "q", "OPENQASM"] + _BUILTIN_NAMES)
_ANY_FLOAT = st.floats() | st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def accepted_circuits(draw):
    """Circuits that construction accepts, drawn from gates it may refuse:
    opaque labels that include built-in names, opaque gates of 1-30
    operands, and parameters that need not be finite.  A refused gate is
    dropped, after checking that it is refused for one of those faults."""
    n = draw(st.integers(1, 30))
    kinds = [k for k in (GateKind.H, GateKind.T, GateKind.RZ, GateKind.CX, GateKind.CP,
                         GateKind.CCX, GateKind.OPAQUE) if (k.n_qubits or 1) <= n]
    arity = {}  # opaque label -> the operand count of its first call
    gates = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(kinds))
        opaque = kind is GateKind.OPAQUE
        ops = tuple(draw(st.permutations(range(n)))[:draw(st.integers(1, n)) if opaque
                                                   else kind.n_qubits])
        params = tuple(draw(_ANY_FLOAT)
                       for _ in range(draw(st.integers(0, 2)) if opaque else kind.n_params))
        label = draw(_LABELS) if opaque else None
        refused = label in _BUILTIN_NAMES or not all(map(math.isfinite, params))
        try:
            gate = Gate(kind, ops, params, label=label)
        except ValueError:
            assert refused
            continue
        assert not refused
        if opaque and arity.setdefault(label, len(ops)) != len(ops):
            continue  # Circuit refuses a label at two arities
        gates.append(gate)
    return Circuit("rand", [("q", n)], gates)


@settings(max_examples=100, deadline=None)
@given(accepted_circuits())
def test_roundtrip_property(c: Circuit):
    again = parse_qasm(emit_qasm(c), name="rand")
    assert again.gates == c.gates


@settings(max_examples=60, deadline=None)
@given(random_circuits(), st.data())
def test_relaid_statements_parse_alike(c: Circuit, data):
    # the same statements, sharing lines or spanning them, with comment
    # lines between them and blanks around the punctuation
    pad = st.sampled_from(["", " ", "\n  "])
    parts = []
    for stmt in emit_qasm(c).splitlines():
        for sym in (",", "[", "]", "(", ")", "->"):
            stmt = stmt.replace(sym, data.draw(pad) + sym + data.draw(pad))
        parts += [stmt, data.draw(st.sampled_from([" ", "", "\n", "\n// note\n"]))]
    again = parse_qasm("".join(parts), name="rand")
    assert again.gates == c.gates
