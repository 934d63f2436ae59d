"""Control-wire run detection and depth segmentation."""

import pytest

from qpart import (GateKind, find_groups, make_circuit, parse_qasm,
                   segment_by_depth, segment_subcircuit)

from conftest import fixture_names, load_fixture


def _groups(text: str):
    c = parse_qasm("OPENQASM 2.0; qreg q[6]; " + text)
    return c, find_groups(c)


def members_by_control(groups):
    return {g.control: g.members for g in groups}


def test_qft4_groups(qft4):
    groups = find_groups(qft4)
    assert members_by_control(groups) == {
        1: (1,),
        2: (2, 5),
        3: (3, 6, 8),
    }
    assert [g.is_reuse for g in groups] == [False, True, True]
    assert [g.id for g in groups] == [0, 1, 2]


def test_group_fields(qft4):
    g = find_groups(qft4)[2]
    assert g.control == 3
    assert g.targets == frozenset({0, 1, 2})
    assert g.kinds == frozenset({GateKind.CP})


def test_spectator_wire_does_not_close():
    # h q[1] sits on a target wire; the q[0] run stays open across it
    _, groups = _groups("cx q[0],q[1]; h q[1]; cx q[0],q[2];")
    assert members_by_control(groups) == {0: (0, 2)}


def test_gate_on_control_wire_closes():
    _, groups = _groups("cx q[0],q[1]; h q[0]; cx q[0],q[2];")
    assert members_by_control(groups) == {0: (2,)} or len(groups) == 2
    assert all(not g.is_reuse for g in groups)


def test_target_use_closes():
    # q[0] appears as the target of the middle gate, ending its run
    _, groups = _groups("cx q[0],q[1]; cx q[2],q[0]; cx q[0],q[3];")
    assert all(not g.is_reuse for g in groups)
    assert len(groups) == 3


def test_ccx_never_groups():
    c, groups = _groups("cx q[0],q[1]; ccx q[0],q[2],q[3]; cx q[0],q[4];")
    assert all(not g.is_reuse for g in groups)
    seqs = {s for g in groups for s in g.members}
    assert seqs == {0, 2}          # the ccx contributes no group at all


def test_allow_mixed_kinds():
    text = "cx q[0],q[1]; cz q[0],q[2];"
    _, mixed = _groups(text)
    assert members_by_control(mixed) == {0: (0, 1)}


def test_seq_restriction(qft4):
    # judged within the subset, the q[3] run loses its later members
    sub = make_circuit("qft4.sub", qft4.registers, [qft4.gates[s] for s in (1, 2, 3)],
                       qft4.cregs)
    groups = find_groups(sub)
    assert all(not g.is_reuse for g in groups)


@pytest.mark.parametrize("name,expected", [
    ("phase_kernel_6.qasm", {3: (7, 11, 12, 13)}),
    ("toffoli_mix_5.qasm", {4: (8, 10, 11)}),
    ("ansatz_6.qasm", {0: (17, 18, 19), 5: (20, 21)}),
])
def test_fixture_reuse_groups(name, expected):
    c = load_fixture(name)
    reuse = {g.control: g.members for g in find_groups(c) if g.is_reuse}
    assert reuse == expected


def test_segment_ghz4(ghz4):
    segs = segment_by_depth(ghz4, 2)
    assert [(s.layer_range, s.gates) for s in segs] == [
        ((0, 2), (0, 1)),
        ((2, 4), (2, 3)),
    ]


def test_segment_window_validation(ghz4):
    with pytest.raises(ValueError, match="at least 1"):
        segment_by_depth(ghz4, 0)


def test_trailing_barrier_clamped():
    c = parse_qasm("OPENQASM 2.0; qreg q[2]; h q[0]; barrier q;")
    segs = segment_by_depth(c, 1)
    assert len(segs) == 1
    assert segs[0].gates == (0, 1)


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("window", [1, 2, 3])
def test_segments_partition_gates(name, window):
    c = load_fixture(name)
    segs = segment_by_depth(c, window)
    concat = [s for seg in segs for s in seg.gates]
    assert sorted(concat) == list(range(len(c.gates)))
    # per-wire order survives concatenation
    seen: dict = {}
    for s in concat:
        for q in c.gates[s].operands:
            assert seen.get(q, -1) < s
            seen[q] = s


def test_segment_subcircuit(qft4):
    segs = segment_by_depth(qft4, 3)
    sub = segment_subcircuit(qft4, segs[0])
    assert sub.registers == qft4.registers
    assert sub.name == "qft4.seg0"
    assert [g.kind for g in sub.gates] == [qft4.gates[s].kind for s in segs[0].gates]
    assert sum(len(s.gates) for s in segs) == len(qft4.gates)
