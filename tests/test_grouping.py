"""Control-wire run detection."""

import pytest
from hypothesis import example, given, settings

from qpart import Circuit, find_groups, parse_qasm

from conftest import fixture_names, load_fixture
from test_hypergraph import grouping_circuits


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


def test_group_fields(qft4):
    g = find_groups(qft4)[2]
    assert g.control == 3


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
    sub = Circuit("qft4.sub", qft4.registers, [qft4.gates[s] for s in (1, 2, 3)],
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


def _with_fixture_examples(test):
    for name in fixture_names():
        test = example(load_fixture(name))(test)
    return test


@settings(max_examples=100, deadline=None)
@given(grouping_circuits())
@_with_fixture_examples
def test_find_groups_runs_keep_their_control_live(c):
    # every CX/CZ/CP gate is in exactly one group, every member is driven by
    # the group's control, and no other gate acts on that control between
    # the first and last member: the emitter keeps one open channel per
    # (qubit, block) pair, and a remote member must not read a stale copy
    groups = find_groups(c)
    groupable = [seq for seq, g in enumerate(c.gates) if g.kind.groupable]
    assert sorted(seq for grp in groups for seq in grp.members) == groupable
    for grp in groups:
        assert all(c.gates[seq].operands[0] == grp.control for seq in grp.members)
        for seq in range(grp.members[0], grp.members[-1] + 1):
            assert seq in grp.members or grp.control not in c.gates[seq].operands
