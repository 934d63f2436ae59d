"""Channel planning, per-block accounting and subcircuit emission."""

import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from qpart import (Circuit, Gate, GateKind, Hyperedge, Hypergraph,
                   InfeasibleError, Mode, PartitionConfig, Vertex, build_hypergraph,
                   cut_cost, emit_qasm, emit_subcircuits, find_groups, generate, parse_qasm,
                   partition, plan_distribution)
from qpart.bench import CircuitJob, _draw, _rows
from qpart.distribution import _edge_of_gate, _plan_ledger
from qpart.fm import random_deals

from conftest import fixture_names, load_fixture


def ghz4_plan(ghz4):
    h = build_hypergraph(ghz4)
    return h, plan_distribution(ghz4, h, [0, 0, 1, 1])


def test_ghz4_plan(ghz4):
    h, plan = ghz4_plan(ghz4)
    assert [b.o for b in plan.per_block] == [2, 2]
    assert [b.e for b in plan.per_block] == [1, 1]
    assert [b.data for b in plan.per_block] == [2, 2]
    assert plan.ebits == 2
    assert plan.exec_block == (0, 0, 1, 1)
    (ch,) = plan.channels
    assert (ch.carries, plan.assignment[ch.carries], ch.remote) == (1, 0, 1)
    assert (ch.first_use, ch.last_use) == (2, 2)
    assert ch.carries == h.edges[ch.edge].pins[0]


def test_qft4_grouped_plan(qft4):
    h = build_hypergraph(qft4, grouped=True)
    plan = plan_distribution(qft4, h, [0, 0, 1, 1])
    assert [b.o for b in plan.per_block] == [7, 3]
    assert [b.e for b in plan.per_block] == [2, 2]
    assert plan.ebits == 4 and plan.cut.cut_edges == 2
    # both channels carry their edge's control, its first pin, out of block 1
    # into block 0
    assert [(c.carries, plan.assignment[c.carries], c.remote) for c in plan.channels] == [(2, 1, 0), (3, 1, 0)]
    assert all(c.carries == h.edges[c.edge].pins[0] for c in plan.channels)
    assert [(c.first_use, c.last_use) for c in plan.channels] == [(2, 5), (3, 6)]


def test_diagonal_exec_majority_tie_last():
    # q0 and q2 on block 0, q1 on block 1, q3 on block 2
    c = parse_qasm("OPENQASM 2.0; qreg q[4];"
                   "cx q[0],q[1]; cx q[1],q[0];"          # the target's block
                   "cz q[0],q[1]; cz q[1],q[0];"          # tie: the last operand's
                   "ccz q[0],q[2],q[1];"                  # first two agree: theirs
                   "ccz q[1],q[2],q[0];"                  # majority with the last
                   "ccz q[0],q[1],q[3];")                 # three ways: the last's
    plan = plan_distribution(c, build_hypergraph(c), [0, 1, 0, 2])
    assert plan.exec_block == (1, 0, 1, 0, 0, 0, 2)


def test_barrier_exec_is_unplaced(ghz4):
    c = parse_qasm("OPENQASM 2.0; qreg q[4]; cx q[0],q[1]; barrier q; cx q[2],q[3];")
    h = build_hypergraph(c)
    plan = plan_distribution(c, h, [0, 0, 1, 1])
    assert plan.exec_block == (0, -1, 1)
    assert plan.ebits == 0


@pytest.mark.parametrize("built,text,message", [
    (None, "OPENQASM 2.0; opaque probe a,b; qreg q[2]; probe q[0],q[1];",
     "gate 0 (probe) has operands on blocks [0, 1] and cannot be split"),
    # the hypergraph's edge belongs to gate 0 of another circuit
    ("OPENQASM 2.0; qreg q[2]; cx q[0],q[1]; h q[0];",
     "OPENQASM 2.0; qreg q[2]; h q[0]; cx q[0],q[1];",
     "gate 1 (cx) is split but has no hyperedge"),
], ids=["opaque", "no-hyperedge"])
def test_split_refusal_same_for_plan_and_batch(built, text, message):
    c = parse_qasm(text)
    h = build_hypergraph(parse_qasm(built) if built else c)
    match = f"^{re.escape(message)}$"
    with pytest.raises(InfeasibleError, match=match):
        plan_distribution(c, h, [0, 1])
    # every deal of two qubits over two blocks splits the gate
    config = PartitionConfig(blocks=2, restarts=1, mode=Mode.RANDOM)
    with pytest.raises(InfeasibleError, match=match):
        _rows(CircuitJob(label=c.name), c, "Random", [1, 1], range(3), _plan_ledger(c, h),
              random_deals(h, config, _draw(2, range(3))), 0.0)


def test_plan_refuses_block_outside_env(ghz4):
    h = build_hypergraph(ghz4)
    with pytest.raises(ValueError, match=r"^vertex 2 assigned to invalid block 2$"):
        plan_distribution(ghz4, h, [0, 0, 2, 2], blocks=2)


def test_float_block_is_refused_by_name(ghz4):
    # a float is not priced as a block of its own, and 1.0 is not block 1;
    # numpy integers are blocks
    h = build_hypergraph(ghz4)
    with pytest.raises(ValueError, match=r"^vertex 1 assigned to non-integer block 1\.5$"):
        cut_cost(h, [0, 1.5, 1, 1], 2)
    with pytest.raises(ValueError, match=r"^vertex 1 assigned to non-integer block 1\.0$"):
        plan_distribution(ghz4, h, [0, 1.0, 1, 1], blocks=2)
    blocks = list(np.array([0, 0, 1, 1]))
    assert cut_cost(h, blocks, 2).lambda_minus_one == 1
    assert plan_distribution(ghz4, h, blocks, blocks=2).ebits == 2


def test_plan_refuses_short_assignment(ghz4):
    h = build_hypergraph(ghz4)
    with pytest.raises(ValueError, match=r"^assignment covers 3 of 4 vertices$"):
        plan_distribution(ghz4, h, [0, 0, 1])


def test_opaque_split_refused():
    c = parse_qasm("OPENQASM 2.0; opaque probe a,b; qreg q[2]; probe q[0],q[1];")
    h = build_hypergraph(c)
    with pytest.raises(InfeasibleError, match="cannot be split"):
        plan_distribution(c, h, [0, 1])


def test_operation_counts_sum_to_size(qft8):
    h = build_hypergraph(qft8, grouped=True)
    a = [0, 0, 0, 0, 1, 1, 1, 1]
    plan = plan_distribution(qft8, h, a)
    assert sum(b.o for b in plan.per_block) == qft8.size


def test_e_matches_block_endpoints(qft4):
    h = build_hypergraph(qft4, grouped=True)
    a = [0, 1, 0, 1]
    plan = plan_distribution(qft4, h, a)
    assert [b.e for b in plan.per_block] == list(cut_cost(h, a, 2).endpoints)
    assert sum(b.e for b in plan.per_block) == 2 * plan.cut.lambda_minus_one


def assert_ledger_reads_plan(c, h, plan):
    """``_plan_ledger`` on the plan's one assignment gives its per-block o and e."""
    o, e = _plan_ledger(c, h)(np.array([plan.assignment]), len(plan.per_block))
    assert o.dtype == e.dtype == np.int64
    assert o.tolist() == [[b.o for b in plan.per_block]]
    assert e.tolist() == [[b.e for b in plan.per_block]]


def test_group_channel_shared_once(qft4):
    # one channel serves every member of a reuse group on the remote side
    h = build_hypergraph(qft4, grouped=True)
    plan = plan_distribution(qft4, h, [0, 0, 1, 1])
    assert len(plan.channels) == 2
    ungrouped = build_hypergraph(qft4)
    flat = plan_distribution(qft4, ungrouped, [0, 0, 1, 1])
    assert len(flat.channels) == 4
    assert plan.ebits < flat.ebits
    # the ledger counts each group channel once, over its several uses
    assert any(ch.first_use < ch.last_use for ch in plan.channels)
    assert_ledger_reads_plan(qft4, h, plan)
    assert_ledger_reads_plan(qft4, ungrouped, flat)


def test_ccx_fallback_channel():
    c = parse_qasm("OPENQASM 2.0; qreg q[3]; ccx q[0],q[1],q[2];")
    h = build_hypergraph(c)
    plan = plan_distribution(c, h, [0, 0, 1])
    assert [(ch.carries, plan.assignment[ch.carries], ch.remote,
             ch.carries == h.edges[ch.edge].pins[0])
            for ch in plan.channels] == [(0, 0, 1, True), (1, 0, 1, False)]
    # the secondary operand needs its own channel, so realized ebits
    # exceed the connectivity metric here
    assert plan.ebits == 4
    assert 2 * plan.cut.lambda_minus_one == 2
    # the ledger counts the fallback channel as the plan does
    assert_ledger_reads_plan(c, h, plan)


def test_emit_ghz4_frozen(ghz4):
    _, plan = ghz4_plan(ghz4)
    texts = emit_subcircuits(ghz4, plan)
    assert texts[0] == (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "opaque cat_entangler a,b;\n"
        "qreg q[4];\n"
        "qreg ebit[1];\n"
        "h q[0];\n"
        "cx q[0],q[1];\n"
        "// channel 0\n"
        "cat_entangler q[1],ebit[0];\n"
    )
    assert texts[1] == (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "opaque cat_disentangler a;\n"
        "qreg q[4];\n"
        "qreg ebit[1];\n"
        "cx ebit[0],q[2];\n"
        "// channel 0\n"
        "cat_disentangler ebit[0];\n"
        "cx q[2],q[3];\n"
    )


def test_emit_parses_back(qft4):
    h = build_hypergraph(qft4, grouped=True)
    plan = plan_distribution(qft4, h, [0, 0, 1, 1])
    for b, text in enumerate(emit_subcircuits(qft4, plan)):
        sub = parse_qasm(text, name=f"block{b}")
        local = {q for q, blk in zip(qft4.qubits(), plan.assignment) if blk == b}
        names = sub.qubits()
        for g in sub.gates:
            if g.kind is GateKind.OPAQUE:
                continue
            for q in g.operands:
                assert names[q].startswith("ebit[") or names[q] in local


def test_emit_measure_and_barrier():
    c = parse_qasm("OPENQASM 2.0; qreg q[4]; creg m[4]; "
                   "cx q[0],q[1]; barrier q; cx q[2],q[3]; measure q[1] -> m[1];")
    h = build_hypergraph(c)
    plan = plan_distribution(c, h, [0, 0, 1, 1])
    texts = emit_subcircuits(c, plan)
    assert "measure q[1] -> m[1];" in texts[0]
    assert "barrier q[0],q[1];" in texts[0]      # barriers narrow to local wires
    assert "barrier q[2],q[3];" in texts[1]
    assert "measure" not in texts[1]


def test_plan_json(qft4):
    h = build_hypergraph(qft4, grouped=True)
    plan = plan_distribution(qft4, h, [0, 0, 1, 1])
    assert plan.ebits == 4 and plan.cut.lambda_minus_one == 2
    assert [b.o for b in plan.per_block] == [7, 3]
    assert (plan.channels[0].first_use, plan.channels[0].last_use) == (2, 5)


def test_groups_in_any_order_keep_their_edges():
    # two reuse groups, on q[0] and on q[3], with their edges listed in
    # reverse: each edge's first pin is its control and its gates are the
    # group's members, every member maps to its own group's edge, and each
    # channel carries that control
    c = parse_qasm("OPENQASM 2.0;\nqreg q[4];\ncx q[0],q[1];\ncx q[0],q[2];\n"
                   "h q[0];\ncx q[3],q[1];\ncx q[3],q[2];\n")
    h = build_hypergraph(c, grouped=True)
    assert [(e.pins, e.gates) for e in h.edges] == [((0, 1, 2), (0, 1)), ((3, 1, 2), (3, 4))]
    h = Hypergraph(h.vertices, h.edges[::-1])
    edge_of = _edge_of_gate(h)
    for grp in find_groups(c):
        for seq in grp.members:
            assert h.edges[edge_of[seq]].gates == grp.members
            assert h.edges[edge_of[seq]].pins[0] == grp.control
    plan = plan_distribution(c, h, [0, 1, 1, 1])
    assert [(ch.carries, plan.assignment[ch.carries], ch.remote)
            for ch in plan.channels] == [(0, 0, 1)]
    assert all(h.edges[ch.edge].pins[0] == ch.carries for ch in plan.channels)


def test_plan_refuses_overlapping_channels():
    # find_groups never runs (1, 3) on q[0] across gate 2, but a hand-built
    # hypergraph may hold such edges; at [0, 1, 1, 1] the run's channel of
    # q[0] to block 1 is open at gate 2, where gate 2's own edge opens
    # another, and the emitter serves one open channel per (qubit, block)
    # pair
    c = parse_qasm("OPENQASM 2.0; qreg q[4]; h q[0]; "
                   "cx q[0],q[1]; cx q[0],q[2]; cx q[0],q[3];")
    h = Hypergraph([Vertex() for _ in range(4)],
                   [Hyperedge(pins=(0, 1, 3), gates=(1, 3)),
                    Hyperedge(pins=(0, 2), gates=(2,))])
    with pytest.raises(ValueError, match="channel 1 opens at gate 2 while another "
                                         "channel of qubit 0 to block 1 is open"):
        plan_distribution(c, h, [0, 1, 1, 1])
    # apart, the same channels pass: the run (1, 2) and gate 3's edge
    h = Hypergraph(h.vertices, [Hyperedge(pins=(0, 1, 2), gates=(1, 2)),
                                Hyperedge(pins=(0, 3), gates=(3,))])
    plan = plan_distribution(c, h, [0, 1, 1, 1])
    assert [(ch.first_use, ch.last_use) for ch in plan.channels] == [(1, 2), (3, 3)]
    assert plan.ebits == 4


def test_plan_and_ledger_refuse_a_gate_on_two_edges():
    # gate 0 on edges (0, 1) and (0, 1, 2): a plan that read either edge
    # alone would price 2 ebits at [0, 1, 1] against a cut of 4
    c = parse_qasm("OPENQASM 2.0; qreg q[3]; cx q[0],q[1]; cx q[1],q[2];")
    h = Hypergraph([Vertex() for _ in range(3)],
                   [Hyperedge(pins=(0, 1), gates=(0,)),
                    Hyperedge(pins=(0, 1, 2), gates=(0,)),
                    Hyperedge(pins=(1, 2), gates=(1,))])
    message = "gate 0 is listed on edges 0 and 1"
    with pytest.raises(ValueError, match=message):
        plan_distribution(c, h, [0, 1, 1])
    with pytest.raises(ValueError, match=message):
        _plan_ledger(c, h)


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_plans_obey_accounting(name):
    c = load_fixture(name)
    h = build_hypergraph(c, grouped=True)
    n = c.width
    a = [0 if i < (n + 1) // 2 else 1 for i in range(n)]
    plan = plan_distribution(c, h, a)
    assert sum(b.o for b in plan.per_block) == c.size
    assert sum(b.e for b in plan.per_block) == 2 * plan.cut.lambda_minus_one
    assert [b.e for b in plan.per_block] == list(cut_cost(h, a, 2).endpoints)
    assert_ledger_reads_plan(c, h, plan)
    # a block's ebit register has one slot per endpoint, and none without any
    for b, text in zip(plan.per_block, emit_subcircuits(c, plan)):
        widths = re.findall(r"^qreg ebit\[(\d+)\];$", text, re.M)
        assert widths == ([str(b.e)] if b.e else [])


def _plans_or_refusal(c, h, rows, k):
    """The plan's per-block o and e for each row, in order, up to the first
    row it refuses; then that refusal's text."""
    counts = []
    for row in rows:
        try:
            plan = plan_distribution(c, h, row, blocks=k)
        except InfeasibleError as ex:
            return counts, str(ex)
        counts.append(([b.o for b in plan.per_block], [b.e for b in plan.per_block]))
    return counts, None


def _ledger_or_refusal(c, h, assign, k):
    try:
        o, e = _plan_ledger(c, h)(assign, k)
    except InfeasibleError as ex:
        return None, str(ex)
    return list(zip(o.tolist(), e.tolist())), None


# three-qubit gates of both kinds, so every placement rule and the fallback
# channels are read
_TOFFOLI_MIX = parse_qasm(
    "OPENQASM 2.0; qreg q[6]; creg c[6]; h q[0]; ccz q[0],q[1],q[2]; ccx q[3],q[4],q[5];"
    "cz q[1],q[4]; barrier q; cp(0.3) q[2],q[5]; ccz q[5],q[0],q[3]; ccx q[1],q[2],q[0];"
    "cx q[4],q[3]; ccz q[2],q[4],q[1]; cx q[1],q[3]; measure q -> c;", name="toffoli_mix")


@pytest.mark.parametrize("c", [*map(load_fixture, fixture_names()), generate("qft", 9),
                               generate("random", 12, 2), generate("ghz", 7), _TOFFOLI_MIX],
                         ids=lambda c: c.name)
def test_ledger_places_each_deal_as_the_plan_does(c):
    # the batch placement over a matrix of seeded deals and the plan's one
    # row placement give the same o and e, row for row, plain and grouped,
    # over 130 seeds (two matrices) at k = 2-4
    for h in (build_hypergraph(c), build_hypergraph(c, grouped=True)):
        for k in (2, 3, 4):
            for assign, *_ in random_deals(h, PartitionConfig(blocks=k),
                                           _draw(c.width, range(130))):
                want, refused = _plans_or_refusal(c, h, assign.tolist(), k)
                assert refused is None
                assert _ledger_or_refusal(c, h, assign, k) == (want, None), (h, k)


def test_ledger_refuses_the_first_row_the_plan_refuses():
    # two rigid gates; a row may split either, both or neither.  For every
    # window of the seeded deals, the ledger raises the text of the first
    # row the plan refuses, gate and blocks included, and counts as the plan
    # when the window has none
    c = parse_qasm("OPENQASM 2.0; opaque probe a,b; qreg q[6]; cx q[0],q[1];"
                   "probe q[2],q[3]; cz q[1],q[4]; probe q[5],q[0]; cx q[3],q[4];")
    h = build_hypergraph(c)
    (assign, *_), = random_deals(h, PartitionConfig(blocks=3, capacities=(3, 3, 3)),
                                 _draw(c.width, range(60)))
    rows = assign.tolist()
    texts = set()
    for start in range(len(rows)):
        for stop in (start + 1, start + 7, len(rows)):
            want = _plans_or_refusal(c, h, rows[start:stop], 3)
            got = _ledger_or_refusal(c, h, assign[start:stop], 3)
            assert got == (want if want[1] is None else (None, want[1])), (start, stop)
            texts.add(want[1])
    # the deals refuse both gates on several pairs of blocks, and pass some rows
    assert None in texts and len(texts) >= 4, texts
    assert any(t and t.startswith("gate 1 (probe)") for t in texts)
    assert any(t and t.startswith("gate 3 (probe)") for t in texts)


def _slot_misuse(text: str) -> list[str]:
    """Statements that name an ``ebit`` slot after its cat_disentangler,
    and disentanglers of a slot no earlier statement used."""
    used: set[str] = set()
    released: set[str] = set()
    bad = []
    for stmt in text.splitlines():
        if stmt.startswith("qreg"):
            continue
        slots = set(re.findall(r"ebit\[(\d+)\]", stmt))
        if slots & released or (stmt.startswith("cat_disentangler") and not slots <= used):
            bad.append(stmt)
        if stmt.startswith("cat_disentangler"):
            released |= slots
        else:
            used |= slots
    return bad


def test_emit_serves_each_use_from_its_own_channel():
    # random:12:3 over two parts carries some qubits to the same remote
    # block on two channels; each gate must name the slot of the channel
    # open at that gate, not the last one planned for the pair
    c = generate("random", 12, seed=3)
    h = build_hypergraph(c, grouped=True)
    res = partition(h, PartitionConfig(blocks=2))
    plan = plan_distribution(c, h, list(res.assignment))
    pairs = Counter((ch.carries, ch.remote) for ch in plan.channels)
    assert any(n > 1 for n in pairs.values())
    for text in emit_subcircuits(c, plan):
        assert _slot_misuse(text) == []


# -- one writer: a single-QPU plan emits the source program ----------------

_OPAQUE_ARITY = {"probe": 2, "tag": 1, "cat_entangler": 2}


@st.composite
def emitter_circuits(draw):
    """Up to two registers named from a pool that holds ``c`` and ``ebit``,
    an optional creg, and gates of every kind; a measure writes to the
    creg, or carries no bit when there is none.  Arguments that
    construction refuses, a repeated name or a bare measure next to a
    register ``c``, are rejected."""
    names = draw(st.permutations(["q", "r", "c", "ebit"]))
    regs = [(names[0], draw(st.integers(1, 4))), (names[1], draw(st.integers(0, 3)))]
    regs = [(name, n) for name, n in regs if n]
    qs = range(sum(n for _, n in regs))
    cregs = draw(st.sampled_from([[]] + [[(name, len(qs))] for name in ("m", "c", "ebit")]))
    kinds = [GateKind.H, GateKind.RZ, GateKind.MEASURE, GateKind.BARRIER, GateKind.OPAQUE]
    if len(qs) >= 2:
        kinds += [GateKind.CX, GateKind.CP]
    if len(qs) >= 3:
        kinds += [GateKind.CCZ]
    gates = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        label = cbit = None
        if kind is GateKind.OPAQUE:
            label = draw(st.sampled_from([lb for lb, n in _OPAQUE_ARITY.items()
                                          if n <= len(qs)]))
            arity = _OPAQUE_ARITY[label]
        elif kind is GateKind.BARRIER:
            arity = draw(st.integers(1, len(qs)))
        else:
            arity = kind.n_qubits
        ops = tuple(draw(st.permutations(qs))[:arity])
        if kind is GateKind.MEASURE and cregs:
            cbit = (cregs[0][0], draw(st.integers(0, len(qs) - 1)))
        params = tuple(draw(st.floats(-6.3, 6.3, allow_nan=False))
                       for _ in range(kind.n_params))
        gates.append(Gate(kind, ops, params, cbit=cbit, label=label))
    declared = [name for name, _ in regs + cregs]
    bare = any(g.kind is GateKind.MEASURE and g.cbit is None for g in gates)
    refused = len(set(declared)) < len(declared) or (bare and "c" in declared)
    try:
        c = Circuit("emit", regs, gates, cregs)
    except ValueError:
        assert refused
        reject()
    assert not refused
    return c


def _single_qpu_texts(c):
    h = build_hypergraph(c)
    return emit_subcircuits(c, plan_distribution(c, h, [0] * len(h.vertices)))


@pytest.mark.parametrize("name", fixture_names())
def test_single_qpu_emit_is_emit_qasm_fixtures(name):
    c = load_fixture(name)
    assert _single_qpu_texts(c) == [emit_qasm(c)]


@settings(max_examples=80, deadline=None)
@given(emitter_circuits())
def test_single_qpu_emit_is_emit_qasm(c):
    assert _single_qpu_texts(c) == [emit_qasm(c)]


_RESERVED = ("ebit", "cat_entangler", "cat_disentangler")


@settings(max_examples=150, deadline=None)
@given(emitter_circuits(), st.data())
def test_written_programs_parse_back(c, data):
    # emit_qasm gives back every gate, a bare measure with the bit of the
    # c register written for it
    want = tuple(replace(g, cbit=("c", g.operands[0]))
                 if g.kind is GateKind.MEASURE and g.cbit is None else g for g in c.gates)
    assert parse_qasm(emit_qasm(c)).gates == want
    # every program of a plan over two QPUs parses back, or the writer
    # names the reserved name that it would declare twice
    assignment = data.draw(st.lists(st.integers(0, 1), min_size=c.width, max_size=c.width))
    try:
        plan = plan_distribution(c, build_hypergraph(c), assignment, blocks=2)
    except InfeasibleError:  # a split opaque gate or a split gate of one edge
        return
    taken = {name for name, _ in c.registers + c.cregs} | {g.label for g in c.gates}
    clash = sorted(taken & set(_RESERVED))
    if plan.channels and clash:
        with pytest.raises(ValueError, match="|".join(f"'{name}'" for name in clash)):
            emit_subcircuits(c, plan)
        return
    for text in emit_subcircuits(c, plan):
        parse_qasm(text)


def _reserved_circuit(decl: str, call: str = ""):
    return parse_qasm(f"OPENQASM 2.0; {decl} qreg q[2]; {call} cx q[0],q[1];")


@pytest.mark.parametrize("decl,call,named", [
    ("qreg ebit[1];", "", "register 'ebit'"),
    ("creg ebit[1];", "", "register 'ebit'"),
    ("opaque cat_entangler a;", "cat_entangler q[0];", "opaque gate 'cat_entangler'"),
    ("opaque cat_disentangler a;", "cat_disentangler q[1];", "opaque gate 'cat_disentangler'"),
], ids=["qreg", "creg", "entangler", "disentangler"])
def test_writer_refuses_its_own_names_with_a_channel(decl, call, named):
    # the programs of a plan with a channel declare `qreg ebit` and the cat
    # primitives, so a circuit that uses those names would declare them twice
    c = _reserved_circuit(decl, call)
    h = build_hypergraph(c)
    n = c.width
    together = plan_distribution(c, h, [0] * n, blocks=2)
    assert not together.channels
    for text in emit_subcircuits(c, together):
        parse_qasm(text)
    apart = plan_distribution(c, h, [0] * (n - 1) + [1], blocks=2)
    assert apart.channels
    with pytest.raises(ValueError, match=re.escape(named)):
        emit_subcircuits(c, apart)
