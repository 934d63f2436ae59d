"""Circuit-to-hypergraph translation, cut metrics and hMETIS io."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from qpart import (Circuit, Gate, GateKind, Hyperedge, Hypergraph, Vertex,
                   build_hypergraph, cut_cost, export_hmetis, find_groups, generate,
                   import_hmetis, parse_qasm, plan_distribution)
from qpart.distribution import _plan_ledger

from conftest import fixture_names, load_fixture


def test_ghz4_hypergraph(ghz4):
    h = build_hypergraph(ghz4)
    assert len(h.vertices) == 4
    assert all(v.weight == 1 for v in h.vertices)
    assert len(h.edges) == 3            # the h gate contributes no edge
    assert sum(len(e.pins) for e in h.edges) == 6
    for e in h.edges:
        assert len(e.pins) == 2 and e.weight == 1
        seq, = e.gates
        assert e.pins == ghz4.gates[seq].operands


def test_qft4_ungrouped(qft4):
    h = build_hypergraph(qft4)
    assert (len(h.vertices), len(h.edges), sum(len(e.pins) for e in h.edges)) == (4, 6, 12)


def test_qft4_grouped(qft4):
    h = build_hypergraph(qft4, grouped=True)
    assert len(h.vertices) == 4
    assert all(v.weight == 1 for v in h.vertices)
    # one edge per reuse group, over its control and then its targets
    assert [(e.gates, e.pins) for e in h.edges] == [
        ((1,), (1, 0)), ((2, 5), (2, 0, 1)), ((3, 6, 8), (3, 0, 1, 2))]


def test_grouped_is_read_for_its_truth_value(qft4, ghz4):
    # find_groups' list, as perfbench passes it, builds the grouped graph,
    # and an empty one the plain graph
    assert build_hypergraph(qft4, find_groups(qft4)).edges == \
        build_hypergraph(qft4, grouped=True).edges
    assert build_hypergraph(ghz4, []).edges == build_hypergraph(ghz4).edges


_FAN = "OPENQASM 2.0; qreg q[4]; cx q[0],q[1]; cx q[0],q[2];"


def _refused(c, edges, message):
    # the plan and the ledger refuse a hand-built hypergraph alike
    h = Hypergraph([Vertex() for _ in range(c.width)], edges)
    with pytest.raises(ValueError, match=message):
        plan_distribution(c, h, [0] * c.width)
    with pytest.raises(ValueError, match=message):
        _plan_ledger(c, h)


def test_group_rejects_a_member_of_another_control():
    # an edge (3, 1, 2) over the run on q[0] leaves out q[0], and a plan at
    # [0, 1, 1, 1] would report a cut of 0 while spending 2 ebits
    _refused(parse_qasm(_FAN), [Hyperedge(pins=(3, 1, 2), gates=(0, 1))],
             "gate 0 acts on qubit 0, which its edge 0 does not hold")


@pytest.mark.parametrize("edges, message", [
    ([Hyperedge(pins=(0, 1, 2), gates=(0, 1)), Hyperedge(pins=(0, 2), gates=(1,))],
     "gate 1 is listed on edges 0 and 1"),
    ([Hyperedge(pins=(0, 1), gates=(0, 0)), Hyperedge(pins=(0, 2), gates=(1,))],
     "gate 0 is listed on edges 0 and 0"),
], ids=["in-two-groups", "twice-in-one-group"])
def test_group_rejects_a_gate_listed_twice(edges, message):
    # a gate on two edges would put its target on both
    _refused(parse_qasm(_FAN), edges, message)


def test_group_rejects_a_gate_on_its_control_between_members():
    # the x on q[0] changes the control between the two cx, so the grouped
    # build closes the run there: a second member would read a stale copy
    c = parse_qasm("OPENQASM 2.0; qreg q[3]; h q[0]; h q[2]; "
                   "cx q[0],q[1]; x q[0]; cx q[0],q[1];")
    assert [e.gates for e in build_hypergraph(c, grouped=True).edges] == [(2,), (4,)]
    # a hand-built run split by another edge of its control, in either
    # order, opens a channel that no gate reads, and the plan refuses it
    c = parse_qasm("OPENQASM 2.0; qreg q[4]; h q[0]; "
                   "cx q[0],q[1]; cx q[0],q[2]; cx q[0],q[3];")
    run, split = Hyperedge(pins=(0, 1, 3), gates=(1, 3)), Hyperedge(pins=(0, 2), gates=(2,))
    for edges in ([run, split], [split, run]):
        h = Hypergraph([Vertex() for _ in range(4)], edges)
        with pytest.raises(ValueError, match="opens at gate 2 while another channel "
                                             "of qubit 0 to block 1 is open"):
            plan_distribution(c, h, [0, 1, 1, 1])


_DRAWN_KINDS = [GateKind.CX, GateKind.CX, GateKind.CZ, GateKind.CP, GateKind.H, GateKind.CCX]


@st.composite
def grouping_circuits(draw):
    """Circuits on few wires, so that two-qubit gates often share a control
    and most draws hold several reuse groups."""
    n = draw(st.integers(3, 6))
    gates = []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(_DRAWN_KINDS))
        ops = draw(st.permutations(range(n)))[:kind.n_qubits]
        gates.append(Gate(kind, tuple(ops), (0.5,) * kind.n_params))
    return Circuit("drawn", [("q", n)], gates)


def test_circuit_hypergraph_shape():
    # qubits are the only vertices, with or without grouping; every 2- and
    # 3-qubit gate is on exactly one edge, each edge's pins are its gates'
    # operands in order of first use, and the grouped graph's many-gate
    # edges are find_groups' reuse groups
    circuits = [load_fixture(name) for name in fixture_names()] + \
        [generate(family, n, seed) for family, n in (("ghz", 12), ("qft", 9), ("random", 16))
         for seed in range(3)]
    for c in circuits:
        wide = [seq for seq, g in enumerate(c.gates) if g.kind.n_qubits in (2, 3)]
        for grouped in (False, True):
            h = build_hypergraph(c, grouped)
            assert len(h.vertices) == c.width
            assert all(v.weight == 1 for v in h.vertices)
            assert sorted(seq for e in h.edges for seq in e.gates) == wide
            for e in h.edges:
                assert e.pins == tuple(dict.fromkeys(q for seq in e.gates
                                                     for q in c.gates[seq].operands))
            reuse = {grp.members for grp in find_groups(c) if grp.is_reuse}
            assert {e.gates for e in h.edges if len(e.gates) > 1} == \
                (reuse if grouped else set())


@settings(max_examples=100, deadline=None)
@given(grouping_circuits(), st.data())
def test_groups_are_accepted_until_a_member_changes_control(c, data):
    # the grouped build always plans; moving one member onto an edge of
    # another control is refused
    h = build_hypergraph(c, grouped=True)
    plan_distribution(c, h, [0] * c.width)
    assume(h.edges)
    eid = data.draw(st.integers(0, len(h.edges) - 1))
    seq = data.draw(st.sampled_from(h.edges[eid].gates))
    g = c.gates[seq]
    assume(g.kind.groupable)
    control = data.draw(st.sampled_from([q for q in range(c.width) if q not in g.operands]))
    rest = [s for s in h.edges[eid].gates if s != seq]
    edges = [*h.edges[:eid], *h.edges[eid + 1:], Hyperedge(pins=(control, g.operands[1]),
                                                            gates=(seq,))]
    if rest:
        pins = tuple(dict.fromkeys(q for s in rest for q in c.gates[s].operands))
        edges.append(Hyperedge(pins=pins, gates=tuple(rest)))
    with pytest.raises(ValueError, match=f"gate {seq} acts on qubit {g.operands[0]}"):
        plan_distribution(c, Hypergraph(h.vertices, edges), [0] * c.width)


def test_vertex_and_edge_fields_are_keywords():
    # a vertex is its position, so Vertex(3) is refused, not read as weight 3
    with pytest.raises(TypeError):
        Vertex(3)
    with pytest.raises(TypeError):
        Hyperedge((0, 1))


def test_cut_cost_frozen(qft4):
    ungrouped = build_hypergraph(qft4)
    rep = cut_cost(ungrouped, [0, 0, 1, 1], 2)
    assert (rep.cut_edges, rep.lambda_minus_one, rep.ebits) == (4, 4, 8)

    grouped = build_hypergraph(qft4, find_groups(qft4))
    rep = cut_cost(grouped, [0, 0, 1, 1], 2)
    assert (rep.cut_edges, rep.lambda_minus_one, rep.ebits) == (2, 2, 4)


def test_cut_cost_uncut(ghz4):
    h = build_hypergraph(ghz4)
    rep = cut_cost(h, [0, 0, 0, 0], 1)
    assert (rep.cut_edges, rep.lambda_minus_one, rep.ebits) == (0, 0, 0)


def test_cut_cost_weighted():
    h = Hypergraph([Vertex() for _ in range(3)],
                   [Hyperedge(pins=(0, 1, 2), weight=3)])
    rep = cut_cost(h, [0, 1, 2], 3)
    assert rep.cut_edges == 1
    assert rep.lambda_minus_one == 6    # weight 3 times two extra blocks
    assert rep.ebits == 12


def test_cut_cost_validation(ghz4):
    h = build_hypergraph(ghz4)
    with pytest.raises(ValueError):
        cut_cost(h, [0, 0, 0], 2)       # wrong length
    with pytest.raises(ValueError):
        cut_cost(h, [0, 0, 0, 2], 2)    # block out of range


def test_edge_home():
    # a CCX edge over three blocks: its first pin's block is the home and
    # holds one endpoint per remote block
    h = build_hypergraph(parse_qasm("OPENQASM 2.0; qreg q[3]; ccx q[0],q[1],q[2];"))
    assert cut_cost(h, [2, 0, 1], 3).endpoints == (1, 1, 2)
    assert cut_cost(h, [0, 2, 1], 3).endpoints == (2, 1, 1)


def test_block_endpoints_chain(ghz4):
    h = build_hypergraph(ghz4)
    assert cut_cost(h, [0, 0, 1, 1], 2).endpoints == (1, 1)
    assert cut_cost(h, [0, 1, 0, 1], 2).endpoints == (3, 3)


def test_block_endpoints_sum_law(qft4):
    h = build_hypergraph(qft4, find_groups(qft4))
    rng = random.Random(5)
    for _ in range(25):
        a = [rng.randrange(3) for _ in range(len(h.vertices))]
        rep = cut_cost(h, a, 3)
        assert sum(rep.endpoints) == 2 * rep.lambda_minus_one


@st.composite
def weighted_assignments(draw):
    """Hypergraphs of 2-4 pins per edge, edge weights 0-3 and vertex weights
    0-2, with an assignment over 1-5 blocks that may leave blocks empty."""
    n = draw(st.integers(2, 8))
    pins = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(4, n), unique=True)
    edges = draw(st.lists(st.tuples(pins, st.integers(0, 3)), max_size=10))
    weights = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    blocks = draw(st.integers(1, 5))
    assignment = draw(st.lists(st.integers(0, blocks - 1), min_size=n, max_size=n))
    h = Hypergraph([Vertex(weight=w) for w in weights],
                   [Hyperedge(pins=tuple(p), weight=w) for p, w in edges])
    return h, assignment, blocks


@settings(max_examples=200, deadline=None)
@given(weighted_assignments())
def test_cut_endpoints_count_each_pair_end(case):
    # a cut edge needs one entangled pair per unit of weight for each block
    # it spans besides its home, its first pin's block: one end there and
    # one at home
    h, assignment, blocks = case
    rep = cut_cost(h, assignment, blocks)
    count = [0] * blocks
    for e in h.edges:
        home = assignment[e.pins[0]]
        for remote in {assignment[p] for p in e.pins} - {home}:
            count[home] += e.weight
            count[remote] += e.weight
    assert len(rep.endpoints) == blocks
    assert sum(rep.endpoints) == rep.ebits
    assert list(rep.endpoints) == count


def test_export_hmetis_ghz4(ghz4):
    h = build_hypergraph(ghz4)
    assert export_hmetis(h) == "3 4\n1 2\n2 3\n3 4\n"


def test_export_hmetis_qft4_grouped(qft4):
    h = build_hypergraph(qft4, find_groups(qft4))
    assert export_hmetis(h) == "3 4\n2 1\n3 1 2\n4 1 2 3\n"


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("grouped", [False, True])
def test_hmetis_roundtrip(name, grouped):
    c = load_fixture(name)
    h = build_hypergraph(c, find_groups(c) if grouped else None)
    back = import_hmetis(export_hmetis(h))
    assert [e.pins for e in back.edges] == [e.pins for e in h.edges]
    assert [e.weight for e in back.edges] == [e.weight for e in h.edges]
    assert [v.weight for v in back.vertices] == [v.weight for v in h.vertices]


def test_import_hmetis_comments():
    h = import_hmetis("% header comment\n2 3\n1 2\n2 3 // trailing\n")
    assert len(h.edges) == 2 and len(h.vertices) == 3
    assert h.edges[1].pins == (1, 2)


def test_import_hmetis_fmt1():
    h = import_hmetis("1 2 1\n7 1 2\n")
    assert h.edges[0].weight == 7
    assert all(v.weight == 1 for v in h.vertices)


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("x y\n", "malformed"),
    ("1 2 99\n1 2\n", "unsupported"),
    ("2 3\n1 2\n", "expected"),
    ("1 2\n1 3\n", "out of range"),
    # a dropped single-pin edge comes first: the error names the file's edge
    ("3 3 1\n1 1\n2\n1 2 3\n", "^edge 1 has no pins$"),
    ("3 3\n1\n1 1 2\n2 3\n", r"^edge 1 has repeated pins \(1, 1, 2\)$"),
    ("2 2 1\n1 1\n-2 1 2\n", "^edge 1 has negative weight -2$"),
    # a field that is not an integer is named as written, with its edge or vertex
    ("2 2\n1 2\n1 2 extra\n", "^edge 1 has non-integer pin 'extra'$"),
    ("1 2 1\n1.5 1 2\n", r"^edge 0 has non-integer weight '1\.5'$"),
    ("1 2 10\n1 2\nx\n1\n", "^vertex 0 has non-integer weight 'x'$"),
    ("1 2 10\n1 2\n1\n1 2\n", "^vertex 1 has non-integer weight '1 2'$"),
], ids=["empty", "header", "fmt", "linecount", "pin", "no-pins", "repeat", "negative",
        "text-pin", "float-weight", "text-vertex-weight", "two-vertex-weights"])
def test_import_hmetis_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        import_hmetis(text)


@pytest.mark.parametrize("vertices,edges,fragment", [
    ([Vertex(), Vertex()], [Hyperedge(pins=(0,))], "fewer than 2"),
    ([Vertex(), Vertex()], [Hyperedge(pins=(0, 0))], "repeated"),
    ([Vertex(), Vertex()], [Hyperedge(pins=(0, 5))], "out of range"),
    ([Vertex(), Vertex(weight=-1)], [], "negative weight"),
    ([Vertex(), Vertex()], [Hyperedge(pins=(0, 1), weight=-2)], "edge 0 has negative weight"),
    ([Vertex(weight=1.5), Vertex(), Vertex(weight=0.5)], [Hyperedge(pins=(0, 1))],
     r"^vertex 0 has non-integer weight 1\.5$"),
    ([Vertex(), Vertex(), Vertex()], [Hyperedge(pins=(0, 1)), Hyperedge(pins=(1, 2), weight=2.5)],
     r"^edge 1 has non-integer weight 2\.5$"),
], ids=["pins", "repeat", "range", "vertex-weight", "edge-weight", "vertex-float-weight",
        "edge-float-weight"])
def test_validate_errors(vertices, edges, fragment):
    with pytest.raises(ValueError, match=fragment):
        Hypergraph(vertices, edges)


def test_import_hmetis_drops_single_pin_edges():
    h = import_hmetis("4 3 1\n5 2\n1 1 2\n7 3\n2 2 3\n")
    assert [(e.pins, e.weight) for e in h.edges] == [((0, 1), 1), ((1, 2), 2)]
