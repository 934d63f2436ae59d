"""Suite runner rows/summaries and the command-line front end."""

import csv
import io
import json
import random
import re
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from qpart import (Circuit, CircuitFamily, Gate, GateKind, InfeasibleError, Mode,
                   PartitionConfig, build_hypergraph, partition, plan_distribution)
from qpart import bench, cli, distribution, fm, hypergraph
from qpart.bench import (CSV_COLUMNS, METHODS, BenchRow, CircuitJob, SuiteSpec,
                         _rows, format_summary, load_suite, run_suite, write_csv)
from qpart.distribution import _plan_ledger
from qpart.cli import main
from qpart.fm import resolve_capacities

from conftest import FIXTURES

TESTS = FIXTURES.parent / "tests"


# -- suite spec ------------------------------------------------------------

def test_job_parse_shorthand():
    job = CircuitJob.parse("ghz:10")
    assert (job.label, job.family, job.n) == ("ghz10", CircuitFamily.GHZ, 10)
    job = CircuitJob.parse("random:8:3")
    assert (job.family, job.n, job.gen_seed) == (CircuitFamily.RANDOM_LAYERED, 8, 3)
    assert CircuitJob.parse("random:8:-3").gen_seed == -3


def test_job_parse_dict_and_path():
    job = CircuitJob.parse({"family": "qft", "n": 4})
    assert (job.label, job.n, job.path) == ("qft4", 4, None)
    job = CircuitJob.parse({"file": "fixtures/ghz_4.qasm"})
    assert (job.label, job.path) == ("ghz_4", "fixtures/ghz_4.qasm")
    job = CircuitJob.parse("some/dir/circ.qasm")
    assert job.label == "circ" and job.path == "some/dir/circ.qasm"


def test_job_load():
    assert CircuitJob.parse("ghz:6").load().size == 6
    c = CircuitJob.parse(str(FIXTURES / "ghz_4.qasm")).load()
    assert c.width == 4


def test_suite_from_json_full():
    spec = SuiteSpec.from_json({
        "circuits": ["ghz:6", {"family": "qft", "n": 4}],
        "methods": ["Random", "FM"],
        "parts": [2, 3],
        "capacities": [[3, 3], None],
        "seeds": {"from": 2, "to": 7},
        "restarts": 4,
        "mode": "kway",
    })
    assert [j.label for j in spec.circuits] == ["ghz6", "qft4"]
    assert spec.methods == ("Random", "FM")
    assert spec.parts == (2, 3)
    assert spec.capacities == ((3, 3), None)
    assert (spec.seed_from, spec.seed_to) == (2, 7)
    assert spec.mode is Mode.DIRECT_KWAY


def test_suite_defaults():
    spec = SuiteSpec.from_json({"circuits": ["ghz:4"]})
    assert spec.methods == METHODS
    assert spec.parts == (2,)
    assert (spec.seed_from, spec.seed_to) == (0, 1000)
    assert spec.mode is Mode.RECURSIVE_BISECT


def test_suite_validation():
    with pytest.raises(ValueError, match="unknown method"):
        SuiteSpec(circuits=(), methods=("Greedy",))
    with pytest.raises(ValueError, match="align"):
        SuiteSpec(circuits=(), parts=(2, 3), capacities=(((2, 2),)))
    with pytest.raises(ValueError, match="seed range"):
        SuiteSpec(circuits=(), seed_from=5, seed_to=5)


def small_spec(**kw) -> SuiteSpec:
    base = dict(circuits=(CircuitJob.parse("ghz:6"),), seed_from=0, seed_to=5,
                restarts=2)
    base.update(kw)
    return SuiteSpec(**base)


# -- run_suite -------------------------------------------------------------

def test_run_suite_rows_and_order():
    rows, summaries = run_suite(small_spec())
    assert [r.method for r in rows] == ["Random"] * 5 + ["FM", "FMGrouped"]
    assert [r.seed for r in rows[:5]] == [0, 1, 2, 3, 4]
    assert all(r.circuit == "ghz6" and r.k == 2 for r in rows)
    assert all(r.capacities == (3, 3) for r in rows)
    (s,) = summaries
    assert s["circuit"] == "ghz6" and s["k"] == 2
    assert s["fm_ebits"] == 2
    assert s["random_mean_ebits"] > s["fm_ebits"]
    assert s["fm_improvement_pct"] > 0
    assert s["fm_grouped_ebits"] == 2    # no reuse groups in a ghz chain


def test_run_suite_deterministic():
    a, _ = run_suite(small_spec())
    b, _ = run_suite(small_spec())
    cells_a = [r.csv_cells()[:-1] for r in a]    # all but runtime_ms
    cells_b = [r.csv_cells()[:-1] for r in b]
    assert cells_a == cells_b


def test_run_suite_multi_k():
    spec = small_spec(circuits=(CircuitJob.parse("ghz:8"),), parts=(2, 4),
                      methods=("FM",))
    rows, summaries = run_suite(spec)
    assert [(r.k, r.ebits) for r in rows] == [(2, 2), (4, 6)]
    assert [s["k"] for s in summaries] == [2, 4]


def test_run_suite_missing_file_strict():
    # a missing circuit file is refused, also after a circuit that loads
    spec = small_spec(circuits=(CircuitJob.parse("ghz:4"), CircuitJob.parse("no/such.qasm")))
    with pytest.raises(FileNotFoundError, match="no/such.qasm"):
        run_suite(spec)


def test_run_suite_edgeless_circuit(tmp_path):
    p = tmp_path / "walls.qasm"
    p.write_text("OPENQASM 2.0;\nqreg q[4];\nh q;\n")
    spec = small_spec(circuits=(CircuitJob.parse(str(p)),))
    rows, (s,) = run_suite(spec)
    assert all(r.ebits == 0 for r in rows)
    assert s["random_mean_ebits"] == 0
    assert s["fm_improvement_pct"] is None       # no baseline to improve on
    assert s["fm_grouped_improvement_pct"] is None


def test_run_suite_shuffles_each_seed_once_per_circuit(monkeypatch):
    # restarts=1 and direct k-way: each FM method deals seed_from once per k
    drawn = Counter()

    class Counting(random.Random):
        def __init__(self, seed):
            drawn[seed] += 1
            super().__init__(seed)

    monkeypatch.setattr(fm, "random", SimpleNamespace(Random=Counting))
    spec = small_spec(circuits=(CircuitJob.parse("ghz:6"), CircuitJob.parse("qft:5")),
                      parts=(2, 3), seed_from=10, seed_to=150, restarts=1,
                      mode=Mode.DIRECT_KWAY)
    run_suite(spec)
    want = Counter({seed: len(spec.circuits) for seed in range(10, 150)})
    want[10] += len(spec.circuits) * 2 * 2    # one restart deal per (FM method, k)
    assert drawn == want


@pytest.mark.parametrize("methods, sweeps", [
    (METHODS, 4), (("Random", "FM"), 2), (("FM",), 2), (("FMGrouped",), 2),
], ids=["all", "plain-pair", "fm", "fm-grouped"])
def test_run_suite_places_each_hypergraph_once(monkeypatch, methods, sweeps):
    # a hypergraph's ledger serves every k and method, so each circuit builds
    # and places once each hypergraph a requested method reads
    built, placed = [], []
    build, placement = bench.build_hypergraph, distribution._placement
    monkeypatch.setattr(bench, "build_hypergraph",
                        lambda c, grouped=False: built.append(1) or build(c, grouped=grouped))
    monkeypatch.setattr(distribution, "_placement",
                        lambda *a: placed.append(1) or placement(*a))
    spec = small_spec(circuits=(CircuitJob.parse("ghz:6"), CircuitJob.parse("qft:5")),
                      parts=(2, 3), methods=methods)
    run_suite(spec)
    assert len(built) == len(placed) == sweeps


def test_csv_shape():
    rows, _ = run_suite(small_spec(methods=("FM", "FMGrouped")))
    buf = io.StringIO()
    write_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[:6] == ["ghz6", "6", "6", "6", "FM", "2"]
    assert cells[6] == "3;3"
    assert cells[10].count(";") == 1             # one r entry per block


def test_write_csv_is_the_plain_csv_writer():
    # write_csv formats each distinct head and r cell once, and its bytes are
    # csv.writer's over every row's cells: quoted labels, a '-' r cell, and
    # heads that interleave and repeat
    def row(label, method, seed, r, ms):
        return BenchRow(label, 4, 5, 3, method, len(r), (2,) * len(r), seed, seed % 3,
                        2 * (seed % 3), r, ms)

    rows = [row("a,b", "Random", 0, (0.5, 1 / 3), 0.25),
            row('x"y', "Random", 0, (0.5, 1 / 3), 0.25),
            row("a,b", "Random", 1, (1.0, None), 0.25),
            row("a,b", "FM", 0, (2 / 3, 0.125, None), 12.0),
            row('x"y', "Random", 1, (0.5, 1 / 3), 0.0005),
            row("ghz4", "Random", 7, (None, None), 1234.5678)]
    for rs in (rows, []):
        want = io.StringIO()
        w = csv.writer(want, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in rs:
            w.writerow(r.csv_cells())
        got = io.StringIO()
        write_csv(rs, got)
        assert got.getvalue() == want.getvalue()
    assert got.getvalue() == ",".join(CSV_COLUMNS) + "\n"


def test_csv_to_path(tmp_path):
    rows, _ = run_suite(small_spec(methods=("FM",)))
    out = tmp_path / "rows.csv"
    write_csv(rows, out)
    assert out.read_text().startswith("circuit,n,size,depth,method,k")


def test_format_summary():
    _, summaries = run_suite(small_spec())
    text = format_summary(summaries)
    assert "ghz6 k=2" in text
    assert "random mean ebits" in text
    assert "FM ebits 2" in text and "% better" in text


def test_load_suite(tmp_path):
    p = tmp_path / "suite.json"
    p.write_text(json.dumps({"circuits": ["ghz:4"], "seeds": {"from": 0, "to": 3}}))
    spec = load_suite(str(p))
    assert spec.seed_to == 3


# -- Random rows scored in one batch against one partition and plan per seed

_OPAQUE_ARITY = {"tag": 1, "probe": 2}


@st.composite
def batch_instances(draw):
    """Circuits over one or two registers with every gate kind the plan
    places (CCX/CCZ fallbacks, CZ/CP majority ties, barriers, measures into
    a creg, one-qubit opaque calls and now and then a two-qubit one the
    plan refuses to split), plain or grouped hypergraphs, k in {2, ..., 5},
    equal, tight or slack capacities, and seed counts on both sides of the
    chunk edge."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(2, 8))
    second = draw(st.integers(0, n - 1))
    regs = [(name, size) for name, size in (("q", n - second), ("r", second)) if size]
    cregs = draw(st.sampled_from([[], [("m", n)]]))
    kinds = [GateKind.H, GateKind.RZ, GateKind.MEASURE, GateKind.BARRIER, GateKind.OPAQUE]
    if not draw(st.sampled_from([False, False, False, True])):   # edgeless
        kinds += [GateKind.CX, GateKind.CZ, GateKind.CP] * 3
        if n >= 3:
            kinds += [GateKind.CCX, GateKind.CCZ] * 2
    gates = []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(kinds))
        label = cbit = None
        if kind is GateKind.OPAQUE:
            label = draw(st.sampled_from(["tag"] * 9 + ["probe"]))
            arity = _OPAQUE_ARITY[label]
        elif kind is GateKind.BARRIER:
            arity = draw(st.integers(1, n))
        else:
            arity = kind.n_qubits
        ops = tuple(draw(st.permutations(range(n)))[:arity])
        if kind is GateKind.MEASURE and cregs:
            cbit = ("m", draw(st.integers(0, n - 1)))
        gates.append(Gate(kind, ops, (0.5,) * kind.n_params, cbit=cbit, label=label))
    circuit = Circuit("batch", regs, gates, cregs)
    h = build_hypergraph(circuit, grouped=draw(st.booleans()))
    caps_kind = draw(st.sampled_from(["equal", "tight", "slack"] if n >= k
                                     else ["equal", "slack"]))
    if caps_kind == "equal":
        caps = None
    elif caps_kind == "tight":
        cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=k - 1,
                                    max_size=k - 1, unique=True)))
        caps = tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))
    else:
        caps = tuple(draw(st.integers(n // k + 1, n + 2)) for _ in range(k))
    config = PartitionConfig(blocks=k, capacities=caps, restarts=1, mode=Mode.RANDOM,
                             seed=draw(st.integers(0, 10_000)))
    count = draw(st.sampled_from([1, 127, 128, 129, 300]))
    return circuit, h, config, range(config.seed, config.seed + count)


@settings(max_examples=60, deadline=None)
@given(batch_instances())
def test_random_rows_match_partition_and_plan(instance):
    # partition prices its random deal with cut_cost, so each batch row's
    # price is checked against cut_cost
    circuit, h, config, seeds = instance
    caps = resolve_capacities(config.capacities, circuit.width, config.blocks)

    def one(seed):
        result = partition(h, PartitionConfig(blocks=config.blocks,
                                              capacities=config.capacities,
                                              restarts=1, seed=seed, mode=Mode.RANDOM))
        plan = plan_distribution(circuit, h, list(result.assignment), blocks=config.blocks)
        return (seed, result.cut.cut_edges, result.cut.ebits,
                tuple(p.e / p.o if p.o else None for p in plan.per_block))

    job = CircuitJob(label=circuit.name)

    def batch():
        return _rows(job, circuit, "Random", caps, seeds,
                     _plan_ledger(circuit, h),
                     fm.random_deals(h, config, bench._draw(circuit.width, seeds)), 0.0)

    try:
        want = [one(seed) for seed in seeds]
    except InfeasibleError as ex:
        with pytest.raises(InfeasibleError, match=re.escape(str(ex))):
            batch()
        return
    rows = batch()
    assert [(r.seed, r.cut_edges, r.ebits, r.r_per_block) for r in rows] == want
    assert all(r.method == "Random" and r.capacities == tuple(caps) for r in rows)


@st.composite
def refined_instances(draw):
    """A circuit of ``batch_instances`` benched with FM and FMGrouped, in
    ``fm`` or ``kway`` mode, with equal capacities or up to two units of
    slack per block, one to three restarts and any first seed."""
    circuit, _, config, _ = draw(batch_instances())
    k = config.blocks
    equal = resolve_capacities(None, circuit.width, k)
    caps = draw(st.none() | st.tuples(*(st.integers(max(c, 1), c + 2) for c in equal)))
    job = SimpleNamespace(label=circuit.name, load=lambda: circuit)
    return circuit, SuiteSpec(circuits=(job,), methods=("FM", "FMGrouped"), parts=(k,),
                              capacities=(caps,), seed_from=config.seed,
                              seed_to=config.seed + 1, restarts=draw(st.integers(1, 3)),
                              mode=draw(st.sampled_from([Mode.RECURSIVE_BISECT,
                                                         Mode.DIRECT_KWAY])))


@settings(max_examples=60, deadline=None)
@given(refined_instances())
def test_refined_rows_match_partition_and_plan(instance):
    # the FM row on the plain hypergraph and the FMGrouped row on the
    # grouped one are what partition and plan_distribution give at seed_from
    circuit, spec = instance
    k, = spec.parts

    def one(method, grouped):
        h = build_hypergraph(circuit, grouped)
        result = partition(h, PartitionConfig(blocks=k, capacities=spec.capacities[0],
                                              restarts=spec.restarts, seed=spec.seed_from,
                                              mode=spec.mode))
        plan = plan_distribution(circuit, h, list(result.assignment), blocks=k)
        return (method, spec.seed_from, result.cut.cut_edges, result.cut.ebits,
                tuple(p.e / p.o if p.o else None for p in plan.per_block))

    try:
        want = [one("FM", False), one("FMGrouped", True)]
    except ValueError as ex:  # InfeasibleError included
        with pytest.raises(type(ex), match=f"^{re.escape(str(ex))}$"):
            run_suite(spec)
        return
    rows, _ = run_suite(spec)
    assert [(r.method, r.seed, r.cut_edges, r.ebits, r.r_per_block) for r in rows] == want


def test_random_rows_cover_every_qpu(capsys):
    # two qubits over three QPUs: the deal leaves block 2 empty, and its row
    # still has an r cell for it, as the CLI report lists all three blocks;
    # the equal split gives every block one unit
    spec = SuiteSpec(circuits=(CircuitJob.parse("ghz:2"),), methods=("Random",),
                     parts=(3,), seed_from=0, seed_to=3)
    rows, _ = run_suite(spec)
    assert len(rows) == 3
    for row in rows:
        assert row.csv_cells()[6] == "1;1;1"
        assert row.csv_cells()[10] == "1.0;1.0;-"
        assert main(["partition", "ghz:2", "--parts", "3", "--method", "random",
                     "--seed", str(row.seed), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert row.r_per_block == tuple(b["r"] for b in report["blocks"])


# -- command line ----------------------------------------------------------

def test_cli_stats(capsys):
    assert main(["stats", "ghz:4"]) == 0
    assert capsys.readouterr().out == "width=4 size=4 depth=4\n"


def test_cli_stats_file(capsys):
    assert main(["stats", str(FIXTURES / "phase_kernel_6.qasm")]) == 0
    assert capsys.readouterr().out == "width=6 size=20 depth=8\n"


def test_cli_partition_json(capsys):
    assert main(["partition", "ghz:10", "--parts", "2", "--method", "fm",
                 "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["circuit"] == "ghz10" and rep["n"] == 10 and rep["k"] == 2
    assert rep["method"] == "fm"
    assert (rep["cut_edges"], rep["ebits"]) == (1, 2)
    assert rep["blocks"] == [{"data": 5, "e": 1, "o": 5, "r": 0.2}] * 2
    assert rep["improvement_pct"] == 80.0  # 9 edges, each cut with probability 5/9


def test_cli_partition_text(capsys):
    assert main(["partition", "ghz:4", "--parts", "2"]) == 0
    out = capsys.readouterr().out
    assert "cut_edges=1 ebits=2" in out
    assert "block 0: data=2 o=2 e=1" in out
    assert "improvement=" in out


def test_cli_partition_random_has_no_improvement(capsys):
    assert main(["partition", "ghz:10", "--parts", "2", "--method", "random",
                 "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert "improvement_pct" not in rep


@pytest.mark.parametrize("caps", ["5,1,1", "1,1,5"])
def test_cli_partition_reports_and_emits_every_qpu(caps, tmp_path, capsys):
    # recursive bisection leaves no QPU empty when one big QPU could hold
    # every qubit; the report and --emit cover all three
    out = tmp_path / "emit"
    assert main(["partition", "ghz:4", "--parts", "3", "--capacities", caps,
                 "--json", "--emit", str(out)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["k"] == len(rep["blocks"]) == 3
    assert sorted(b["data"] for b in rep["blocks"]) == [1, 1, 2]
    assert sorted(p.name for p in out.iterdir()) == [f"ghz4_block{b}.qasm" for b in range(3)]


EBIT_QASM = ("OPENQASM 2.0;\nqreg ebit[2];\nqreg q[2];\ncx ebit[0],q[0];\ncx q[0],ebit[1];\n"
             "cx ebit[1],q[1];\ncx q[1],ebit[0];\ncx ebit[0],ebit[1];\ncx q[0],q[1];\n")


def test_cli_emit_refuses_a_register_named_ebit(tmp_path, capsys):
    # a program over two QPUs declares its own `qreg ebit`, so a source
    # register of that name exits 1 with one error line and writes nothing
    src = tmp_path / "ebit.qasm"
    src.write_text(EBIT_QASM)
    out = tmp_path / "emit"
    assert main(["partition", str(src), "--parts", "2", "--emit", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: register 'ebit' ") and captured.err.count("\n") == 1
    assert list(out.glob("*.qasm")) == []
    # without --emit the plan is reported as before
    assert main(["partition", str(src), "--parts", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ebits"] > 0


def test_cli_random_with_more_parts_than_qubits(capsys):
    # an equal split of 2 qubits over 3 QPUs gives the last a share of 0
    assert main(["partition", "ghz:2", "--parts", "3", "--method", "random", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [b["data"] for b in rep["blocks"]] == [1, 1, 0]
    assert main(["partition", "ghz:2", "--parts", "3", "--method", "random"]) == 0
    assert "block 2: data=0 o=0 e=0 r=-" in capsys.readouterr().out


def test_cli_infeasible_capacities_exit2(capsys):
    assert main(["partition", "ghz:4", "--parts", "2",
                 "--capacities", "1,1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_input_errors_exit1(capsys, tmp_path):
    assert main(["partition", "no/such.qasm", "--parts", "2"]) == 1
    capsys.readouterr()
    assert main(["partition", "ghz:4", "--parts", "2", "--capacities", "a,b"]) == 1
    assert capsys.readouterr().err == "error: bad capacity list 'a,b'; expected e.g. 3,3,2\n"
    assert main(["partition", "ghz:4"]) == 1          # --parts is required
    assert main(["nonsense"]) == 1
    # the depth-window flag was removed, so argparse refuses it
    assert main(["partition", "qft:6", "--parts", "2", "--segment-depth", "4"]) == 1
    # capacities are the one load bound, so argparse refuses --epsilon
    assert main(["partition", "qft:8", "--parts", "3", "--capacities", "3,3,2",
                 "--epsilon", "0.3"]) == 1
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0; qreg q[1]; bogus q[0];")
    assert main(["stats", str(bad)]) == 1
    capsys.readouterr()
    # a shorthand with an extra or a non-integer field names itself and its form
    for arg in ("ghz:4:1:9", "ghz:x"):
        assert main(["stats", arg]) == 1
        assert capsys.readouterr().err == (f"error: circuit {arg!r} is not of the form "
                                           "family:n[:seed] with an integer n and seed\n")


def test_cli_hmetis_stdout(capsys):
    assert main(["hmetis", "ghz:4"]) == 0
    assert capsys.readouterr().out == "3 4\n1 2\n2 3\n3 4\n"


def test_cli_hmetis_grouped_out(tmp_path, capsys):
    out = tmp_path / "qft4.hmetis"
    assert main(["hmetis", "qft:4", "--grouping", "on", "--out", str(out)]) == 0
    # qubits are the only vertices: 3 edges over 4 unit-weight vertices
    assert out.read_text().startswith("3 4\n")
    assert capsys.readouterr().out == ""


def test_cli_partition_hmetis_file(tmp_path, capsys):
    out = tmp_path / "ghz4.hmetis"
    main(["hmetis", "ghz:4", "--out", str(out)])
    assert main(["partition", str(out), "--parts", "2", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["circuit"] == "ghz4" and rep["n"] == 4
    assert rep["ebits"] == 2
    # no circuit accounting for a bare hypergraph
    assert rep["blocks"][0]["o"] == 0 and rep["blocks"][0]["r"] is None
    assert main(["partition", str(out), "--parts", "2"]) == 0
    assert "  block 0: data=2 o=0 e=1 r=-\n" in capsys.readouterr().out


def test_cli_partition_hmetis_single_pin_edges(tmp_path, capsys):
    plain = tmp_path / "plain" / "qft6.hmetis"
    plain.parent.mkdir()
    main(["hmetis", "qft:6", "--out", str(plain)])
    header, *edges = plain.read_text().splitlines()
    n_edges, n_vertices = map(int, header.split())
    quirky = tmp_path / "quirky" / "qft6.hmetis"
    quirky.parent.mkdir()
    quirky.write_text("\n".join([f"{n_edges + 3} {n_vertices}", "1", *edges[:2], "4",
                                 *edges[2:], "6"]) + "\n")
    reports = []
    for path in (plain, quirky):
        assert main(["partition", str(path), "--parts", "3", "--json"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]
    assert reports[0]["ebits"] > 0


def test_cli_partition_hmetis_multi_edge_free_vertex(tmp_path, capsys):
    # weight-0 vertex 1 lies on a weight-1 edge to vertex 2 and a weight-5
    # edge to vertices 3 and 4; with 2 apart from 3 and 4, putting it with
    # 2 cuts the heavy edge (10 ebits), and putting it with 3 and 4 costs 2
    path = tmp_path / "free.hmetis"
    path.write_text("2 4 11\n1 1 2\n5 1 3 4\n0\n1\n1\n1\n")
    for method in ("fm", "kway"):
        assert main(["partition", str(path), "--parts", "2", "--capacities", "2,1",
                     "--method", method, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ebits"] == 2


def test_cli_partition_hmetis_over_capacity_exit2(tmp_path, capsys):
    # vertex 1 weighs 5 but each of the two blocks holds 4; no method may
    # report a block over its capacity with exit 0
    path = tmp_path / "heavy.hmetis"
    path.write_text("3 4 10\n1 2\n2 3\n3 4\n5\n1\n1\n1\n")
    for method in ("fm", "kway", "random"):
        assert main(["partition", str(path), "--parts", "2", "--method", method]) == 2
        err = capsys.readouterr().err
        assert re.search(r"block \d has load \d+, over its capacity 4", err), err


def test_cli_partition_hmetis_weighted_deal_fits(tmp_path, capsys):
    # only {1,3} / {2} fits 10,4; the deal must place both weight-5 vertices
    # first, since FM may not move a block's last vertex
    path = tmp_path / "weighted.hmetis"
    path.write_text("3 3 10\n1 3 2\n2 1\n3 2\n5\n1\n5\n")
    for method in ("fm", "kway", "random"):
        assert main(["partition", str(path), "--parts", "2", "--capacities", "10,4",
                     "--method", method, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert [b["data"] for b in rep["blocks"]] == [10, 1]
        assert rep["ebits"] == 6


def test_cli_partition_hmetis_endpoints_by_hand(tmp_path, capsys):
    # four vertices of weights 0-3 over four QPUs: direct k-way FM keeps
    # every QPU in use, so each QPU holds one vertex, named by its load.  An
    # edge gives its weight to each pin but the first, and (pins - 1) times
    # it to the first: vertex 0 gets 2 + 1, vertex 1 gets 2 + 2*3, vertex 2
    # gets 3 + 0 and vertex 3 gets 3 + 1
    path = tmp_path / "weighted.hmetis"
    path.write_text("4 4 11\n2 1 2\n3 2 3 4\n1 4 1\n0 3 1\n0\n1\n2\n3\n")
    assert main(["partition", str(path), "--parts", "4", "--capacities", "3,3,3,3",
                 "--method", "kway", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert {b["data"]: b["e"] for b in rep["blocks"]} == {0: 3, 1: 8, 2: 3, 3: 4}
    assert rep["ebits"] == 18


def test_cli_checks_each_assignment_once(tmp_path, monkeypatch):
    # the partition's one cut_cost checks its assignment, and the hMETIS
    # report reads its endpoints; a circuit's plan checks it once more
    calls = []
    check = hypergraph._check_assignment
    for module in (hypergraph, cli, distribution):
        if hasattr(module, "_check_assignment"):
            monkeypatch.setattr(module, "_check_assignment",
                                lambda *a: calls.append(1) or check(*a))
    path = tmp_path / "ghz4.hmetis"
    assert main(["hmetis", "ghz:4", "--out", str(path)]) == 0
    for arg, checks in ((str(path), 1), ("ghz:4", 2)):
        calls.clear()
        assert main(["partition", arg, "--parts", "2", "--json"]) == 0
        assert len(calls) == checks


def test_cli_partition_hmetis_negative_edge_weight_exit1(tmp_path, capsys):
    # a negative weight would let the cut report negative ebits
    path = tmp_path / "negative.hmetis"
    path.write_text("2 3 1\n-2 1 2\n1 2 3\n")
    assert main(["partition", str(path), "--parts", "2", "--json"]) == 1
    assert "edge 0 has negative weight -2" in capsys.readouterr().err


def test_cli_stats_oversized_register_exit1(tmp_path, capsys):
    # a register too large for a list index is refused before anything is
    # allocated, on one error line that names it
    path = tmp_path / "huge.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[99999999999999999999];\n")
    assert main(["stats", str(path)]) == 1
    assert capsys.readouterr().err == ("error: register 'q' takes the circuit to "
                                       "99999999999999999999 qubits, over the 16777216 "
                                       "it may hold\n")


def test_cli_partition_hmetis_oversized_vertex_count_exit1(tmp_path, capsys):
    path = tmp_path / "huge.hgr"
    path.write_text("1 99999999999999999999\n1 2\n")
    assert main(["partition", str(path), "--parts", "2"]) == 1
    assert capsys.readouterr().err == ("error: hmetis header declares 99999999999999999999 "
                                       "vertices, over the 16777216 a hypergraph may hold\n")


def test_cli_stats_register_over_the_width_limit_exit1(tmp_path, capsys):
    # a size that fits an index but not in memory is refused as early, by
    # the register that crosses 2**24 qubits in all
    path = tmp_path / "huge.qasm"
    path.write_text("OPENQASM 2.0;\nqreg a[2];\nqreg q[1000000000000];\nh a[0];\n")
    assert main(["stats", str(path)]) == 1
    assert capsys.readouterr().err == ("error: register 'q' takes the circuit to "
                                       "1000000000002 qubits, over the 16777216 it may hold\n")


def test_cli_partition_hmetis_vertex_count_over_the_limit_exit1(tmp_path, capsys):
    path = tmp_path / "huge.hgr"
    path.write_text("1 1000000000000\n1 2\n")
    assert main(["partition", str(path), "--parts", "2"]) == 1
    assert capsys.readouterr().err == ("error: hmetis header declares 1000000000000 "
                                       "vertices, over the 16777216 a hypergraph may hold\n")


def test_cli_stats_large_creg_allocates_nothing_per_bit(tmp_path, capsys):
    # a measure's bit is looked up in its creg's size, not in a set of
    # every declared bit
    path = tmp_path / "bits.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[1];\ncreg c[1000000000000];\n"
                    "measure q[0] -> c[999999999999];\n")
    assert main(["stats", str(path)]) == 0
    assert capsys.readouterr().out == "width=1 size=1 depth=1\n"


def test_cli_hmetis_file_rejects_circuit_flags(tmp_path, capsys):
    out = tmp_path / "ghz4.hgr"
    main(["hmetis", "ghz:4", "--out", str(out)])
    qpus = tmp_path / "qpus"
    assert main(["partition", str(out), "--parts", "2", "--emit", str(qpus)]) == 1
    assert "needs a circuit" in capsys.readouterr().err
    assert not qpus.exists()


def test_cli_emit(tmp_path, capsys):
    d = tmp_path / "qpus"
    assert main(["partition", "ghz:4", "--parts", "2", "--emit", str(d)]) == 0
    capsys.readouterr()
    from qpart import parse_qasm
    files = sorted(p.name for p in d.iterdir())
    assert files == ["ghz4_block0.qasm", "ghz4_block1.qasm"]
    for p in d.iterdir():
        parse_qasm(p.read_text())


def test_cli_bench(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "circuits": ["ghz:6"],
        "methods": ["Random", "FM"],
        "parts": [2],
        "seeds": {"from": 0, "to": 4},
        "restarts": 2,
    }))
    csv_out = tmp_path / "rows.csv"
    assert main(["bench", "--suite", str(suite), "--out", str(csv_out)]) == 0
    out = capsys.readouterr().out
    assert "ghz6 k=2" in out
    lines = csv_out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 6                       # 4 random + 1 fm + header


def test_cli_bench_stdout(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "circuits": ["ghz:4"],
        "methods": ["FM"],
        "seeds": {"from": 0, "to": 2},
        "restarts": 1,
    }))
    assert main(["bench", "--suite", str(suite)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("circuit,n,size")
    assert "ghz4 k=2" in captured.err


@pytest.mark.parametrize("argv", [
    ["partition", "--parts", "2", "no/such.qasm"],
    ["partition", "--parts", "2", "no/such.hmetis"],
    ["stats", "no/such.qasm"],
    ["bench", "--suite", "no/such.json"],
])
def test_cli_missing_input_file_exits1_naming_it(argv, capsys):
    # every input file, circuit, hypergraph or suite, is refused by one message
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: no such file: {argv[-1]}\n"


def test_cli_bench_strict_missing(tmp_path, capsys):
    # a missing circuit file exits 1 with one error line and writes no CSV
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"circuits": ["ghz:4", "gone.qasm"], "methods": ["FM"],
                                 "seeds": {"from": 0, "to": 2}}))
    out = tmp_path / "rows.csv"
    assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "gone.qasm" in err
    assert not out.exists()


@pytest.mark.parametrize("spec, names", [
    ({}, "'circuits'"),
    ([1], "JSON object"),
    ({"circuits": ["ghz:4"], "parts": 2}, "'parts'"),
    ({"circuits": ["ghz:4"], "parts": [0]}, "parts [0]"),
    ({"circuits": ["ghz:4"], "capacities": [2]}, "'capacities'"),
    ({"circuits": [{"n": 4}]}, "'family'"),
    ({"circuits": "ghz:4"}, "'circuits'"),
    ({"circuits": [4]}, "'circuits'"),
    ({"circuits": ["ghz:4"], "method": ["FM"]}, "'method'"),
    ({"circuits": ["ghz:4"], "seeds": {"from": 0, "too": 2}}, "'too'"),
    ({"circuits": [{"family": "ghz", "n": 4, "sead": 1}]}, "'sead'"),
    ({"circuits": ["ghz:4"], "epsilon": 0.2}, "'epsilon'"),
    # the FM and FMGrouped rows of a random mode would be random deals labelled FM
    ({"circuits": ["ghz:4"], "mode": "random"}, "'mode'"),
    ({"circuits": ["ghz:4:1:9"]}, "'ghz:4:1:9'"),
    # a profile is checked as partition --capacities checks it, before it is
    # resolved, so a short one is refused whatever it sums to
    ({"circuits": ["ghz:4"], "capacities": [[3]]}, "2 blocks but 1 capacities"),
    ({"circuits": ["ghz:4"], "capacities": [[0, 3]]}, "capacities must be positive"),
    ({"circuits": [{"family": "bogus", "n": 4}]},
     "suite field 'family' must be one of ghz, qft, random, not 'bogus'"),
    ({"circuits": ["ghz:4"], "mode": "fast"},
     "suite field 'mode' must be one of fm, kway, random, not 'fast'"),
], ids=["empty", "array", "parts", "parts-zero", "capacities", "no-family", "circuits-string",
        "circuit-number", "unknown-key", "unknown-seeds-key", "unknown-circuit-key",
        "epsilon", "mode-random", "shorthand-extra-field", "capacities-short",
        "capacities-zero", "family-unknown", "mode-unknown"])
def test_cli_bench_malformed_suite_exit1(tmp_path, capsys, spec, names):
    # a malformed suite is one error line, not a traceback or an empty run
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(spec))
    assert main(["bench", "--suite", str(suite)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and names in line


def test_cli_bench_refuses_unsplittable_gate(tmp_path, capsys):
    # some seed deals the opaque two-qubit gate across both blocks; the
    # batched Random rows must refuse it as the per-seed plan does
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"circuits": [str(TESTS / "op2.qasm")],
                                 "methods": ["Random", "FM"], "parts": [2],
                                 "seeds": {"from": 0, "to": 21}}))
    assert main(["bench", "--suite", str(suite), "--out", str(tmp_path / "rows.csv")]) == 2
    assert capsys.readouterr().err == \
        "error: gate 2 (foo) has operands on blocks [0, 1] and cannot be split\n"
