"""Move-based refinement: gains, passes, drivers and feasibility."""

import itertools
import math
import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qpart import (Hyperedge, Hypergraph, InfeasibleError, Mode,
                   PartitionConfig, Vertex, build_hypergraph, cut_cost,
                   export_hmetis, find_groups, generate, import_hmetis, partition)
from qpart.fm import (_MAX_PASSES, _dealer, _Engine, _grown, _pass, _shuffles,
                      expected_ebits, random_deals, resolve_capacities)

from conftest import caps_of, deal, engine, fm_pass, load_fixture
from oracle import brute_force_mincut


def chain(n: int) -> Hypergraph:
    return Hypergraph([Vertex() for _ in range(n)],
                      [Hyperedge(pins=(i, i + 1)) for i in range(n - 1)])


def complete(n: int) -> Hypergraph:
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return Hypergraph([Vertex() for _ in range(n)],
                      [Hyperedge(pins=p) for p in edges])


def triangle() -> Hypergraph:
    return complete(3)


# -- config plumbing -------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="at least 2 blocks"):
        PartitionConfig(blocks=1)
    with pytest.raises(ValueError, match="restarts"):
        PartitionConfig(restarts=0)
    with pytest.raises(ValueError, match="capacities"):
        PartitionConfig(blocks=2, capacities=(1, 2, 3))
    with pytest.raises(ValueError, match="positive"):
        PartitionConfig(blocks=2, capacities=(0, 4))


def test_resolve_capacities():
    assert resolve_capacities(None, 10, 2) == [5, 5]
    assert resolve_capacities(None, 10, 4) == [3, 3, 2, 2]
    assert resolve_capacities((6, 4), 10, 2) == [6, 4]
    with pytest.raises(InfeasibleError, match="capacities sum"):
        resolve_capacities((4, 4), 10, 2)


def test_equal_split_gives_every_block_a_unit():
    # more blocks than qubits: the equal split is one a config accepts
    assert resolve_capacities(None, 2, 3) == [1, 1, 1]
    config = PartitionConfig(blocks=3, capacities=resolve_capacities(None, 2, 3))
    assert config.capacities == (1, 1, 1)


# -- gains and a single pass -----------------------------------------------

def test_gain_hand_computed():
    h = chain(4)
    a = [0, 1, 0, 1]                      # every edge cut
    assert gain(h, a, 1, 0) == 2          # heals (0,1) and (1,2)
    assert gain(h, a, 0, 1) == 1          # heals (0,1)
    assert gain(h, a, 3, 0) == 1
    a = [0, 0, 1, 1]
    assert gain(h, a, 2, 0) == 0          # heals (1,2) but cuts (2,3)
    assert gain(h, a, 0, 1) == -1
    with pytest.raises(ValueError, match="already"):
        gain(h, a, 0, 0)


def test_gain_weighted():
    h = Hypergraph([Vertex(), Vertex()], [Hyperedge(pins=(0, 1), weight=5)])
    assert gain(h, [0, 1], 1, 0) == 5


def test_fm_pass_adversarial_split():
    h = chain(4)
    a = [0, 1, 0, 1]
    cfg = PartitionConfig(blocks=2)
    out, improved, eng = fm_pass(h, a, cfg)
    assert improved
    assert a == [0, 1, 0, 1]              # input untouched
    assert cut_cost(h, out, 2).cut_edges == 1
    assert sorted(out.count(b) for b in range(2)) == [2, 2]
    assert eng.passes == 1 and eng.moves > 0 and eng.gain_updates > 0


def test_fm_pass_keeps_balance():
    h = chain(6)
    out, _, _ = fm_pass(h, [0, 1, 0, 1, 0, 1], PartitionConfig(blocks=2))
    assert sorted(out.count(b) for b in range(2)) == [3, 3]


# -- entry points ----------------------------------------------------------

def test_bipartition_ghz10():
    h = build_hypergraph(generate("ghz", 10))
    res = partition(h, PartitionConfig(blocks=2))
    assert res.cut.cut_edges == 1
    assert res.cut.ebits == 2
    assert list(res.loads) == [5, 5]


@pytest.mark.parametrize("n, k, ebits", [(100, 2, 2), (400, 2, 2), (1000, 2, 2), (400, 4, 6)])
def test_ghz_chains_reach_the_optimum(n, k, ebits):
    # a chain is cut once per block boundary; flat FM must not stall above
    h = build_hypergraph(generate("ghz", n))
    assert partition(h, PartitionConfig(blocks=k)).cut.ebits == ebits


def test_bipartition_complete4():
    res = partition(complete(4), PartitionConfig(blocks=2))
    assert res.cut.cut_edges == 4         # best balanced cut of K4


def test_recursive_ghz8_four_blocks():
    h = build_hypergraph(generate("ghz", 8))
    res = partition(h, PartitionConfig(blocks=4))
    assert res.cut.ebits == 6             # chain severed three times
    assert list(res.loads) == [2, 2, 2, 2]


def test_direct_kway_triangle_singletons():
    res = partition(triangle(), PartitionConfig(blocks=3, capacities=(1, 1, 1),
                                                mode=Mode.DIRECT_KWAY))
    assert sorted(res.assignment) == [0, 1, 2]
    assert res.cut.ebits == 6


def test_unbalanced_capacities():
    h = build_hypergraph(generate("ghz", 6))
    res = partition(h, PartitionConfig(blocks=2, capacities=(4, 2)))
    assert res.cut.cut_edges == 1
    loads = [res.assignment.count(b) for b in range(2)]
    assert sorted(loads) == [2, 4]
    assert loads[0] <= 4 and loads[1] <= 2


def test_slack_capacities_keep_blocks_occupied():
    h = build_hypergraph(generate("ghz", 4))
    res = partition(h, PartitionConfig(blocks=2, capacities=(10, 10)))
    assert res.cut.cut_edges == 1
    assert sorted(res.loads) == [2, 2]


def test_mode_dispatch():
    h = build_hypergraph(generate("ghz", 8))
    cfg = PartitionConfig(blocks=4, mode=Mode.RANDOM, restarts=2)
    assert partition(h, cfg).assignment == tuple(deal(h, cfg))
    # two blocks, and direct k-way: the seeded deal, refined by passes
    # until one fails
    for cfg in (PartitionConfig(blocks=2, restarts=1),
                PartitionConfig(blocks=4, mode=Mode.DIRECT_KWAY, restarts=1)):
        a = deal(h, cfg)
        for _ in range(_MAX_PASSES):
            a, improved, _ = fm_pass(h, a, cfg)
            if not improved:
                break
        assert partition(h, cfg).assignment == tuple(a)


def test_determinism():
    h = build_hypergraph(generate("random", 12, seed=2))
    cfg = PartitionConfig(blocks=2, seed=11, restarts=4)
    assert partition(h, cfg).assignment == partition(h, cfg).assignment


def test_seed_recorded():
    h = build_hypergraph(generate("ghz", 8))
    res = partition(h, PartitionConfig(blocks=2, seed=5, restarts=3))
    assert 5 <= res.seed_used < 8


def test_more_blocks_than_vertices():
    with pytest.raises(ValueError):
        partition(chain(3), PartitionConfig(blocks=4))


def test_infeasible_capacities():
    h = build_hypergraph(generate("ghz", 4))
    with pytest.raises(InfeasibleError):
        partition(h, PartitionConfig(blocks=2, capacities=(1, 1)))


def test_grouped_qft4_bisection(qft4):
    h = build_hypergraph(qft4, find_groups(qft4))
    res = partition(h, PartitionConfig(blocks=2))
    assert sorted(res.loads) == [2, 2]
    assert res.cut.ebits == 4


def test_random_partition_balanced():
    h = build_hypergraph(generate("ghz", 10))
    res = partition(h, PartitionConfig(blocks=2, seed=3, restarts=1, mode=Mode.RANDOM))
    assert sorted(res.loads) == [5, 5]
    assert res.cut.cut_edges >= 1


def test_initial_partition_occupies_every_block():
    h = chain(5)
    for seed in range(20):
        cfg = PartitionConfig(blocks=3, capacities=(5, 5, 5), seed=seed, restarts=1)
        a = deal(h, cfg)
        assert set(a) == {0, 1, 2}


def test_gain_updates_counted():
    h = build_hypergraph(generate("ghz", 16))
    res = partition(h, PartitionConfig(blocks=2, restarts=1))
    assert res.gain_updates > 0


# -- properties ------------------------------------------------------------

@st.composite
def small_hypergraphs(draw):
    """4-10 unit vertices and up to 3 weight-0 ones, all at any id and on
    any edges."""
    nq, nz = draw(st.integers(4, 10)), draw(st.integers(0, 3))
    nv = nq + nz
    zero = set(draw(st.permutations(range(nv)))[:nz])
    ne = draw(st.integers(3, 14))
    edges = []
    for i in range(ne):
        arity = draw(st.integers(2, min(4, nv)))
        pins = draw(st.lists(st.integers(0, nv - 1), min_size=arity,
                             max_size=arity, unique=True))
        edges.append(Hyperedge(pins=tuple(pins),
                               weight=draw(st.sampled_from([1, 1, 2, 3]))))
    return Hypergraph([Vertex(weight=0 if v in zero else 1) for v in range(nv)], edges)


# hMETIS fmt 11 with weight-0 vertices 2 and 5, each on two edges: at seed
# 99 with one restart, a rule that moves them after the passes can end FM
# above the random partition of that seed
TWO_FREE = import_hmetis("5 6 11\n1 3 1\n2 5 4 3\n1 2 3 4\n1 6 3\n3 1 6 4 2\n"
                         "1\n0\n1\n1\n0\n1\n")


@st.composite
def slack_recursive_instances(draw):
    family = draw(st.sampled_from(["ghz", "qft", "random"]))
    n = draw(st.integers(6, 24))
    c = generate(family, n, seed=draw(st.integers(0, 9)))
    h = build_hypergraph(c, find_groups(c) if draw(st.booleans()) else None)
    k = draw(st.integers(3, 5))
    caps = draw(st.one_of(st.none(), st.lists(st.integers(1, n), min_size=k, max_size=k)
                          .filter(lambda caps: sum(caps) >= n).map(tuple)))
    return h, PartitionConfig(blocks=k, capacities=caps, restarts=2,
                              seed=draw(st.integers(0, 99)))


@settings(max_examples=60, deadline=None)
@given(slack_recursive_instances())
@example((build_hypergraph(generate("ghz", 4)), PartitionConfig(blocks=3, capacities=(5, 1, 1))))
@example((build_hypergraph(generate("ghz", 4)), PartitionConfig(blocks=3, capacities=(1, 1, 5))))
def test_recursive_bisection_fills_every_qpu_within_capacity(instance):
    # a split side may hold its blocks' capacity sum, but never so much
    # that a block of the other side is left without a qubit
    h, cfg = instance
    res = partition(h, cfg)
    caps = resolve_capacities(cfg.capacities, len(h.vertices), cfg.blocks)
    assert all(0 < load <= cap for load, cap in zip(res.loads, caps)), res.loads


def test_recursive_bisection_side_lighter_than_its_blocks():
    # weights 1, 3, 3 cannot fill QPUs of 7, 1 and 1: the top split leaves
    # the two small QPUs weight 1 between them, and their split still runs
    # on positive side capacities
    h = Hypergraph([Vertex(weight=1), Vertex(weight=3), Vertex(weight=3)],
                   [Hyperedge(pins=(0, 1)), Hyperedge(pins=(1, 2))])
    res = partition(h, PartitionConfig(blocks=3, capacities=(7, 1, 1)))
    assert sorted(res.loads) == [0, 1, 6]


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs(), st.integers(0, 99), st.integers(1, 2), st.sampled_from([2, 3]))
@example(TWO_FREE, 99, 1, 2)
@example(TWO_FREE, 99, 1, 3)
def test_fm_never_worse_than_random(h, seed, restarts, k):
    # restart 0 refines the random deal of the seed, at two blocks and in
    # k-way mode, and a pass keeps only a prefix that lowers the cost
    cfg = PartitionConfig(blocks=k, seed=seed, restarts=restarts,
                          mode=Mode.DIRECT_KWAY if k == 3 else Mode.RECURSIVE_BISECT)
    fm = partition(h, cfg)
    rnd = partition(h, replace(cfg, mode=Mode.RANDOM))
    assert fm.cut.lambda_minus_one <= rnd.cut.lambda_minus_one


@settings(max_examples=25, deadline=None)
@given(small_hypergraphs(), st.integers(0, 99), st.integers(1, 4))
@example(TWO_FREE, 99, 1)
def test_fm_never_beats_oracle(h, seed, restarts):
    cfg = PartitionConfig(blocks=2, seed=seed, restarts=restarts)
    fm = partition(h, cfg)
    best = brute_force_mincut(h, cfg)
    assert fm.cut.lambda_minus_one >= best.lambda_minus_one


@st.composite
def weight0_instances(draw):
    """hMETIS-style graphs of 1-5 unit vertices and 1-3 weight-0 ones at any
    id, k from 2 up to the vertex count (at most the oracle's 4 blocks),
    equal capacities or any of at least one unit each, in either FM mode."""
    nq, nz = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    n = nq + nz
    zero = set(draw(st.permutations(range(n)))[:nz])
    edges = []
    for _ in range(draw(st.integers(0, 8))):
        arity = draw(st.integers(2, min(4, n)))
        pins = draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity, unique=True))
        edges.append(Hyperedge(pins=tuple(pins), weight=draw(st.sampled_from([1, 1, 2, 3]))))
    h = Hypergraph([Vertex(weight=0 if v in zero else 1) for v in range(n)], edges)
    k = draw(st.integers(2, min(n, 4)))
    caps = draw(st.none() | st.tuples(*[st.integers(1, nq + 1)] * k))
    return h, PartitionConfig(blocks=k, capacities=caps, restarts=draw(st.integers(1, 3)),
                              seed=draw(st.integers(0, 99)),
                              mode=draw(st.sampled_from([Mode.RECURSIVE_BISECT,
                                                         Mode.DIRECT_KWAY])))


@settings(max_examples=150, deadline=None)
@given(weight0_instances())
# one unit vertex and two weight-0 ones on a chain, over three QPUs
@example((import_hmetis("2 3 11\n1 1 2\n1 2 3\n1\n0\n0\n"), PartitionConfig(blocks=3)))
@example((import_hmetis("2 3 11\n1 1 2\n1 2 3\n1\n0\n0\n"),
          PartitionConfig(blocks=3, seed=1)))
def test_weight0_vertices_keep_every_qpu_in_use(instance):
    # a vertex of any weight keeps its block in use, so FM fills every QPU
    # within its capacity, and refuses only what the oracle cannot place
    h, cfg = instance
    try:
        res = partition(h, cfg)
    except InfeasibleError:
        with pytest.raises(ValueError, match="capacities sum|no capacity-feasible"):
            brute_force_mincut(h, cfg)
        return
    caps = resolve_capacities(cfg.capacities, sum(v.weight for v in h.vertices), cfg.blocks)
    assert all(load <= cap for load, cap in zip(res.loads, caps)), (res.loads, caps)
    assert set(res.assignment) == set(range(cfg.blocks)), res.assignment


@settings(max_examples=40, deadline=None)
@given(small_hypergraphs(), st.integers(0, 99), st.sampled_from([2, 3]))
def test_partition_invariants(h, seed, k):
    cfg = PartitionConfig(blocks=k, seed=seed, restarts=2,
                          mode=Mode.DIRECT_KWAY if k == 3 else Mode.RECURSIVE_BISECT)
    res = partition(h, cfg)
    caps = resolve_capacities(None, sum(v.weight for v in h.vertices), k)
    loads = [0] * k
    for b, v in zip(res.assignment, h.vertices):
        assert 0 <= b < k
        loads[b] += v.weight
    assert all(load <= cap for load, cap in zip(loads, caps))
    assert all(load >= 1 for load in loads)       # no empty block, ever
    assert res.loads == tuple(loads)
    rep = cut_cost(h, list(res.assignment), k)
    assert (rep.cut_edges, rep.lambda_minus_one, rep.ebits) == \
        (res.cut.cut_edges, res.cut.lambda_minus_one, res.cut.ebits)


# -- the restart cutoff against every restart ------------------------------

def every_restart(h, caps, seeds):
    """``_restart_driver`` without its cutoff: every restart refines its own
    deal (shuffled at even r, grown at odd r) on a fresh engine, and the
    lowest (lambda - 1, balance deviation, r) wins, returned with its
    passes, seed and gain updates.  Each restart is priced with
    ``cut_cost``, not with the engine's own cost, so this checks that too."""
    n, total = sum(v.weight for v in h.vertices), sum(caps)
    best, best_key = None, None
    for r, seed in enumerate(seeds):
        cfg = PartitionConfig(blocks=len(caps), capacities=tuple(caps), seed=seed)
        eng = engine(h, caps, deal(h, cfg, grown=r % 2 == 1))
        while _pass(eng) and eng.passes < _MAX_PASSES:
            pass
        key = (cut_cost(h, eng.assign, len(caps)).lambda_minus_one,
               sum(abs(load - c * n / total) for load, c in zip(eng.load, caps)), r)
        if best_key is None or key < best_key:
            best, best_key = (eng.assign, eng.passes, seed, eng.gain_updates), key
    return best


@st.composite
def restart_instances(draw):
    """Every kind of hypergraph the driver sees, under two blocks, direct
    k-way at k=3 and recursive bisection at k=4, with equal capacities or
    up to two units of slack per block."""
    kind = draw(st.sampled_from(["small", "circuit", "weighted", "edgeless", "disconnected"]))
    if kind == "small":
        h = draw(small_hypergraphs())
    elif kind == "circuit":
        c = generate(draw(st.sampled_from(["ghz", "qft", "random"])), draw(st.integers(6, 24)),
                     seed=draw(st.integers(0, 9)))
        h = build_hypergraph(c, find_groups(c) if draw(st.booleans()) else None)
    elif kind == "weighted":
        # hMETIS fmt 11: vertex weights above 1, so some deals overfill
        h = draw(small_hypergraphs())
        weights = draw(st.lists(st.sampled_from([1, 1, 2, 3]), min_size=len(h.vertices),
                                max_size=len(h.vertices)))
        h = import_hmetis(export_hmetis(Hypergraph(
            [Vertex(weight=w) for w in weights], h.edges)))
    elif kind == "edgeless":  # w_min = 0
        h = Hypergraph([Vertex() for _ in range(draw(st.integers(4, 10)))], [])
    else:  # chains side by side, maybe with idle vertices: pieces > 1
        sizes = draw(st.lists(st.integers(1, 8), min_size=2, max_size=5))
        vertices, edges, start = [], [], 0
        for size in sizes:
            vertices += [Vertex() for _ in range(size)]
            edges += [Hyperedge(pins=(start + i, start + i + 1),
                                weight=draw(st.sampled_from([1, 2])))
                      for i in range(size - 1)]
            start += size
        h = Hypergraph(vertices, edges)
    blocks, mode = draw(st.sampled_from([(2, Mode.RECURSIVE_BISECT), (3, Mode.DIRECT_KWAY),
                                         (4, Mode.RECURSIVE_BISECT)]))
    assume(blocks <= len(h.vertices))
    equal = resolve_capacities(None, sum(v.weight for v in h.vertices), blocks)
    caps = draw(st.none() | st.tuples(*(st.integers(c, c + 2) for c in equal)))
    return h, PartitionConfig(blocks=blocks, mode=mode, capacities=caps,
                              restarts=draw(st.integers(1, 8)), seed=draw(st.integers(0, 99)))


def outcome(h, config):
    try:
        res = partition(h, config)
    except InfeasibleError as ex:
        return str(ex)
    return res.assignment, res.seed_used, res.passes_run, res.gain_updates, res.cut


@settings(max_examples=200, deadline=None)
@given(restart_instances())
@example((build_hypergraph(generate("ghz", 40)), PartitionConfig(blocks=4)))
# restart 0 meets the floor at loads 2 and 4, restart 2 at 3 and 3
@example((build_hypergraph(generate("ghz", 6)), PartitionConfig(blocks=2, capacities=(4, 4))))
@example((Hypergraph([Vertex() for _ in range(6)], []),
          PartitionConfig(blocks=3, mode=Mode.DIRECT_KWAY)))
# qft never meets the floor, so its restarts cross into a second chunk of seeds
@example((build_hypergraph(generate("qft", 8), grouped=True),
          PartitionConfig(blocks=2, restarts=131)))
def test_restart_cutoff_is_exact(instance):
    # stopping at the floor returns what running every restart returns
    h, cfg = instance
    got = outcome(h, cfg)
    with mock.patch("qpart.fm._restart_driver", every_restart):
        assert got == outcome(h, cfg)


def test_restart_cutoff_fires_at_the_floor(monkeypatch):
    # the first deal of a ghz chain reaches 2 ebits, which no later restart
    # can beat; qft never meets the floor, so every restart runs
    resets = []
    reset = _Engine.reset
    monkeypatch.setattr(_Engine, "reset", lambda eng, a: resets.append(1) or reset(eng, a))
    c = generate("ghz", 300)
    res = partition(build_hypergraph(c, find_groups(c)), PartitionConfig(blocks=2, seed=5))
    assert (len(resets), res.seed_used, res.cut.ebits) == (1, 5, 2)
    resets.clear()
    c = generate("qft", 16)
    partition(build_hypergraph(c, find_groups(c)), PartitionConfig(blocks=2, seed=5))
    assert len(resets) == 8


def test_restarts_draw_their_seeds_one_chunk_at_a_time(monkeypatch):
    # restart 0 of a ghz chain meets the floor, so of 10000 restarts only
    # the first chunk of seeds is shuffled
    drawn = []

    def counted(n, seeds):
        for perms in _shuffles(n, seeds):
            drawn.append(len(perms))
            yield perms

    monkeypatch.setattr("qpart.fm._shuffles", counted)
    res = partition(build_hypergraph(generate("ghz", 64)),
                    PartitionConfig(blocks=2, restarts=10_000))
    assert (res.seed_used, res.cut.ebits) == (0, 2)
    assert sum(drawn) <= 128


def test_each_partition_is_priced_once(monkeypatch):
    # the driver ranks restarts by the cost their passes kept, so one
    # partition call prices its result once, however many restarts and
    # splits ran; the random mode prices its deal the same way
    calls, restarts = [], []
    monkeypatch.setattr("qpart.fm.cut_cost", lambda *a: calls.append(1) or cut_cost(*a))
    reset = _Engine.reset  # once per restart
    monkeypatch.setattr(_Engine, "reset", lambda eng, a: restarts.append(1) or reset(eng, a))
    c = generate("qft", 16)
    h = build_hypergraph(c, find_groups(c))
    # qft never meets the floor, so each driver call runs all 8 restarts,
    # over the 3 splits of k=4 bisection
    for blocks, mode, priced, runs in ((2, Mode.RECURSIVE_BISECT, 1, 8),
                                       (4, Mode.RECURSIVE_BISECT, 1, 24),
                                       (4, Mode.DIRECT_KWAY, 1, 8), (4, Mode.RANDOM, 1, 0)):
        calls.clear()
        restarts.clear()
        res = partition(h, PartitionConfig(blocks=blocks, mode=mode, seed=5))
        assert (len(calls), len(restarts)) == (priced, runs)
        assert res.cut == cut_cost(h, list(res.assignment), blocks)


# -- the gain-cache pass against a brute-force rescan ----------------------

def gain(h: Hypergraph, assignment: list[int], vertex: int, target: int) -> int:
    """Change in lambda-minus-one if ``vertex`` moved to ``target`` (positive
    is an improvement)."""
    if assignment[vertex] == target:
        raise ValueError("vertex already lives in the target block")
    g = 0
    for e in h.incidence[vertex]:
        counts: dict[int, int] = {}
        for p in h.edges[e].pins:
            counts[assignment[p]] = counts.get(assignment[p], 0) + 1
        w = h.edges[e].weight
        if counts.get(assignment[vertex], 0) == 1:
            g += w
        if counts.get(target, 0) == 0:
            g -= w
    return g


def _gain_of(eng, v, target):
    """Gain of moving v to target, from the assignment and every edge's pins."""
    src = eng.assign[v]
    g = 0
    for pins, w in zip(eng.pins, eng.ew):
        if v in pins:
            blocks = [eng.assign[p] for p in pins]
            if blocks.count(src) == 1:
                g += w
            if target not in blocks:
                g -= w
    return g


def _cost(eng):
    return sum((len({eng.assign[p] for p in pins}) - 1) * w
               for pins, w in zip(eng.pins, eng.ew))


def _locked_bound(eng, locked):
    """Least cost of any assignment that keeps the locked vertices put."""
    return sum(w * (len({eng.assign[p] for p in pins if locked[p]}) - 1)
               for pins, w in zip(eng.pins, eng.ew) if any(locked[p] for p in pins))


def _spread_bound(eng):
    """Least cost of any assignment whose vertices span at least the blocks
    that hold a vertex now: a connected piece over b blocks cuts at least
    b - 1 times the lightest edge."""
    n = len(eng.vw)
    piece = list(range(n))
    for pins in eng.pins:                 # merge the pieces the edge touches
        merged = {piece[p] for p in pins}
        piece = [min(merged) if x in merged else x for x in piece]
    pieces = len(set(piece))
    spanned = len(set(eng.assign))
    return min(eng.ew, default=0) * (spanned - pieces)


def _move_ok(eng, v, target):
    """The feasibility rule the pass encodes with its masks and heaps."""
    src = eng.assign[v]
    if target == src:
        return False
    # the mover itself may overfill the target by its own weight while the
    # pass explores; prefixes are re-checked against the strict bound
    if eng.load[target] > eng.bounds[target]:
        return False
    return eng.assign.count(src) > 1  # a block keeps a vertex, whatever it weighs


def _rescan_best_target(eng, v):
    best = None
    for t in range(eng.k):
        if not _move_ok(eng, v, t):
            continue
        g = _gain_of(eng, v, t)
        if best is None or g > best[0]:
            best = (g, t)
    return best


def _apply(eng, v, target):
    """Move v to target in the assignment and the loads."""
    src = eng.assign[v]
    eng.assign[v] = target
    eng.load[src] -= eng.vw[v]
    eng.load[target] += eng.vw[v]


def _rescan_pass(eng, cutoff=False):
    """Reference pass: rescans every unlocked vertex x target per move, and
    counts its moves on the engine, as ``_pass`` does.

    With ``cutoff`` it stops, as ``_pass`` does, once the locked vertices
    or the blocks in use force a cost no lower than the best feasible
    prefix; without it it runs until no vertex may move."""
    n = len(eng.vw)
    locked = [False] * n
    start_cost = cur = best_cost = _cost(eng)
    least = _spread_bound(eng)
    best_prefix = 0
    moves = []
    while not cutoff or max(_locked_bound(eng, locked), least) < best_cost:
        chosen = None
        for v in range(n):
            if locked[v]:
                continue
            bt = _rescan_best_target(eng, v)
            if bt is None:
                continue
            key = (bt[0], -v)
            if chosen is None or key > chosen[0]:
                chosen = (key, v, bt[1])
        if chosen is None:
            break
        (g, _), v, target = chosen
        src = eng.assign[v]
        _apply(eng, v, target)
        locked[v] = True
        cur -= g
        moves.append((v, src, target))
        eng.moves += 1
        if eng.overloaded() == 0 and cur < best_cost:
            best_cost = cur
            best_prefix = len(moves)
    for v, src, target in reversed(moves[best_prefix:]):
        _apply(eng, v, src)
    return best_cost < start_cost


@st.composite
def kway_instances(draw):
    """Small hypergraphs with up to 3 weight-0 vertices on any edges, some
    of whose edges may hold only weight-0 pins, k in {2, ..., 5}, equal,
    tight or slack capacities, engine bounds up to half again above them,
    and either a seeded deal or an arbitrary (possibly empty-block,
    overloaded) assignment.  The edges are of 2-4 pins, or all of two pins,
    or all of 3-4 pins, so that the pass meets each edge kind alone and
    both together; a two-pin edge may come twice, with another weight."""
    k = draw(st.sampled_from([2, 3, 4, 5]))
    caps_kind = draw(st.sampled_from(["equal", "tight", "slack"]))
    low, high = draw(st.sampled_from([(2, 4), (2, 2), (3, 4)]))  # pins per edge
    nq = k if caps_kind == "tight" else draw(st.integers(k, 10))
    nz = draw(st.integers(max(0, low - nq), 3))
    vertices = [Vertex() for _ in range(nq)] + [Vertex(weight=0) for _ in range(nz)]
    edges = []
    for _ in range(draw(st.integers(2, 14))):
        arity = draw(st.integers(low, min(high, nq + nz)))
        pins = draw(st.lists(st.integers(0, nq + nz - 1), min_size=arity,
                             max_size=arity, unique=True))
        weight = draw(st.sampled_from([1, 1, 2, 3]))
        edges.append(Hyperedge(pins=tuple(pins), weight=weight))
        if arity == 2 and draw(st.booleans()):  # a parallel edge
            edges.append(Hyperedge(pins=tuple(reversed(pins)), weight=weight % 3 + 1))
    h = Hypergraph(vertices, edges)
    caps = {"equal": None, "tight": (1,) * k,
            "slack": tuple(draw(st.integers(nq, nq + 3)) for _ in range(k))}[caps_kind]
    cfg = PartitionConfig(blocks=k, capacities=caps, seed=draw(st.integers(0, 99)))
    if draw(st.booleans()):
        assignment = deal(h, cfg)
    else:
        assignment = draw(st.lists(st.integers(0, k - 1), min_size=len(vertices),
                                   max_size=len(vertices)))
    # the engine's bounds may sit above the capacities the deal followed
    slack = draw(st.sampled_from([0.0, 0.2, 0.5]))
    bounds = [math.ceil((1 + slack) * c) for c in resolve_capacities(caps, nq, k)]
    return h, bounds, assignment


@settings(max_examples=200, deadline=None)
@given(kway_instances())
def test_kway_gain_cache_matches_rescan(instance):
    # the full reference fixes the result of every pass; the reference
    # with the cutoff also fixes how many moves the pass makes
    h, bounds, assignment = instance
    cached, full, bounded = (engine(h, bounds, list(assignment)) for _ in range(3))
    for _ in range(4):
        improved = _pass(cached)
        assert cached.cost == cut_cost(h, cached.assign, len(bounds)).lambda_minus_one
        assert improved == _rescan_pass(full)
        assert cached.assign == full.assign
        # the moves and the rollback leave every per-block tally exact
        fresh = engine(h, bounds, list(cached.assign))
        assert (cached.load, cached.count, cached.xor) == (fresh.load, fresh.count, fresh.xor)
        assert improved == _rescan_pass(bounded, cutoff=True)
        assert cached.moves == bounded.moves
        if not improved:
            break


def test_converged_pass_stops_at_the_cutoff():
    # a connected chain over two occupied blocks costs at least 1, so a
    # pass from a chain split once cannot improve and stops early
    h = build_hypergraph(generate("ghz", 100))
    cfg = PartitionConfig(blocks=2)
    assignment = list(partition(h, cfg).assignment)
    assert cut_cost(h, assignment, 2).lambda_minus_one == 1
    out, improved, eng = fm_pass(h, assignment, cfg)
    assert not improved
    assert out == assignment
    assert eng.moves < len(h.vertices)


def test_pass_at_zero_cost_makes_no_moves():
    h = Hypergraph([Vertex() for _ in range(4)], [Hyperedge(pins=(0, 1)), Hyperedge(pins=(2, 3))])
    out, improved, eng = fm_pass(h, [0, 0, 1, 1], PartitionConfig(blocks=2))
    assert not improved and out == [0, 0, 1, 1]
    assert eng.moves == 0


def test_kway_gain_updates_scale_linearly():
    pins, updates = [], []
    for n in (16, 32, 64, 128):
        h = build_hypergraph(generate("ghz", n))
        cfg = PartitionConfig(blocks=4, seed=1, mode=Mode.DIRECT_KWAY)
        _, _, eng = fm_pass(h, deal(h, cfg), cfg)
        pins.append(sum(len(e.pins) for e in h.edges))
        updates.append(eng.gain_updates)
    slope, _ = np.polyfit(np.log(pins), np.log(updates), 1)
    assert abs(slope - 1.0) <= 0.15, (slope, pins, updates)


# -- the deal ----------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.integers(0, 5), min_size=k, max_size=9),
    st.lists(st.integers(1, 12), min_size=k, max_size=k), st.integers(0, 10_000))))
def test_deal_hands_out_heaviest_first(instance):
    # the shuffle, heaviest first, then block pos % k for a weight-0 vertex
    # and block pos for the first k positions when the vertex fits there,
    # and the roomiest block otherwise
    k, weights, caps, seed = instance
    assume(sum(caps) >= sum(weights))
    h = Hypergraph([Vertex(weight=w) for w in weights], [])
    order = list(range(len(weights)))
    random.Random(seed).shuffle(order)
    order.sort(key=lambda v: -weights[v])
    remaining, want = list(caps), [0] * len(weights)
    for pos, v in enumerate(order):
        fits = weights[v] == 0 or pos < k and remaining[pos] >= weights[v]
        want[v] = pos % k if fits else max(range(k), key=lambda b: (remaining[b], -b))
        remaining[want[v]] -= weights[v]
    assert deal(h, PartitionConfig(blocks=k, capacities=tuple(caps), seed=seed)) == want


@pytest.mark.parametrize("k", [2, 3])
def test_deal_spreads_weight0_vertices(k):
    # once the unit vertices fill the capacities, each weight-0 vertex still
    # lands in more than one block over seeds 0-199
    perms = np.concatenate([*_shuffles(len(TWO_FREE.vertices), range(200))])
    blocks = _dealer(TWO_FREE, caps_of(TWO_FREE, PartitionConfig(blocks=k)))(perms)
    for v in (1, 4):  # vertices 2 and 5 of the file
        assert len(set(blocks[:, v].tolist())) > 1, (v, k)


@st.composite
def grown_instances(draw):
    """Vertices in several pieces, some isolated, some with no edge at all,
    unit or hMETIS weights with weight-0 vertices at any id, and k in
    {2, 3, 4} under equal or slack capacities."""
    k = draw(st.integers(2, 4))
    nq = draw(st.integers(k, 12))
    nz = draw(st.integers(0, 3))
    weights = [1] * nq if draw(st.booleans()) else \
        draw(st.lists(st.sampled_from([1, 1, 2, 3]), min_size=nq, max_size=nq))
    ids = draw(st.permutations(range(nq + nz)))  # vertex ids of the qubits, then weight-0
    vertices = [None] * (nq + nz)
    for q, w in zip(ids, weights):
        vertices[q] = Vertex(weight=w)
    for z in ids[nq:]:
        vertices[z] = Vertex(weight=0)
    piece = draw(st.lists(st.integers(0, 3), min_size=nq + nz, max_size=nq + nz))
    edges = []
    for _ in range(draw(st.integers(0, 10))):
        p = draw(st.integers(0, 3))
        members = [v for v in range(nq + nz) if piece[v] == p]
        if len(members) >= 2:
            pins = draw(st.lists(st.sampled_from(members), min_size=2,
                                 max_size=min(4, len(members)), unique=True))
            edges.append(Hyperedge(pins=tuple(pins)))
    total = sum(weights)
    caps = draw(st.none() | st.just(tuple(math.ceil(1.3 * total / k) for _ in range(k))))
    return Hypergraph(vertices, edges), PartitionConfig(blocks=k, capacities=caps)


@settings(max_examples=100, deadline=None)
@given(grown_instances())
def test_grown_deal_keeps_the_shuffled_loads(instance):
    # the grown order of each seed 0-20 is a breadth-first permutation of the
    # vertices, and its deal fills every block with that seed's shuffled
    # load, in one run per block within each weight
    h, cfg = instance
    n = len(h.vertices)
    (perms,) = _shuffles(n, range(21))
    grown = _grown(h, perms)
    caps = caps_of(h, cfg)
    shuffled, dealt = _dealer(h, caps)(perms), _dealer(h, caps, runs=True)(grown)
    pieces = list(range(n))  # union-find over the edges' pins

    def root(v):
        while pieces[v] != v:
            v = pieces[v]
        return v

    for e in h.edges:
        for p in e.pins[1:]:
            pieces[root(p)] = root(e.pins[0])
    for order, perm, a, b in zip(grown.tolist(), perms.tolist(), shuffled, dealt):
        assert sorted(order) == list(range(n))
        assert order[0] == perm[0]
        loads = [[0] * cfg.blocks for _ in range(2)]
        for v, vx in enumerate(h.vertices):
            loads[0][a[v]] += vx.weight
            loads[1][b[v]] += vx.weight
        assert loads[0] == loads[1]
        # a vertex that opens no piece shares an edge with an earlier one
        seen = set()
        for v in order:
            if root(v) in {root(u) for u in seen}:
                assert any(u in seen for e in h.incidence[v] for u in h.edges[e].pins)
            seen.add(v)
        for w in {vx.weight for vx in h.vertices}:
            blocks = [int(b[v]) for v in order if h.vertices[v].weight == w]
            assert blocks == sorted(blocks)


# -- the vectorised random baseline against one random partition per seed --

@st.composite
def baseline_instances(draw):
    """Small hypergraphs with up to 3 weight-0 vertices with any id on any
    edges, some of which may hold only weight-0 pins, sometimes after an
    hMETIS round-trip, k in {2, ..., 5}, equal, tight, slack or exhausted
    capacities, and seed counts on both sides of the chunk edge."""
    k = draw(st.integers(2, 5))
    nq = draw(st.integers(k, 10))
    nz = draw(st.integers(0, 3))
    n = nq + nz
    order = draw(st.permutations(range(n)))   # weight-0 vertices get any id
    zero_ids = set(order[nq:])
    vertices = [Vertex(weight=0 if i in zero_ids else 1) for i in range(n)]
    edges = []
    for _ in range(draw(st.integers(0, 12))):
        arity = draw(st.integers(2, min(4, n)))
        pins = draw(st.lists(st.integers(0, n - 1), min_size=arity,
                             max_size=arity, unique=True))
        edges.append(Hyperedge(pins=tuple(pins),
                               weight=draw(st.sampled_from([1, 1, 2, 3]))))
    if draw(st.sampled_from([False, False, False, True])):
        edges = []
    h = Hypergraph(vertices, edges)
    if draw(st.booleans()):
        h = import_hmetis(export_hmetis(h))
    caps_kind = draw(st.sampled_from(["equal", "tight", "slack", "exhausted"]))
    if caps_kind == "equal":
        caps = None
    elif caps_kind == "tight":
        cuts = sorted(draw(st.lists(st.integers(1, nq - 1), min_size=k - 1,
                                    max_size=k - 1, unique=True)))
        caps = tuple(b - a for a, b in zip([0, *cuts], [*cuts, nq]))
    elif caps_kind == "slack":
        caps = tuple(draw(st.integers(nq // k + 1, nq + 3)) for _ in range(k))
    else:
        caps = tuple(draw(st.integers(1, max(1, (nq - 1) // k))) for _ in range(k))
    cfg = PartitionConfig(blocks=k, capacities=caps, seed=draw(st.integers(0, 10_000)))
    count = draw(st.sampled_from([1, 127, 128, 129, 300]))
    return h, cfg, range(cfg.seed, cfg.seed + count)


def random_rows(h, cfg, seeds):
    """(assignment, cut edges, ebits) of ``random_deals`` for each seed."""
    return [(tuple(row), cut, ebits)
            for assign, cuts, ebits_col in random_deals(
                h, cfg, _shuffles(len(h.vertices), seeds))
            for row, cut, ebits in zip(assign.tolist(), cuts.tolist(), ebits_col.tolist())]


@settings(max_examples=100, deadline=None)
@given(baseline_instances())
def test_random_baseline_matches_random_partition(instance):
    h, cfg, seeds = instance

    def one(seed):
        result = partition(h, PartitionConfig(blocks=cfg.blocks, capacities=cfg.capacities,
                                              restarts=1, seed=seed, mode=Mode.RANDOM))
        # partition prices its deal with cut_cost, as it prices every mode
        assert result.cut == cut_cost(h, list(result.assignment), cfg.blocks)
        return result.assignment, result.cut.cut_edges, result.cut.ebits

    try:
        want = [one(seed) for seed in seeds]
    except InfeasibleError as ex:
        with pytest.raises(InfeasibleError, match=re.escape(str(ex))):
            random_rows(h, cfg, seeds)
        return
    got = random_rows(h, cfg, seeds)
    assert got == want
    if not h.edges:
        assert [ebits for *_, ebits in got] == [0] * len(seeds)


def test_random_baseline_memory_flat_in_seed_count():
    c = generate("random", 24)
    h = build_hypergraph(c, find_groups(c))
    cfg = PartitionConfig(blocks=4)

    def mean_ebits(count):
        deals = random_deals(h, cfg, _shuffles(len(h.vertices), range(count)))
        return sum(int(ebits.sum()) for *_, ebits in deals) / count

    mean_ebits(10)
    peaks = {}
    tracemalloc.start()
    try:
        for count in (1000, 4000):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            mean_ebits(count)
            peaks[count] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peaks[4000] <= 1.5 * peaks[1000], peaks


# -- the exact random baseline against every deal and against sampling ----

def arrangements(counts: list[int]):
    """Every distinct sequence holding counts[b] copies of each b."""
    if not any(counts):
        yield ()
        return
    for b, c in enumerate(counts):
        if c:
            counts[b] -= 1
            for rest in arrangements(counts):
                yield (b, *rest)
            counts[b] += 1


def every_deal_mean(h: Hypergraph, cfg: PartitionConfig) -> Fraction:
    """The exact mean ebits of ``random_deals`` over all n! shuffles of the
    n vertices.  Every shuffle gives each weight class the blocks of the
    seed-0 deal, c_wb of them in block b, so each distinct deal comes from
    the product of c_wb! over classes and blocks shuffles, and the mean over
    the distinct deals, priced with ``cut_cost``, is the mean over every
    shuffle."""
    first = deal(h, cfg)
    classes = {}  # weight -> its vertices, and their blocks per block
    for v, vx in enumerate(h.vertices):
        vs, counts = classes.setdefault(vx.weight, ([], [0] * cfg.blocks))
        vs.append(v)
        counts[first[v]] += 1
    total = count = 0
    for blocks in itertools.product(*(list(arrangements(counts))
                                      for _, counts in classes.values())):
        assignment = [0] * len(h.vertices)
        for (vs, _), bs in zip(classes.values(), blocks):
            for v, b in zip(vs, bs):
                assignment[v] = b
        total += cut_cost(h, assignment, cfg.blocks).ebits
        count += 1
    return Fraction(total, count)


def weighted_instance(seed: int) -> tuple[Hypergraph, PartitionConfig]:
    """A seeded small hypergraph: at most 7 vertices of weight 1-3,
    up to 3 weight-0 vertices with any id, edges of 2-4 pins and weight
    1-3, k in {2, 3} and slack capacities."""
    rng = random.Random(seed)
    nq, nz = rng.randint(2, 7), rng.randint(0, 3)
    n = nq + nz
    zero = set(rng.sample(range(n), nz))
    vertices = [Vertex(weight=0 if i in zero else rng.randint(1, 3)) for i in range(n)]
    edges = [Hyperedge(pins=tuple(rng.sample(range(n), rng.randint(2, min(4, n)))),
                       weight=rng.randint(1, 3))
             for _ in range(rng.randint(1, 8))]
    k = rng.randint(2, 3)
    total = sum(v.weight for v in vertices)
    caps = tuple(math.ceil(1.2 * total / k) + rng.randint(0, 2) for _ in range(k))
    return Hypergraph(vertices, edges), PartitionConfig(blocks=k, capacities=caps)


def _q(i, w=1):  # i is the vertex's position, for the reader
    return Vertex(weight=w)


def _z(i):
    return Vertex(weight=0)


# each names a shape of weight-0 vertices and edges; weight 0 is one more
# weight class of the deal
WEIGHT0_CASES = {
    # a weight-0 vertex on one edge with unit and weight-2 pins
    "anchored to a qubit": Hypergraph(
        [_q(0), _q(1, 2), _q(2), _q(3), _z(4)],
        [Hyperedge(pins=(4, 1, 2, 3)), Hyperedge(pins=(0, 1)),
         Hyperedge(pins=(2, 3), weight=2)]),
    # an edge of two weight-0 pins, one of which lies on a second edge
    "anchored to a later weight-0 vertex": Hypergraph(
        [_q(0), _z(1), _q(2, 2), _q(3), _z(4), _q(5)],
        [Hyperedge(pins=(1, 4)), Hyperedge(pins=(4, 0, 5)),
         Hyperedge(pins=(2, 3)), Hyperedge(pins=(3, 5))]),
    # two weight-0 vertices, one on two edges, one on an edge of three pins
    "anchored to nothing": Hypergraph(
        [_q(0, 3), _q(1), _z(2), _q(3), _q(4, 2), _z(5)],
        [Hyperedge(pins=(2, 1)), Hyperedge(pins=(2, 3, 4)), Hyperedge(pins=(5, 4, 1))]),
    # vertex 0 is weight-0, and both weight-0 vertices lie on two edges
    "vertex 0 is weight-0": Hypergraph(
        [_z(0), _q(1), _q(2, 2), _z(3), _q(4), _q(5, 3)],
        [Hyperedge(pins=(0, 1, 2)), Hyperedge(pins=(0, 4)), Hyperedge(pins=(3, 5)),
         Hyperedge(pins=(3, 1, 2))]),
    # a weight-0 vertex on two edges, one of them heavy
    "weight-0 vertex on two edges": Hypergraph(
        [_q(0), _q(1), _z(2), _q(3, 2), _q(4), _q(5)],
        [Hyperedge(pins=(2, 0, 1)), Hyperedge(pins=(2, 4, 5), weight=3),
         Hyperedge(pins=(3, 4))]),
    # an edge of only weight-0 pins, each of which lies on one more edge
    "only source is block 0": Hypergraph(
        [_z(0), _q(1), _z(2), _q(3), _q(4), _q(5, 2)],
        [Hyperedge(pins=(0, 2)), Hyperedge(pins=(0, 1, 3)), Hyperedge(pins=(2, 4, 5)),
         Hyperedge(pins=(1, 5))]),
}


@pytest.mark.parametrize("name", sorted(WEIGHT0_CASES))
@pytest.mark.parametrize("k", [2, 3])
def test_expected_ebits_weight0_rules(name, k):
    h = WEIGHT0_CASES[name]
    total = sum(v.weight for v in h.vertices)
    cfg = PartitionConfig(blocks=k, capacities=(math.ceil(1.2 * total / k),) * k)
    assert expected_ebits(h, cfg) == float(every_deal_mean(h, cfg))


@pytest.mark.parametrize("seed", range(60))
def test_expected_ebits_is_the_mean_over_every_deal(seed):
    h, cfg = weighted_instance(seed)
    assert expected_ebits(h, cfg) == float(every_deal_mean(h, cfg))


def test_expected_ebits_refuses_what_the_deal_refuses():
    with pytest.raises(InfeasibleError, match="capacities sum"):
        expected_ebits(chain(5), PartitionConfig(blocks=2, capacities=(2, 2)))


@pytest.mark.parametrize("c", [generate("qft", 6), generate("random", 8, 1),
                               load_fixture("toffoli_mix_5.qasm")], ids=lambda c: c.name)
def test_expected_ebits_within_sampling_error(c):
    draw = list(_shuffles(c.width, range(20_000)))
    for h in (build_hypergraph(c), build_hypergraph(c, find_groups(c))):
        for k in (2, 3, 4):
            cfg = PartitionConfig(blocks=k)
            ebits = np.concatenate([col for *_, col in random_deals(h, cfg, draw)])
            se = ebits.std(ddof=1) / math.sqrt(len(ebits))
            assert abs(expected_ebits(h, cfg) - ebits.mean()) <= 4 * se, (c.name, k)
