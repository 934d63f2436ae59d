"""Acceptance gate: nine end-to-end checks, each with an explicit tolerance.

Each test prints one PASS/FAIL line with its measured figures (visible
with ``pytest -sv``; pytest's own -v line mirrors the verdict).
"""

import random
import time

import numpy as np

from qpart import (Mode, PartitionConfig, build_hypergraph, emit_qasm,
                   find_groups, generate, parse_qasm, partition, plan_distribution)
from qpart.bench import CircuitJob, SuiteSpec, run_suite
from qpart.bench import _draw
from qpart.fm import _Engine, random_deals, resolve_capacities

from conftest import deal, fixture_names, fm_pass, load_fixture
from oracle import brute_force_mincut
from statevector import equivalent, simulate


def report(name: str, passed: bool, detail: str) -> str:
    line = f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
    print(line)
    return line


def random_mean_ebits(h, blocks: int, seeds: int) -> float:
    draw = _draw(len(h.vertices), range(seeds))
    deals = random_deals(h, PartitionConfig(blocks=blocks), draw)
    return sum(int(ebits.sum()) for *_, ebits in deals) / seeds


def test_criterion_1_grouped_fm_halves_random_baseline():
    t0 = time.perf_counter()
    ratios = {}
    for n in (8, 16):
        c = generate("qft", n)
        grouped = build_hypergraph(c, find_groups(c))
        fm = partition(grouped, PartitionConfig(blocks=2)).cut.ebits
        base = random_mean_ebits(build_hypergraph(c), 2, 1000)
        ratios[n] = fm / base
    elapsed = time.perf_counter() - t0
    ok = all(r <= 0.5 for r in ratios.values()) and elapsed < 5.0
    detail = (f"qft8 ratio {ratios[8]:.3f}, qft16 ratio {ratios[16]:.3f} "
              f"(bound 0.5), {elapsed:.2f}s (bound 5s)")
    line = report("grouped FM vs random baseline", ok, detail)
    assert ok, line


def test_criterion_2_fm_improvement_on_chains():
    t0 = time.perf_counter()
    imps = {}
    for n in (10, 50, 100):
        h = build_hypergraph(generate("ghz", n))
        fm = partition(h, PartitionConfig(blocks=2)).cut.ebits
        base = random_mean_ebits(h, 2, 1000)
        imps[n] = 100.0 * (base - fm) / base
    elapsed = time.perf_counter() - t0
    ok = all(v >= 46.0 for v in imps.values()) and elapsed < 2.0
    detail = (" ".join(f"ghz{n}={imps[n]:.1f}%" for n in (10, 50, 100))
              + f" (bound 46%), {elapsed:.2f}s (bound 2s)")
    line = report("FM improvement over random", ok, detail)
    assert ok, line


def test_criterion_3_fm_matches_brute_force():
    t0 = time.perf_counter()
    for n in range(4, 13):
        h = build_hypergraph(generate("ghz", n))
        cfg = PartitionConfig(blocks=2, restarts=16)
        fm = partition(h, cfg).cut.lambda_minus_one
        best = brute_force_mincut(h, cfg).lambda_minus_one
        assert fm == best == 1, f"ghz{n}: fm {fm} vs oracle {best}"

    from qpart import Hyperedge, Hypergraph, Vertex
    rng = random.Random(7)
    equal = worse = better = 0
    for trial in range(200):
        nv = rng.randint(4, 12)
        ne = rng.randint(3, 20)
        edges = []
        for i in range(ne):
            arity = rng.randint(2, min(4, nv))
            pins = tuple(rng.sample(range(nv), arity))
            edges.append(Hyperedge(pins=pins, weight=rng.choice([1, 1, 1, 2, 3])))
        h = Hypergraph([Vertex() for _ in range(nv)], edges)
        k = rng.choice([2, 2, 2, 3])
        cfg = PartitionConfig(blocks=k, restarts=16, seed=trial,
                              mode=Mode.DIRECT_KWAY if k == 3 else Mode.RECURSIVE_BISECT)
        fm = partition(h, cfg).cut.lambda_minus_one
        best = brute_force_mincut(h, cfg).lambda_minus_one
        if fm == best:
            equal += 1
        elif fm > best:
            worse += 1
        else:
            better += 1
    elapsed = time.perf_counter() - t0
    ok = equal >= 160 and better == 0 and elapsed < 60.0
    detail = (f"chains 4..12 all optimal; sweep equal={equal}/200 "
              f"worse={worse} better={better} (bounds: >=160 equal, 0 better), "
              f"{elapsed:.2f}s (bound 60s)")
    line = report("FM vs brute force", ok, detail)
    assert ok, line


def test_criterion_4_grouping_never_hurts():
    pairs = {}
    for name in fixture_names():
        c = load_fixture(name)
        flat = partition(build_hypergraph(c), PartitionConfig(blocks=2)).cut.ebits
        grouped = partition(build_hypergraph(c, find_groups(c)),
                            PartitionConfig(blocks=2)).cut.ebits
        pairs[name] = (grouped, flat)
    qft4 = generate("qft", 4)
    g4 = partition(build_hypergraph(qft4, find_groups(qft4)),
                   PartitionConfig(blocks=2)).cut.ebits
    f4 = partition(build_hypergraph(qft4), PartitionConfig(blocks=2)).cut.ebits
    ok = all(g <= f for g, f in pairs.values()) and (g4, f4) == (4, 8)
    detail = ("; ".join(f"{n.removesuffix('.qasm')} {g}<={f}"
                        for n, (g, f) in pairs.items())
              + f"; qft4 exact ({g4}, {f4}) == (4, 8)")
    line = report("grouped ebits never exceed ungrouped", ok, detail)
    assert ok, line


def _plan_invariants(plan, row, k: int, caps) -> None:
    assert sum(b.o for b in plan.per_block) == row.size, row
    assert sum(b.e for b in plan.per_block) == 2 * plan.cut.lambda_minus_one, row
    assert all(b.data <= cap for b, cap in zip(plan.per_block, caps)), row
    assert sum(1 for b in plan.per_block if b.data > 0) == k, row


def _rows_with_plans(spec):
    """Each suite row with the plan that ``partition`` and
    ``plan_distribution`` give for the row's seed and mode."""
    rows, _ = run_suite(spec)
    graphs = {}
    for row in rows:
        key = (row.circuit, row.method == "FMGrouped")
        if key not in graphs:
            (job,) = [j for j in spec.circuits if j.label == row.circuit]
            c = job.load()
            graphs[key] = c, build_hypergraph(c, grouped=key[1])
        c, h = graphs[key]
        caps = spec.capacities[spec.parts.index(row.k)] if spec.capacities else None
        mode, restarts = ((Mode.RANDOM, 1) if row.method == "Random"
                          else (spec.mode, spec.restarts))
        result = partition(h, PartitionConfig(blocks=row.k, capacities=caps,
                                              restarts=restarts, seed=row.seed, mode=mode))
        assert (result.cut.cut_edges, result.cut.ebits) == (row.cut_edges, row.ebits), row
        yield row, plan_distribution(c, h, list(result.assignment))


def test_criterion_5_accounting_identities():
    checked = 0
    spec = SuiteSpec(circuits=tuple(CircuitJob.parse(s) for s in
                                    ("ghz:10", "qft:8", "random:10:1")),
                     parts=(2,), seed_from=0, seed_to=20, restarts=4)
    for row, plan in _rows_with_plans(spec):
        _plan_invariants(plan, row, 2, row.capacities)
        checked += 1

    spec3 = SuiteSpec(circuits=(CircuitJob.parse("qft:8"),), parts=(3,),
                      seed_from=0, seed_to=10, restarts=4, mode=Mode.DIRECT_KWAY)
    for row, plan in _rows_with_plans(spec3):
        _plan_invariants(plan, row, 3, row.capacities)
        checked += 1

    spec_uneven = SuiteSpec(circuits=(CircuitJob.parse("ghz:6"),), parts=(2,),
                            capacities=((5, 3),), seed_from=0, seed_to=10, restarts=4)
    for row, plan in _rows_with_plans(spec_uneven):
        _plan_invariants(plan, row, 2, (5, 3))
        checked += 1

    spec4 = SuiteSpec(circuits=(CircuitJob.parse("ghz:8"),), parts=(4,),
                      seed_from=0, seed_to=10, restarts=4)
    for row, plan in _rows_with_plans(spec4):
        _plan_invariants(plan, row, 4, row.capacities)
        checked += 1

    line = report("accounting identities", True,
                  f"sum o = size, sum e = 2*(lambda-1), loads within bounds, "
                  f"all k blocks occupied on {checked} runs")
    assert checked > 100, line


def test_criterion_6_random_baseline_calibration():
    h = build_hypergraph(generate("ghz", 10))
    total = 0
    for seed in range(10_000):
        cfg = PartitionConfig(blocks=2, seed=seed, restarts=1, mode=Mode.RANDOM)
        total += partition(h, cfg).cut.cut_edges
    mean = total / 10_000
    ok = abs(mean - 5.0) <= 0.3
    line = report("random baseline calibration", ok,
                  f"ghz10 mean cut {mean:.4f} over 10000 seeds (bound 5.0 +/- 0.3)")
    assert ok, line


def test_criterion_7_roundtrip_fidelity():
    worst = 1.0
    for name in fixture_names():
        c = load_fixture(name)
        again = parse_qasm(emit_qasm(c), name=c.name)
        a, b = simulate(c), simulate(again)
        overlap = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        worst = min(worst, overlap)
        assert equivalent(a, b, tol=1e-9), name
    ok = worst >= 1.0 - 1e-9
    line = report("emission fidelity", ok,
                  f"worst overlap {worst:.12f} across {len(fixture_names())} "
                  f"fixtures (bound 1-1e-9)")
    assert ok, line


def test_criterion_8_gain_updates_scale_linearly():
    pins, updates = [], []
    for n in (16, 32, 64, 128):
        h = build_hypergraph(generate("ghz", n))
        cfg = PartitionConfig(blocks=2, seed=1)
        a = deal(h, cfg)
        _, _, eng = fm_pass(h, a, cfg)
        pins.append(sum(len(e.pins) for e in h.edges))
        updates.append(eng.gain_updates)
    slope, intercept = np.polyfit(np.log(pins), np.log(updates), 1)
    fit = slope * np.log(pins) + intercept
    resid = np.log(updates) - fit
    r2 = 1.0 - resid.var() / np.log(updates).var()

    h = build_hypergraph(generate("ghz", 100))
    t0 = time.perf_counter()
    res = partition(h, PartitionConfig(blocks=2))
    elapsed = time.perf_counter() - t0

    ok = abs(slope - 1.0) <= 0.15 and r2 >= 0.95 and elapsed < 1.0
    line = report("linear gain updates", ok,
                  f"log-log slope {slope:.3f} (bound 1.0 +/- 0.15), "
                  f"R^2 {r2:.4f} (bound 0.95), pins {pins} -> updates {updates}; "
                  f"ghz100 partition {elapsed * 1000:.0f}ms (bound 1s), "
                  f"cut {res.cut.cut_edges}")
    assert ok, line


def test_criterion_9_grouped_qft_meets_the_capacity_floor():
    # every assignment within equal capacities costs at least the capacity
    # floor, so where FM's lambda - 1 equals it, FM is optimal
    got, floors = {}, {}
    for n in (16, 32, 64):
        h = build_hypergraph(generate("qft", n), grouped=True)
        for k in (2, 4):
            got[n, k] = partition(h, PartitionConfig(blocks=k)).cut.lambda_minus_one
            floors[n, k] = _Engine(h, resolve_capacities(None, n, k)).floor
    expected = {(16, 2): 8, (32, 2): 16, (64, 2): 32, (16, 4): 24, (32, 4): 48, (64, 4): 96}
    ok = got == floors == expected
    line = report("grouped qft at the capacity floor", ok,
                  ", ".join(f"qft{n} k={k} lambda-1 {got[n, k]} floor {floors[n, k]}"
                            for n, k in sorted(got, key=lambda nk: (nk[1], nk[0]))))
    assert ok, line
