"""The emitted per-QPU programs, stitched into one circuit, compute the
source circuit: proved by statevector simulation."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from qpart import (Circuit, Gate, GateKind, Mode, PartitionConfig, build_hypergraph,
                   emit_subcircuits, find_groups, generate, partition, plan_distribution)

from conftest import fixture_names, load_fixture
from statevector import check_programs

MODES = [Mode.RECURSIVE_BISECT, Mode.DIRECT_KWAY, Mode.RANDOM]


def plan_for(circuit, k, mode, grouped, seed):
    groups = find_groups(circuit) if grouped else None
    h = build_hypergraph(circuit, groups)
    res = partition(h, PartitionConfig(blocks=k, seed=seed, mode=mode))
    return plan_distribution(circuit, h, list(res.assignment), groups=groups, blocks=k)


def prove(circuit, k, mode, grouped, seed):
    plan = plan_for(circuit, k, mode, grouped, seed)
    check_programs(circuit, plan, emit_subcircuits(circuit, plan))
    return plan


CIRCUITS = [*fixture_names(), "ghz:6", "qft:6", "random:7"]


def load(name):
    if ":" in name:
        family, n = name.split(":")
        return generate(family, int(n), seed=3)
    return load_fixture(name)


@pytest.mark.parametrize("grouped", [False, True], ids=["plain", "grouped"])
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", CIRCUITS)
def test_programs_compute_the_source(name, k, mode, grouped):
    circuit = load(name)
    for seed in range(3):
        prove(circuit, k, mode, grouped, seed)


def test_fallback_channels_are_proved():
    # toffoli_mix_5 splits a CCX's controls from its target: a fallback channel
    circuit = load_fixture("toffoli_mix_5.qasm")
    plan = prove(circuit, 3, Mode.RANDOM, False, 0)
    h = build_hypergraph(circuit)
    assert any(c.carries != h.edges[c.edge].pins[0] for c in plan.channels)


_KINDS = [GateKind.H, GateKind.T, GateKind.RZ, GateKind.CX, GateKind.CZ,
          GateKind.CP, GateKind.CCX, GateKind.CCZ]


@st.composite
def circuits(draw):
    """A layer of h, so every control is in superposition, then a random mix
    of one-, two- and three-qubit gates."""
    n = draw(st.integers(3, 6))
    gates = [Gate(GateKind.H, (q,)) for q in range(n)]
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(_KINDS))
        ops = draw(st.permutations(range(n)))[:kind.n_qubits]
        params = tuple(draw(st.floats(-3.2, 3.2)) for _ in range(kind.n_params))
        gates.append(Gate(kind, tuple(ops), params))
    return Circuit("drawn", [("q", n)], gates)


@settings(max_examples=60, deadline=None)
@given(circuit=circuits(), k=st.sampled_from([2, 3]), mode=st.sampled_from(MODES),
       grouped=st.booleans(), seed=st.integers(0, 2))
def test_generated_programs_compute_the_source(circuit, k, mode, grouped, seed):
    prove(circuit, k, mode, grouped, seed)


def test_swapped_slots_are_caught():
    # qft6 on three QPUs: block 0 reads copies from several ebit slots
    circuit = generate("qft", 6)
    plan = plan_for(circuit, 3, Mode.RECURSIVE_BISECT, True, 0)
    texts = emit_subcircuits(circuit, plan)
    check_programs(circuit, plan, texts)
    caught = 0
    for b, text in enumerate(texts):
        lines = text.splitlines()
        gate_lines = [i for i, line in enumerate(lines)
                      if not line.startswith(("cat_", "qreg", "//"))]
        slots = sorted({s for i in gate_lines for s in re.findall(r"ebit\[(\d+)\]", lines[i])})
        for x, y in zip(slots, slots[1:]):
            swapped = {x: y, y: x}
            broken = list(lines)
            for i in gate_lines:
                broken[i] = re.sub(r"ebit\[(\d+)\]",
                                   lambda m: f"ebit[{swapped.get(m[1], m[1])}]", lines[i])
            with pytest.raises(AssertionError):
                check_programs(circuit, plan, [*texts[:b], "\n".join(broken) + "\n",
                                               *texts[b + 1:]])
            caught += 1
    assert caught >= 2
