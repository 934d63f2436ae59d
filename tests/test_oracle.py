"""The tests' statevector simulator and the exhaustive min-cut reference."""

import math

import numpy as np
import pytest

from qpart import (Circuit, GateKind, Hyperedge, Hypergraph, InfeasibleError,
                   PartitionConfig, Vertex, cut_cost, generate, parse_qasm)

from oracle import brute_force_mincut
from statevector import equivalent, simulate

INV_SQRT2 = 1 / math.sqrt(2)


# -- simulator -------------------------------------------------------------

def test_ghz2_state():
    state = simulate(generate("ghz", 2))
    np.testing.assert_allclose(state, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-12)


def test_ghz4_state():
    state = simulate(generate("ghz", 4))
    expect = np.zeros(16, complex)
    expect[0] = expect[15] = INV_SQRT2
    np.testing.assert_allclose(state, expect, atol=1e-12)


def test_qubit0_is_most_significant():
    state = simulate(parse_qasm("OPENQASM 2.0; qreg q[2]; x q[1];"))
    np.testing.assert_allclose(state, [0, 1, 0, 0], atol=1e-12)


def test_qft_on_zero_is_uniform(qft4):
    state = simulate(qft4)
    np.testing.assert_allclose(state, np.full(16, 0.25), atol=1e-12)


def test_cp_phase():
    theta = 0.7
    c = parse_qasm(f"OPENQASM 2.0; qreg q[2]; x q[1]; h q[0]; cp({theta}) q[0],q[1];")
    state = simulate(c)
    expect = np.zeros(4, complex)
    expect[1] = INV_SQRT2
    expect[3] = INV_SQRT2 * np.exp(1j * theta)
    np.testing.assert_allclose(state, expect, atol=1e-12)


def test_ccx_flips_only_when_both_set():
    c = parse_qasm("OPENQASM 2.0; qreg q[3]; x q[0]; x q[1]; ccx q[0],q[1],q[2];")
    state = simulate(c)
    assert abs(state[0b111]) == pytest.approx(1.0)
    c = parse_qasm("OPENQASM 2.0; qreg q[3]; x q[0]; ccx q[0],q[1],q[2];")
    assert abs(simulate(c)[0b100]) == pytest.approx(1.0)


# independent reference: explicit basis-index matrix construction

def _full_unitary(n: int, u: np.ndarray, qubits: list[int]) -> np.ndarray:
    dim = 2 ** n
    k = len(qubits)
    out = np.zeros((dim, dim), complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub = 0
        for q in qubits:
            sub = (sub << 1) | bits[q]
        for sub_out in range(2 ** k):
            amp = u[sub_out, sub]
            if amp == 0:
                continue
            flipped = list(bits)
            for j, q in enumerate(qubits):
                flipped[q] = (sub_out >> (k - 1 - j)) & 1
            row = 0
            for b in flipped:
                row = (row << 1) | b
            out[row, col] += amp
    return out


_MATS = {
    GateKind.H: np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    GateKind.X: np.array([[0, 1], [1, 0]]),
    GateKind.S: np.diag([1, 1j]),
    GateKind.T: np.diag([1, np.exp(1j * math.pi / 4)]),
    GateKind.CX: np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    GateKind.CZ: np.diag([1, 1, 1, -1]),
    GateKind.CCZ: np.diag([1] * 7 + [-1]),
}


def _reference_state(circuit) -> np.ndarray:
    n = circuit.width
    state = np.zeros(2 ** n, complex)
    state[0] = 1.0
    for g in circuit.gates:
        if g.kind is GateKind.BARRIER:
            continue
        if g.kind is GateKind.CP:
            u = np.diag([1, 1, 1, np.exp(1j * g.params[0])])
        elif g.kind is GateKind.RZ:
            u = np.diag([np.exp(-0.5j * g.params[0]), np.exp(0.5j * g.params[0])])
        elif g.kind is GateKind.CCX:
            u = np.eye(8)[:, [0, 1, 2, 3, 4, 5, 7, 6]]
        else:
            u = _MATS[g.kind]
        state = _full_unitary(n, np.asarray(u, complex),
                              g.operands) @ state
    return state


@pytest.mark.parametrize("text", [
    "h q[0]; cx q[0],q[1]; cz q[1],q[2]; t q[2];",
    "h q; cp(0.3) q[0],q[2]; ccx q[0],q[1],q[2]; s q[1];",
    "x q[2]; rz(1.1) q[2]; ccz q[0],q[1],q[2]; h q[1]; cx q[2],q[0];",
], ids=["clifford", "phases", "mixed"])
def test_simulator_matches_matrix_reference(text):
    c = parse_qasm("OPENQASM 2.0; qreg q[3]; " + text)
    np.testing.assert_allclose(simulate(c), _reference_state(c), atol=1e-10)


def test_simulate_norm_preserved():
    c = generate("random", 7, seed=13)
    assert np.linalg.norm(simulate(c)) == pytest.approx(1.0)


def test_simulate_rejections():
    with pytest.raises(ValueError, match="measure"):
        simulate(parse_qasm("OPENQASM 2.0; qreg q[1]; creg c[1]; measure q[0] -> c[0];"))
    with pytest.raises(ValueError, match="shadow"):
        simulate(parse_qasm("OPENQASM 2.0; opaque shadow a; qreg q[1]; shadow q[0];"))
    with pytest.raises(ValueError, match="limit"):
        simulate(Circuit("big", [("q", 15)], []))


def test_equivalent_global_phase():
    a = simulate(generate("ghz", 3))
    assert equivalent(a, np.exp(0.42j) * a)
    flipped = a[::-1].copy()
    assert equivalent(a, flipped)        # ghz state is flip symmetric
    b = simulate(parse_qasm("OPENQASM 2.0; qreg q[3]; x q[0];"))
    assert not equivalent(a, b)
    assert not equivalent(a, np.ones(4, complex))


def test_equivalent_tolerance():
    a = np.array([1, 0], complex)
    b = np.array([math.cos(1e-3), math.sin(1e-3)], complex)
    # overlap deviates by about half the squared angle, near 5e-7
    assert equivalent(a, b, tol=1e-9) is False
    assert equivalent(a, b, tol=1e-3) is True


# -- brute-force min cut ---------------------------------------------------

def chain(n: int) -> Hypergraph:
    return Hypergraph([Vertex() for _ in range(n)],
                      [Hyperedge(pins=(i, i + 1)) for i in range(n - 1)])


def complete(n: int) -> Hypergraph:
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return Hypergraph([Vertex() for _ in range(n)],
                      [Hyperedge(pins=p) for p in edges])


def test_oracle_chain():
    res = brute_force_mincut(chain(4), PartitionConfig(blocks=2))
    assert res.lambda_minus_one == 1 and res.ebits == 2
    assert res.assignment == (0, 0, 1, 1)


def test_oracle_complete4():
    res = brute_force_mincut(complete(4), PartitionConfig(blocks=2))
    assert res.lambda_minus_one == 4
    assert res.assignment == (0, 0, 1, 1)


def test_oracle_star():
    h = Hypergraph([Vertex() for _ in range(4)],
                   [Hyperedge(pins=(0, i + 1)) for i in range(3)])
    res = brute_force_mincut(h, PartitionConfig(blocks=2))
    assert res.lambda_minus_one == 2


def test_oracle_triangle_three_blocks():
    res = brute_force_mincut(complete(3),
                             PartitionConfig(blocks=3, capacities=(1, 1, 1)))
    assert res.lambda_minus_one == 3 and res.ebits == 6


def test_oracle_wide_hyperedge():
    h = Hypergraph([Vertex() for _ in range(3)],
                   [Hyperedge(pins=(0, 1, 2), weight=3)])
    res = brute_force_mincut(h, PartitionConfig(blocks=2, capacities=(2, 1)))
    assert res.lambda_minus_one == 3     # the edge must span both blocks


def test_oracle_weighted_vertices():
    h = Hypergraph([Vertex(weight=2), Vertex(), Vertex()],
                   [Hyperedge(pins=(0, 1)), Hyperedge(pins=(1, 2))])
    res = brute_force_mincut(h, PartitionConfig(blocks=2, capacities=(2, 2)))
    assert res.lambda_minus_one == 1
    assert res.assignment[1] == res.assignment[2] != res.assignment[0]


def test_oracle_slack_capacities(ghz4):
    from qpart import build_hypergraph
    h = build_hypergraph(ghz4)
    res = brute_force_mincut(h, PartitionConfig(blocks=2, capacities=(10, 10)))
    assert res.lambda_minus_one == 1
    assert res.assignment == (0, 0, 0, 1)    # slack allows the cheap 3|1 split


def test_oracle_weight0_resolution(qft4):
    from qpart import build_hypergraph, find_groups
    h = build_hypergraph(qft4, find_groups(qft4))
    res = brute_force_mincut(h, PartitionConfig(blocks=2))
    assert res.lambda_minus_one == 2
    rep = cut_cost(h, list(res.assignment), 2)
    assert rep.lambda_minus_one == res.lambda_minus_one


def test_oracle_guards():
    with pytest.raises(ValueError, match="oracle limit"):
        brute_force_mincut(chain(15), PartitionConfig(blocks=2))
    with pytest.raises(ValueError, match="2..4 blocks"):
        brute_force_mincut(chain(6), PartitionConfig(blocks=5))
    with pytest.raises(ValueError, match="exceed"):
        brute_force_mincut(chain(3), PartitionConfig(blocks=4))
    with pytest.raises(InfeasibleError):
        brute_force_mincut(chain(4), PartitionConfig(blocks=2, capacities=(1, 1)))
    h = Hypergraph([Vertex(weight=3), Vertex()], [Hyperedge(pins=(0, 1))])
    with pytest.raises(ValueError, match="no capacity-feasible"):
        brute_force_mincut(h, PartitionConfig(blocks=2, capacities=(2, 2)))
    # a weight-0 vertex on two edges is enumerated like any other: it joins
    # the heavy edge's pins and cuts only the light edge
    h = Hypergraph([Vertex(weight=0), Vertex(), Vertex(), Vertex()],
                   [Hyperedge(pins=(0, 1)), Hyperedge(pins=(0, 2, 3), weight=5)])
    res = brute_force_mincut(h, PartitionConfig(blocks=2, capacities=(2, 1)))
    assert res.lambda_minus_one == 1
