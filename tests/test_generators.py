"""Built-in circuit families."""

import math

import pytest

from qpart import CircuitFamily, GateKind, generate


def test_ghz_shape(ghz10):
    assert ghz10.name == "ghz10"
    assert ghz10.width == 10 and ghz10.size == 10 and ghz10.depth == 10
    kinds = [g.kind for g in ghz10.gates]
    assert kinds == [GateKind.H] + [GateKind.CX] * 9
    # chain: cx q[i],q[i+1]
    for g in ghz10.gates[1:]:
        assert g.operands[1] == g.operands[0] + 1


def test_qft_shape(qft8):
    assert qft8.width == 8
    assert qft8.size == 8 + 8 * 7 // 2          # n H gates plus C(n,2) rotations
    for g in qft8.gates:
        if g.kind is GateKind.CP:
            j, i = g.operands
            assert g.params[0] == pytest.approx(math.pi / 2 ** (j - i))


def test_random_layered_deterministic():
    a = generate("random", 6, seed=3)
    b = generate("random", 6, seed=3)
    c = generate("random", 6, seed=4)
    assert a.gates == b.gates
    assert a.gates != c.gates
    assert a.name == "random6_s3"


def test_random_layered_two_qubit_content():
    c = generate(CircuitFamily.RANDOM_LAYERED, 8, seed=0)
    assert any(g.kind is GateKind.CX for g in c.gates)
    assert all(g.kind is not GateKind.MEASURE for g in c.gates)


def test_family_accepts_string_or_enum():
    assert generate("ghz", 4).gates == generate(CircuitFamily.GHZ, 4).gates


def test_too_small():
    with pytest.raises(ValueError, match="at least 2"):
        generate("ghz", 1)
    with pytest.raises(ValueError):
        CircuitFamily("bogus")
