"""Emitted programs are byte-stable: the sha256 of ``emit_qasm`` and of
every ``emit_subcircuits`` program is pinned for the fixtures, two
generated circuits and a two-register circuit with a barrier, a broadcast
measure and an opaque call, partitioned over k in {2, 3} at fixed seeds,
with and without grouping.  A changed digest means a changed byte."""

import hashlib

import pytest

from qpart import (PartitionConfig, build_hypergraph, emit_qasm, emit_subcircuits,
                   find_groups, generate, parse_qasm, partition, plan_distribution)

from conftest import fixture_names, load_fixture

TWO_REGISTERS = """OPENQASM 2.0;
include "qelib1.inc";
opaque tag a;
qreg a[3];
qreg b[2];
creg c[3];
creg d[2];
h a[0];
cx a[0],b[0];
cx a[0],a[2];
cp(pi/4) b[1],a[1];
barrier a,b[0];
ccz a[1],b[0],b[1];
ccx a[0],a[1],b[1];
tag b[1];
rz(0.5) a[2];
cx b[0],a[1];
measure a -> c;
measure b[1] -> d[1];
"""


def _circuit(name: str):
    if name == "two_registers":
        return parse_qasm(TWO_REGISTERS, name=name)
    if name.endswith(".qasm"):
        return load_fixture(name)
    family, n, seed = name.split(":")
    return generate(family, int(n), int(seed))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _programs(name: str, k: int, grouped: bool) -> list[str]:
    c = _circuit(name)
    groups = find_groups(c) if grouped else None
    h = build_hypergraph(c, groups)
    result = partition(h, PartitionConfig(blocks=k, seed=k))
    plan = plan_distribution(c, h, list(result.assignment), groups=groups)
    return emit_subcircuits(c, plan)


CIRCUITS = fixture_names() + ["random:10:1", "qft:7:0", "two_registers"]

# the first 16 hex digits of each sha256; any changed byte changes them
EMIT_QASM = {
    "ansatz_6.qasm": "eccc2963229799fc",
    "ansatz_8.qasm": "286e1f8760dc0b8f",
    "ghz_4.qasm": "b62b8da49a796ede",
    "phase_kernel_6.qasm": "1e708269d8b34f85",
    "phase_kernel_8.qasm": "1d1750972fc0b3a2",
    "toffoli_mix_5.qasm": "d2f9fbe9d0a1c823",
    "random:10:1": "a520680e393c9b4a",
    "qft:7:0": "0286ee9fafede25c",
    "two_registers": "1eebc5e3c5e68e13",
}

SUBCIRCUITS = {
    ("ansatz_6.qasm", 2, True): ("122f161d1ff3b091", "c05a94c27d3085fa"),
    ("ansatz_6.qasm", 2, False): ("122f161d1ff3b091", "c05a94c27d3085fa"),
    ("ansatz_6.qasm", 3, True): ("448a042ee46a4f95", "d34daa3688ac4d8e", "3873d16dd3626a0b"),
    ("ansatz_6.qasm", 3, False): ("6861355471cc229d", "aaca5af89fd00524", "986aa8d69c23e5c8"),
    ("ansatz_8.qasm", 2, True): ("f442268a96e376c1", "a279936b8e510163"),
    ("ansatz_8.qasm", 2, False): ("f442268a96e376c1", "a279936b8e510163"),
    ("ansatz_8.qasm", 3, True): ("bec067c58c1974e3", "60da323831f47c15", "759f4dece4d9c704"),
    ("ansatz_8.qasm", 3, False): ("3dfa3dcbb562ab7e", "6d2aea2c6b263f8d", "64933c7c12fecac0"),
    ("ghz_4.qasm", 2, True): ("7362b6f0f31a9a2e", "78c31a6e5d3df55b"),
    ("ghz_4.qasm", 2, False): ("7362b6f0f31a9a2e", "78c31a6e5d3df55b"),
    ("ghz_4.qasm", 3, True): ("c53d04bd4297c4b8", "cd6ac391b190ee61", "09a48c43942ae3db"),
    ("ghz_4.qasm", 3, False): ("c53d04bd4297c4b8", "cd6ac391b190ee61", "09a48c43942ae3db"),
    ("phase_kernel_6.qasm", 2, True): ("ac2864d19a5265fb", "2ff367168848b724"),
    ("phase_kernel_6.qasm", 2, False): ("675c61754c971b69", "b4d78c3f7672fb3f"),
    ("phase_kernel_6.qasm", 3, True): ("487c234b95891bc7", "695e7ea2b9d7b5fc", "1d8c6780ceac71f3"),
    ("phase_kernel_6.qasm", 3, False): ("233c04cb2ca61b4d", "709d069156876aad", "589c12c946f04aa3"),
    ("phase_kernel_8.qasm", 2, True): ("42e4d65a74de9b78", "af6dadcaf4d1033a"),
    ("phase_kernel_8.qasm", 2, False): ("16fa4fa6d366dd36", "9bc733f3edfce60b"),
    ("phase_kernel_8.qasm", 3, True): ("0cbe6aec6f5b668e", "103cadf377066f0b", "5f983e6359222461"),
    ("phase_kernel_8.qasm", 3, False): ("39a6acd460b915e2", "227fd9c4affa11ea", "8be4e56bc0295bbd"),
    ("toffoli_mix_5.qasm", 2, True): ("ec8ebdd875000a09", "ed5884ac2c94e654"),
    ("toffoli_mix_5.qasm", 2, False): ("946661f3f9c82c64", "4a6c03db7f4ee1fa"),
    ("toffoli_mix_5.qasm", 3, True): ("181af8e3a5c51671", "838346f31fd6d2aa", "6e2f732254d158c6"),
    ("toffoli_mix_5.qasm", 3, False): ("5d9d43f4d92f9bb5", "611b6f24d98a39a7", "ffbebdb467b79f3a"),
    ("random:10:1", 2, True): ("48769e9d812f5d7e", "3310654ec9048e8c"),
    ("random:10:1", 2, False): ("9280d18e5eefbcbe", "d1c478bbac5d9ef5"),
    ("random:10:1", 3, True): ("522d1821a03bf75d", "5ea1741318a17f3c", "fe72bec5a54a33f2"),
    ("random:10:1", 3, False): ("ce135dd36f36da77", "51c0a3c5c3ed9b6a", "19c8453725006c5d"),
    ("qft:7:0", 2, True): ("b63c77f6a835225b", "cc36f16ac6c5122d"),
    ("qft:7:0", 2, False): ("83d89bbc68c2cea1", "ee36892214f7f670"),
    ("qft:7:0", 3, True): ("f3bf80cef846b63a", "5541fb130eb11615", "337a8c957898dcf2"),
    ("qft:7:0", 3, False): ("e384705d9c92754f", "79c3e8f79bd4c6fa", "d390c8700a3810cd"),
    ("two_registers", 2, True): ("3e7ab966d8ba9004", "1b5370e909a893e4"),
    ("two_registers", 2, False): ("3e7ab966d8ba9004", "1b5370e909a893e4"),
    ("two_registers", 3, True): ("ec03a7c31f877b7f", "91d242d280c80efd", "a5071554101e5a78"),
    ("two_registers", 3, False): ("ec03a7c31f877b7f", "91d242d280c80efd", "a5071554101e5a78"),
}


@pytest.mark.parametrize("name", CIRCUITS)
def test_emit_qasm_is_byte_stable(name):
    assert _sha(emit_qasm(_circuit(name))) == EMIT_QASM[name]


@pytest.mark.parametrize("grouped", [True, False])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", CIRCUITS)
def test_subcircuits_are_byte_stable(name, k, grouped):
    digests = tuple(_sha(t) for t in _programs(name, k, grouped))
    assert digests == SUBCIRCUITS[name, k, grouped]
