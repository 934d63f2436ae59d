"""The package's public names: the pipeline and its types."""

import importlib.util

import qpart

PUBLIC = [
    "Channel", "Circuit", "CircuitFamily",
    "CutReport", "DistributionPlan", "Gate", "GateGroup",
    "GateKind", "Hyperedge", "Hypergraph", "InfeasibleError",
    "Mode", "PartitionConfig", "PartitionResult",
    "QasmError", "QpuPlan",
    "Vertex", "__version__",
    "build_hypergraph", "cut_cost", "emit_qasm", "emit_subcircuits",
    "export_hmetis",
    "find_groups", "gate_layers", "generate", "import_hmetis",
    "parse_qasm", "partition", "plan_distribution",
]


def test_public_api():
    # the public surface only shrinks: a new name is a deliberate change here
    assert sorted(qpart.__all__) == PUBLIC
    assert len(PUBLIC) == 30
    for name in qpart.__all__:
        getattr(qpart, name)
    # the exhaustive oracle is a test reference, in tests/oracle.py
    assert importlib.util.find_spec("qpart.oracle") is None
