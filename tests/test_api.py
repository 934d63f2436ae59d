"""The package's public names: the pipeline, its types and the bench."""

import qpart

PUBLIC = [
    "Channel", "Circuit", "CircuitFamily", "CircuitJob",
    "CutReport", "DistributionPlan", "Gate", "GateGroup",
    "GateKind", "Hyperedge", "Hypergraph", "InfeasibleError",
    "Mode", "PartitionConfig", "PartitionResult",
    "QasmError", "QpuPlan", "SuiteSpec",
    "Vertex", "__version__", "block_endpoints", "brute_force_mincut",
    "build_hypergraph", "cut_cost", "emit_qasm", "emit_subcircuits",
    "export_hmetis",
    "find_groups", "format_summary", "gate_layers", "generate", "import_hmetis",
    "load_suite", "parse_qasm", "partition", "plan_distribution",
    "resolve_capacities", "run_suite", "write_csv",
]


def test_public_api():
    # the public surface only shrinks: a new name is a deliberate change here
    assert sorted(qpart.__all__) == PUBLIC
    assert len(PUBLIC) == 39
    for name in qpart.__all__:
        getattr(qpart, name)
