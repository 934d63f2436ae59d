"""Partition quantum circuits across multiple QPUs with minimal ebit cost.

Pipeline: parse OpenQASM 2 (or generate a benchmark family), group gates
that reuse a control, translate to a hypergraph, partition it under the
connectivity-minus-one metric, then plan the distributed execution and
emit per-QPU subcircuits.  The bench module, behind ``qpart bench``,
reproduces the random-vs-FM comparisons.
"""

from .circuit import (Circuit, Gate, GateKind, QasmError, emit_qasm,
                      gate_layers, parse_qasm)
from .generators import CircuitFamily, generate
from .grouping import GateGroup, find_groups
from .hypergraph import (CutReport, Hyperedge, Hypergraph, Vertex,
                         build_hypergraph, cut_cost, export_hmetis,
                         import_hmetis)
from .fm import (InfeasibleError, Mode, PartitionConfig, PartitionResult,
                 partition)
from .distribution import (Channel, DistributionPlan, QpuPlan,
                           emit_subcircuits, plan_distribution)

__version__ = "0.1.0"

__all__ = [
    "Circuit", "Gate", "GateKind", "QasmError",
    "emit_qasm", "gate_layers", "parse_qasm",
    "CircuitFamily", "generate",
    "GateGroup", "find_groups",
    "CutReport", "Hyperedge", "Hypergraph", "Vertex",
    "build_hypergraph", "cut_cost", "export_hmetis", "import_hmetis",
    "InfeasibleError", "Mode", "PartitionConfig", "PartitionResult",
    "partition",
    "Channel", "DistributionPlan", "QpuPlan",
    "emit_subcircuits", "plan_distribution",
    "__version__",
]
