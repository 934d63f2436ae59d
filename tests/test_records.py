"""Every qpart record is a frozen, slotted dataclass: its fields live in
the object itself, it takes no new attribute, and equality, copying,
pickling and ``dataclasses.replace`` behave as on any dataclass."""

import copy
import dataclasses
import pickle

import pytest

from qpart import (Channel, Circuit, CutReport, DistributionPlan, Gate, GateKind, Hyperedge,
                   Hypergraph, PartitionConfig, PartitionResult, QpuPlan, Vertex, build_hypergraph,
                   find_groups, generate, partition, plan_distribution)
from qpart.bench import CircuitJob, SuiteSpec
from qpart.grouping import GateGroup


def _records() -> list:
    """One instance of each record class, taken from a real run where one
    exists: qft6 grouped over three QPUs has channels and reuse groups."""
    circuit = generate("qft", 6)
    h = build_hypergraph(circuit, grouped=True)
    config = PartitionConfig(blocks=3, capacities=(2, 2, 2), restarts=2, seed=4)
    result = partition(h, config)
    plan = plan_distribution(circuit, h, list(result.assignment))
    job = CircuitJob.parse("ghz:4:1")
    group = next(g for g in find_groups(circuit) if g.is_reuse)
    return [circuit.gates[1], circuit, group, h.vertices[0], h.edges[0], h, result.cut,
            plan.channels[0], plan.per_block[0], plan, config, result, job,
            SuiteSpec(circuits=(job,), parts=(2, 3), seed_to=5)]


RECORDS = _records()
CLASSES = [Gate, Circuit, GateGroup, Vertex, Hyperedge, Hypergraph, CutReport, Channel, QpuPlan,
           DistributionPlan, PartitionConfig, PartitionResult, CircuitJob, SuiteSpec]


def test_every_record_class_is_covered():
    assert [type(r) for r in RECORDS] == CLASSES
    assert all(dataclasses.is_dataclass(cls) for cls in CLASSES)


@pytest.mark.parametrize("record", RECORDS, ids=[cls.__name__ for cls in CLASSES])
def test_record_is_slotted(record):
    cls = type(record)
    assert "__slots__" in vars(cls)
    assert set(cls.__slots__) == {f.name for f in dataclasses.fields(cls)}
    assert not hasattr(record, "__dict__")
    # not even the write that bypasses the frozen __setattr__ adds a name
    with pytest.raises(AttributeError):
        object.__setattr__(record, "note", 1)


@pytest.mark.parametrize("record", RECORDS, ids=[cls.__name__ for cls in CLASSES])
def test_record_is_frozen(record):
    for f in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))


@pytest.mark.parametrize("record", RECORDS, ids=[cls.__name__ for cls in CLASSES])
def test_record_copies_equal(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                 copy.copy(record), dataclasses.replace(record)):
        assert type(twin) is type(record)
        assert twin == record
        assert hash(twin) == hash(record)
        assert repr(twin) == repr(record)


def test_gate_init_still_checks():
    gate = Gate(GateKind.CX, (0, 1))
    with pytest.raises(ValueError, match="distinct"):
        dataclasses.replace(gate, operands=(0, 0))
    with pytest.raises(ValueError, match="not finite"):
        dataclasses.replace(Gate(GateKind.RZ, (0,), (0.5,)), params=(float("nan"),))
    assert dataclasses.replace(gate, operands=(1, 0)).operands == (1, 0)

