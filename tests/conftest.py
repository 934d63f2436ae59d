"""Shared fixtures: generated circuits and the on-disk QASM corpus."""

import pathlib

import pytest

from qpart import generate, parse_qasm
from qpart.fm import _dealer, _Engine, _grown, _pass, _shuffles, resolve_capacities

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str):
    path = FIXTURES / name
    return parse_qasm(path.read_text(), name=path.stem)


def fixture_names() -> list[str]:
    return sorted(p.name for p in FIXTURES.glob("*.qasm"))


def caps_of(h, config):
    """The config's capacities for ``h``, resolved as ``partition`` does."""
    return resolve_capacities(config.capacities, sum(v.weight for v in h.vertices),
                              config.blocks)


def deal(h, config, grown=False):
    """The seeded deal of config.seed, as a list: the shuffled deal of
    ``Mode.RANDOM`` and of a driver's even restarts, or with ``grown`` the
    grown deal that an odd restart refines, each block in one run."""
    (perm,) = _shuffles(len(h.vertices), [config.seed])
    caps = caps_of(h, config)
    if grown:
        perm = _grown(_Engine(h, caps), perm)
    return _dealer(h, caps, runs=grown)(perm)


def engine(h, bounds, assignment):
    """An engine over ``h`` with one bound per block, reset to refine
    ``assignment`` in place."""
    eng = _Engine(h, bounds)
    eng.reset(assignment)
    return eng


def fm_pass(h, assignment, config):
    """Run one FM pass over a copy of ``assignment``, each block bounded by
    its capacity; returns the copy, whether the pass improved the cost, and
    the engine, which holds the pass's counts."""
    work = list(assignment)
    eng = engine(h, caps_of(h, config), work)
    return work, _pass(eng), eng


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def ghz4():
    return generate("ghz", 4)


@pytest.fixture(scope="session")
def ghz10():
    return generate("ghz", 10)


@pytest.fixture(scope="session")
def qft4():
    return generate("qft", 4)


@pytest.fixture(scope="session")
def qft8():
    return generate("qft", 8)
