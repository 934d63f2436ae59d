"""The partition path runs without numpy: importing qpart and running
``partition``, ``stats`` and ``hmetis`` never load it, and only ``qpart
bench`` does.  Each check runs in a fresh interpreter, since this one has
numpy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import qpart

from conftest import FIXTURES

SRC = Path(qpart.__file__).resolve().parent.parent

# each command runs in one fresh interpreter, in order; numpy must stay
# unloaded after the import and after every command
SCRIPT = """
import contextlib, io, json, sys
import qpart, qpart.cli
assert "numpy" not in sys.modules, "import qpart, qpart.cli loaded numpy"
for argv, code in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        got = qpart.cli.main(argv)
    assert got == code, (argv, got)
    assert "numpy" not in sys.modules, f"qpart {' '.join(argv)} loaded numpy"
"""


def run(commands) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_partition_stats_and_hmetis_never_import_numpy(tmp_path):
    graph = tmp_path / "free.hmetis"
    graph.write_text("5 6 11\n1 3 1\n2 5 4 3\n1 2 3 4\n1 6 3\n3 1 6 4 2\n1\n0\n1\n1\n0\n1\n")
    phase = str(FIXTURES / "phase_kernel_8.qasm")
    commands = [(["partition", c, "--parts", k, "--method", m, "--grouping", g], 0)
                for c, k in ((phase, "3"), ("random:10:3", "2"))
                for m in ("fm", "kway", "random") for g in ("on", "off")]
    commands += [
        (["partition", "qft:8", "--parts", "3", "--json", "--emit", str(tmp_path / "out")], 0),
        # the plan refuses a split opaque gate with exit 2
        (["partition", str(Path(__file__).parent / "op2.qasm"), "--parts", "2",
          "--method", "random"], 2),
        *((["partition", str(graph), "--parts", "2", "--method", m, "--json"], 0)
          for m in ("fm", "kway", "random")),
        (["stats", phase], 0),
        (["stats", "ghz:6"], 0),
        (["hmetis", "qft:6", "--grouping", "on"], 0),
        (["hmetis", phase, "--out", str(tmp_path / "phase.hgr")], 0),
    ]
    done = run(commands)
    assert done.returncode == 0, done.stderr
    assert len(list((tmp_path / "out").glob("*.qasm"))) == 3


def test_bench_imports_numpy(tmp_path):
    # the same check fails on a run of the bench, whose Random rows are dealt
    # and scored in numpy, so it does detect the import
    suite = tmp_path / "suite.json"
    suite.write_text('{"circuits": ["ghz:6"], "parts": [2], "seeds": {"from": 0, "to": 5}}')
    done = run([(["bench", "--suite", str(suite), "--out", str(tmp_path / "rows.csv")], 0)])
    assert done.returncode == 1
    assert "qpart bench --suite" in done.stderr and "loaded numpy" in done.stderr, done.stderr
