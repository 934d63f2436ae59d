"""Seeded inputs for the four workloads and the code that runs one job.

Every input is made here, from the workload seed, before timing starts:
QASM text written by this module's own generators (never by
``qpart.generate``), bench suite files, and the job list.  The program under
test receives only those files and the repository's ``fixtures/``.

Job lists are stratified: each (family, k) pair gets an equal share of the
jobs, and its circuit sizes sit on a fixed ladder over the family's size
range.  The seed draws the random circuits, the partitioner seeds and the
job order.  Work per run then depends little on the seed, so the spread
between runs measures the program and the machine rather than the draw.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("bisect", "kway", "report", "suite")

# Jobs per second of --seconds at the reference speed (2-vCPU Intel Xeon, one
# client).  A run executes its job list once, so this sets its length; the
# floor keeps at least ten jobs beyond the reported 75th percentile.
JOBS_PER_SECOND = {"bisect": 4.3, "kway": 3.0, "report": 10.8, "suite": 4.5}
MIN_JOBS = 40

# (family, lowest size, highest size) per workload.
SIZES = {
    "bisect": (("ghz", 300, 400), ("qft", 48, 64), ("random", 48, 64)),
    "kway": (("ghz", 150, 200), ("qft", 32, 48), ("random", 32, 48)),
    "report": (("ghz", 8, 24), ("qft", 6, 16), ("random", 8, 24)),
    "suite": (("ghz", 8, 24), ("qft", 6, 16), ("random", 8, 20)),
}
BISECT_PARTS = (2, 4)
KWAY_PARTS = (4,)
REPORT_PARTS = (2, 3, 4)
SUITE_PARTS = [2, 3]
SUITE_SEEDS = 200  # Random rows per (circuit, k)
FIXTURES = ("ansatz_6", "ansatz_8", "ghz_4", "phase_kernel_6",
            "phase_kernel_8", "toffoli_mix_5")

_ONE_QUBIT = ("h", "x", "y", "z", "s", "t")


# --------------------------------------------------------------------------
# QASM text generators

def ghz_qasm(n: int) -> str:
    lines = ["h q[0];"] + [f"cx q[{i}],q[{i + 1}];" for i in range(n - 1)]
    return _program(n, lines)


def qft_qasm(n: int) -> str:
    lines = []
    for i in range(n):
        lines.append(f"h q[{i}];")
        for j in range(i + 1, n):
            lines.append(f"cp(pi/{2 ** (j - i)}) q[{j}],q[{i}];")
    return _program(n, lines)


def random_qasm(n: int, rng: random.Random) -> str:
    """n layers; each pairs up the shuffled qubits and applies a CX or two
    single-qubit gates to every pair."""
    lines = []
    for _ in range(n):
        order = list(range(n))
        rng.shuffle(order)
        for a, b in zip(order[0::2], order[1::2]):
            if rng.random() < 0.5:
                lines.append(f"cx q[{a}],q[{b}];")
            else:
                lines.append(f"{rng.choice(_ONE_QUBIT)} q[{a}];")
                lines.append(f"{rng.choice(_ONE_QUBIT)} q[{b}];")
        if n % 2:
            lines.append(f"{rng.choice(_ONE_QUBIT)} q[{order[-1]}];")
    return _program(n, lines)


def _program(n: int, body: list[str]) -> str:
    return "\n".join(["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];",
                      *body]) + "\n"


def circuit_text(family: str, n: int, rng: random.Random) -> str:
    if family == "ghz":
        return ghz_qasm(n)
    if family == "qft":
        return qft_qasm(n)
    return random_qasm(n, rng)


# --------------------------------------------------------------------------
# job lists

@dataclass
class Job:
    """One unit of closed-loop work.

    ``source`` is the QASM file the job's circuit comes from.  Library jobs
    use ``k``, ``mode`` and ``seed``; CLI jobs carry their argument vector,
    whose output paths live under the run's work directory.
    """

    id: int
    label: str
    source: Path
    k: int = 2
    mode: str = "fm"
    seed: int = 0
    grouping: bool = True
    emit_dir: Path | None = None
    argv: list[str] = field(default_factory=list)
    csv_path: Path | None = None
    suite: dict | None = None


def job_count(workload: str, seconds: float) -> int:
    return max(MIN_JOBS, math.ceil(seconds * JOBS_PER_SECOND[workload]))


def _size_ladder(lo: int, hi: int, m: int) -> list[int]:
    """m sizes spread evenly over [lo, hi]."""
    width = (hi - lo + 1) / m
    return [lo + int((i + 0.5) * width) for i in range(m)]


def _plan(rng: random.Random, workload: str, n_jobs: int, combos: list) -> list:
    """(family, size, combo, rung) picks: families and combos share jobs
    evenly, sizes sit on a fixed ladder per (family, combo) and ``rung`` is
    the position on it; order shuffled."""
    cells = [(fam, lo, hi, combo) for fam, lo, hi in SIZES[workload]
             for combo in combos]
    per_cell = [n_jobs // len(cells) + (1 if i < n_jobs % len(cells) else 0)
                for i in range(len(cells))]
    picks = []
    for (fam, lo, hi, combo), m in zip(cells, per_cell):
        for rung, size in enumerate(_size_ladder(lo, hi, m)):
            picks.append((fam, size, combo, rung))
    rng.shuffle(picks)
    return picks


def build_jobs(workload: str, seed: int, seconds: float, root: Path,
               work: Path) -> list[Job]:
    """Write the workload's inputs under ``work`` and return its job list.

    Same (workload, seed, seconds) gives the same files and jobs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    n_jobs = job_count(workload, seconds)
    circ_dir = work / "circuits"
    circ_dir.mkdir(parents=True, exist_ok=True)
    jobs: list[Job] = []

    def write_circuit(i: int, fam: str, size: int) -> tuple[str, Path]:
        label = f"{fam}{size}_j{i}"
        path = circ_dir / f"{label}.qasm"
        path.write_text(circuit_text(fam, size, rng))
        return label, path

    if workload in ("bisect", "kway"):
        parts = BISECT_PARTS if workload == "bisect" else KWAY_PARTS
        mode = "fm" if workload == "bisect" else "kway"
        for i, (fam, size, k, _) in enumerate(_plan(rng, workload, n_jobs, list(parts))):
            label, path = write_circuit(i, fam, size)
            jobs.append(Job(id=i, label=label, source=path, k=k, mode=mode,
                            seed=rng.randrange(10_000)))
        return jobs

    if workload == "report":
        # fixtures take a quarter of the jobs; generated circuits the rest
        combos = [(k, method) for k in REPORT_PARTS for method in ("fm", "kway")]
        n_fixture = n_jobs // 4
        picks = [("fixture", FIXTURES[i % len(FIXTURES)],
                  combos[(i // len(FIXTURES)) % len(combos)], i // len(FIXTURES))
                 for i in range(n_fixture)]
        picks += _plan(rng, workload, n_jobs - n_fixture, combos)
        rng.shuffle(picks)
        for i, (fam, size, (k, method), rung) in enumerate(picks):
            if fam == "fixture":
                label, path = size, root / "fixtures" / f"{size}.qasm"
            else:
                label, path = write_circuit(i, fam, size)
            # flags follow the rung, so the job mix is the same for every seed
            grouping = rung % 3 != 2
            argv = ["partition", str(path), "--parts", str(k), "--json",
                    "--method", method, "--seed", str(rng.randrange(10_000)),
                    "--grouping", "on" if grouping else "off"]
            emit_dir = None
            if rung % 2 == 0:
                emit_dir = work / "emit" / f"j{i}"
                argv += ["--emit", str(emit_dir)]
            jobs.append(Job(id=i, label=f"{label}_k{k}_{method}", source=path,
                            k=k, grouping=grouping,
                            emit_dir=emit_dir, argv=argv))
        return jobs

    suite_dir = work / "suites"
    suite_dir.mkdir(parents=True, exist_ok=True)
    for i, (fam, size, _, _) in enumerate(_plan(rng, workload, n_jobs, [None])):
        label, path = write_circuit(i, fam, size)
        start = rng.randrange(10_000)
        suite = {"circuits": [{"file": str(path)}],
                 "methods": ["Random", "FM", "FMGrouped"],
                 "parts": SUITE_PARTS,
                 "seeds": {"from": start, "to": start + SUITE_SEEDS}}
        spec_path = suite_dir / f"suite_j{i}.json"
        spec_path.write_text(json.dumps(suite, indent=1) + "\n")
        csv_path = suite_dir / f"rows_j{i}.csv"
        jobs.append(Job(id=i, label=label, source=path, suite=suite,
                        csv_path=csv_path,
                        argv=["bench", "--suite", str(spec_path),
                              "--out", str(csv_path)]))
    return jobs


# --------------------------------------------------------------------------
# running one job

@dataclass
class LibOutput:
    result: object
    plan: object
    texts: list[str]


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


def run_job(qpart, job: Job):
    """Run one job through qpart's public entry points.

    Entry points are looked up on the modules at call time, so a tracer
    that rebinds them sees these calls too.
    """
    if job.argv:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qpart.cli.main(list(job.argv))
        return CliOutput(code=code, stdout=out.getvalue(), stderr=err.getvalue())
    circuit = qpart.parse_qasm(job.source.read_text(), name=job.label)
    groups = qpart.find_groups(circuit)
    h = qpart.build_hypergraph(circuit, groups)
    config = qpart.PartitionConfig(blocks=job.k, mode=qpart.Mode(job.mode),
                                   seed=job.seed)
    result = qpart.partition(h, config)
    plan = qpart.plan_distribution(circuit, h, list(result.assignment), groups=groups)
    return LibOutput(result=result, plan=plan,
                     texts=qpart.emit_subcircuits(circuit, plan))
