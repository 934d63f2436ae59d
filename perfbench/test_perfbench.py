"""Smoke test of the benchmark itself:  python3 -m pytest -q perfbench

Runs a tiny job list of every workload through the real pipeline and the
checker, shows that the checker flags a corrupted assignment and a swapped
``ebit`` slot, and that the checker's own grouping agrees with qpart's.
"""
from __future__ import annotations

import dataclasses
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

qpart = run.load_qpart()


def _library_job(tmp_path: Path, text: str, k: int, seed: int = 0) -> workloads.Job:
    path = tmp_path / f"c{k}_{seed}.qasm"
    path.write_text(text)
    return workloads.Job(id=0, label=path.stem, source=path, k=k, seed=seed)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_job_list_passes_checks(workload, tmp_path):
    jobs = workloads.build_jobs(workload, seed=7, seconds=0, root=run.ROOT,
                                work=tmp_path)[:3]
    _, times, outputs = run.run_pass(qpart, jobs)
    assert len(times) == 3
    for job, out in zip(jobs, outputs):
        verdict = run.check_job(job, out, qpart.parse_qasm)
        unexpected = [p for p in verdict.problems if p[0] not in check.KNOWN_DEFECTS]
        assert unexpected == [], (job.label, unexpected)
        assert verdict.ebits > 0 and verdict.fingerprint != "raised"


def test_same_seed_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.build_jobs(workload, 3, 0, run.ROOT, tmp_path / "a")
        b = workloads.build_jobs(workload, 3, 0, run.ROOT, tmp_path / "b")
        assert ([" ".join(j.argv).replace(str(tmp_path / "a"), "") for j in a]
                == [" ".join(j.argv).replace(str(tmp_path / "b"), "") for j in b])
        assert [(j.label, j.k, j.seed) for j in a] == [(j.label, j.k, j.seed) for j in b]
        assert [j.source.read_text() for j in a] == [j.source.read_text() for j in b]


def test_corrupted_assignment_is_flagged(tmp_path):
    job = _library_job(tmp_path, workloads.ghz_qasm(12), k=2)
    out = workloads.run_job(qpart, job)
    src = check.read_source(job.source.read_text())
    assert check.check_library(src, 2, out, qpart.parse_qasm) == []
    edges = check.edges_of(src, grouped=True)
    # swap two qubits across blocks: same block sizes, different cut
    for a in range(src.n):
        assign = list(out.result.assignment)
        b = next(b for b in range(src.n) if assign[b] != assign[a])
        assign[a], assign[b] = assign[b], assign[a]
        if check.lambda_minus_one(edges, assign) != out.result.cut.lambda_minus_one:
            break
    else:
        raise AssertionError("no swap changes the cut")
    bad = dataclasses.replace(out, result=dataclasses.replace(
        out.result, assignment=tuple(assign)))
    cats = {c for c, _ in check.check_library(src, 2, bad, qpart.parse_qasm)}
    assert "cut" in cats


def _clean_job_with_two_slots(tmp_path):
    """A library job whose programs pass the slot rule and one of which
    releases two or more slots."""
    for n in range(6, 14):
        for k in (2, 3):
            job = _library_job(tmp_path, workloads.qft_qasm(n), k)
            out = workloads.run_job(qpart, job)
            for b, text in enumerate(out.texts):
                released = re.findall(r"cat_disentangler ebit\[(\d+)\]", text)
                if check.bad_slot_refs(text) == 0 and len(released) >= 2 and not any(
                        check.bad_slot_refs(t) for t in out.texts):
                    return job, out, b, released
    raise AssertionError("no clean job with two released slots")


def test_swapped_slot_is_flagged(tmp_path):
    job, out, b, released = _clean_job_with_two_slots(tmp_path)
    first, other = released[0], released[1]
    # gate lines that used the first channel's slot now name the second's
    lines = [line if line.startswith("cat_") else
             line.replace(f"ebit[{first}]", f"ebit[{other}]")
             for line in out.texts[b].splitlines()]
    texts = list(out.texts)
    texts[b] = "\n".join(lines) + "\n"
    assert check.bad_slot_refs(texts[b]) > 0
    src = check.read_source(job.source.read_text())
    bad = dataclasses.replace(out, texts=texts)
    cats = {c for c, _ in check.check_library(src, job.k, bad, qpart.parse_qasm)}
    assert cats == {"slot"}


@pytest.mark.parametrize("grouped", [True, False])
def test_checker_hypergraph_matches_qpart(grouped, tmp_path):
    import random
    texts = [p.read_text() for p in sorted((run.ROOT / "fixtures").glob("*.qasm"))]
    texts += [workloads.random_qasm(n, random.Random(n)) for n in (9, 12, 16)]
    texts += [workloads.qft_qasm(7), workloads.ghz_qasm(9)]
    for text in texts:
        c = qpart.parse_qasm(text)
        groups = qpart.find_groups(c) if grouped else None
        h = qpart.build_hypergraph(c, groups)
        theirs = sorted(tuple(sorted(p for p in e.pins if h.vertices[p].is_qubit))
                        for e in h.edges)
        ours = sorted(tuple(sorted(e)) for e in
                      check.edges_of(check.read_source(text), grouped))
        assert ours == theirs


def test_exits_nonzero_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bisect",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
