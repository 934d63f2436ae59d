"""qpart benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload bisect --seed 1 --seconds 15 --trace 0

Run from the repository root.  Set-up writes the workload's inputs from the
seed (timed five times; ``setup_s`` is the median), then the job list runs
once, each job after the previous one finished, in this process.  The
list is sized to ``--seconds`` at the reference speed.  Times are scaled
to the reference machine speed with a short speed probe run between jobs
(see ``probe``).  Outputs are checked after timing by ``check.py``.  With ``--trace 1`` the list runs once
untraced and once traced, and per-layer metrics are reported instead of
end-to-end ones.  The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

SETUP_REPEATS = 5
PROBE_LOOPS = 50_000
# probe() on the reference machine (2-vCPU Intel Xeon) when nothing else
# loads it; a shared machine of that kind swings between this and ~1.5x.
REFERENCE_PROBE_S = 0.0035
CALIB_PROBES = 60
REFERENCE_DEALS = 8  # random deals per library job for the improvement reference
WORK = HERE / "_work"


def probe() -> float:
    """Seconds of a short fixed pure-Python loop that touches no qpart code:
    the machine's current speed."""
    t = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t


def calibrate() -> float:
    """Median of CALIB_PROBES probes: the machine's speed at one moment."""
    return statistics.median(probe() for _ in range(CALIB_PROBES))


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """Scale a time measured between two probes to the reference speed."""
    return seconds * REFERENCE_PROBE_S * 2 / (probe_before + probe_after)


def import_qpart() -> None:
    """Start a fresh interpreter that imports qpart from this checkout, as
    every user process does, and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import qpart, qpart.cli"], cwd=ROOT,
                   env=env, check=True)


def set_up(workload: str, seed: int, seconds: float, work: Path):
    """Time SETUP_REPEATS fresh set-ups; return (median seconds at the
    reference speed, jobs)."""
    times = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        t = time.perf_counter()
        import_qpart()
        jobs = workloads.build_jobs(workload, seed, seconds, ROOT, work)
        t = time.perf_counter() - t
        after = probe()
        times.append(at_reference_speed(t, before, after))
        before = after
    return statistics.median(times), jobs


def require_sources() -> None:
    if not (ROOT / "src" / "qpart" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        raise SystemExit(f"perfbench: no qpart sources under {ROOT / 'src'} or no fixtures/")


def load_qpart():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qpart
    import qpart.cli
    if Path(qpart.__file__).resolve().parent != (src / "qpart").resolve():
        raise SystemExit(f"perfbench: imported qpart from {qpart.__file__}, not {src}")
    return qpart


def run_pass(qpart, jobs, tracer=None):
    """Run every job once; return (per-job seconds, per-job seconds at the
    reference speed, outputs).  A probe runs before the first job and after
    each job, untimed; a job's speed is the mean of the probes around it."""
    times, scaled, outputs = [], [], []
    before = probe()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        t = time.perf_counter()
        try:
            out = workloads.run_job(qpart, job)
        except Exception:  # a failing job is counted, never fatal
            out = traceback.format_exc()
        t = time.perf_counter() - t
        after = probe()
        times.append(t)
        scaled.append(at_reference_speed(t, before, after))
        before = after
        outputs.append(out)
    return times, scaled, outputs


# --------------------------------------------------------------------------
# checking

@dataclass
class Verdict:
    """One job's checked outcome."""

    problems: list
    ebits: int = 0
    improvement: list = field(default_factory=list)
    fingerprint: str = ""


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def fingerprint(job, out) -> str:
    """Digest of everything a job output that must not change between runs
    of the same inputs (the suite CSV without its runtime column)."""
    if isinstance(out, str):
        return "raised"
    if isinstance(out, workloads.LibOutput):
        return _digest(repr(out.result.assignment), str(out.plan.ebits), *out.texts)
    parts = [str(out.code), out.stdout]
    if job.emit_dir is not None and job.emit_dir.is_dir():
        parts += [p.read_text() for p in sorted(job.emit_dir.iterdir())]
    if job.csv_path is not None and job.csv_path.is_file():
        parts += [",".join(row.split(",")[:-1])
                  for row in job.csv_path.read_text().splitlines()]
    return _digest(*parts)


def check_job(job, out, parse_qasm) -> Verdict:
    if isinstance(out, str):
        return Verdict([("error", out.strip().splitlines()[-1])])
    src = check.read_source(job.source.read_text())
    fp = fingerprint(job, out)
    if isinstance(out, workloads.LibOutput):
        problems = check.check_library(src, job.k, out, parse_qasm)
        edges = check.edges_of(src, grouped=True)
        ref = check.random_reference_ebits(src, edges, job.k, REFERENCE_DEALS, job.seed)
        imp = [100.0 * (ref - out.result.cut.ebits) / ref] if ref else []
        return Verdict(problems, out.plan.ebits, imp, fp)
    if job.suite is not None:
        csv_text = job.csv_path.read_text() if job.csv_path.is_file() else None
        problems, rows, imp = check.check_suite(src, job.label, job.suite, out, csv_text)
        ebits = sum(int(r["ebits"]) for r in rows if r["method"] != "Random")
        return Verdict(problems, ebits, imp, fp)
    emitted = None
    if job.emit_dir is not None:
        stem = job.source.stem
        paths = [job.emit_dir / f"{stem}_block{b}.qasm" for b in range(job.k)]
        emitted = [p.read_text() for p in paths if p.is_file()]
    problems, rep = check.check_report(src, job.k, job.grouping, out, emitted, parse_qasm)
    ebits = sum(b["e"] for b in rep["blocks"]) if rep and "blocks" in rep else 0
    imp = [rep["improvement_pct"]] if rep and "improvement_pct" in rep else []
    return Verdict(problems, ebits, imp, fp)


def checked(job, out, parse_qasm) -> Verdict:
    try:
        return check_job(job, out, parse_qasm)
    except Exception as ex:  # output too malformed for the checker to read
        return Verdict([("output", f"unreadable output: {ex!r}")])


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    require_sources()
    calib_before = calibrate()
    work = WORK / f"{args.workload}-s{args.seed}"
    setup_s, jobs = set_up(args.workload, args.seed, args.seconds, work)
    qpart = load_qpart()
    parse_qasm = qpart.parse_qasm  # the checker's reference, never traced

    run_pass(qpart, jobs[:1])  # warm-up: first-call costs, paid once per process

    raw_times, job_times, outputs = run_pass(qpart, jobs)
    wall_s = sum(job_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # check before a traced pass rewrites the emitted and CSV files
    verdicts = [checked(job, out, parse_qasm) for job, out in zip(jobs, outputs)]
    traced = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(qpart, jobs, tracer)
        finally:
            tracer.uninstall()
        # identical output, identical verdict: the traced pass is checked by
        # comparison with the untraced one
        for job, v, out in zip(jobs, verdicts, traced[2]):
            if fingerprint(job, out) != v.fingerprint:
                v.problems.append(("determinism", "traced pass output differs"))
    calib_after = calibrate()

    failed = [v for v in verdicts if v.problems]
    by_category: dict[str, int] = {}
    for v in failed:
        for cat in {c for c, _ in v.problems}:
            by_category[cat] = by_category.get(cat, 0) + 1
    correct = all(c in check.KNOWN_DEFECTS for c in by_category)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} jobs={len(jobs)}")
    raw_quart = statistics.quantiles(raw_times, n=4)
    print(f"calib_s before={calib_before:.6f} after={calib_after:.6f} "
          f"(reference {REFERENCE_PROBE_S})")
    print(f"as measured, before scaling to the reference speed: wall_s={sum(raw_times):.4f} "
          f"job_s_p50={raw_quart[1]:.4f} job_s_p75={raw_quart[2]:.4f} "
          f"(speed {sum(job_times) / sum(raw_times):.3f} of reference)")
    print("job ebits: " + " ".join(str(v.ebits) for v in verdicts))
    print("job output sha256" + (" (suite csv, runtime_ms removed)" if args.workload == "suite"
                                 else "") + ": " + " ".join(v.fingerprint for v in verdicts))
    print(f"fail_rate={len(failed) / len(jobs):.4f} ({len(failed)} of {len(jobs)} jobs"
          + "".join(f"; {c} {n}" for c, n in sorted(by_category.items())) + ")")
    for job, v in zip(jobs, verdicts):
        if v.problems:
            print(f"  job {job.id} {job.label}: "
                  + "; ".join(f"{cat}: {msg}" for cat, msg in v.problems))

    if traced is None:
        quart = statistics.quantiles(job_times, n=4)
        improvements = [x for v in verdicts for x in v.improvement]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "job_s_p50": (quart[1], "s"),
            "job_s_p75": (quart[2], "s"),
            "ebits_total": (sum(v.ebits for v in verdicts), "ebits"),
            "improvement_pct_mean": (statistics.mean(improvements) if improvements else 0.0, "%"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_rate": (1.0 - len(failed) / len(jobs), "ratio"),
        }
    else:
        t_times, t_scaled, _ = traced
        metrics = layer_metrics(tracer.spans, sum(t_times), check.bad_slot_refs)
        metrics["trace.overhead_s"] = (sum(t_scaled) - wall_s, "s")
        tracer.write(WORK / f"trace-{args.workload}-s{args.seed}.json")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
