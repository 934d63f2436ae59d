"""Command-line front end: stats, partition, hmetis export, bench.

Circuit arguments are QASM file paths; ``family:n[:seed]`` shorthands
(ghz:10, qft:8, random:12:3) generate the built-in families instead.
``partition`` also accepts a .hmetis/.hgr file and then partitions the
imported hypergraph directly, without circuit-level accounting.

Exit codes: 0 success, 1 usage or input error, 2 infeasible capacities.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .bench import CircuitJob, format_summary, load_suite, read_file, run_suite, write_csv
from .distribution import emit_subcircuits, plan_distribution
from .fm import InfeasibleError, Mode, PartitionConfig, expected_ebits, partition
from .hypergraph import _check_assignment, build_hypergraph, export_hmetis, import_hmetis


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve that
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_caps(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise ValueError(f"bad capacity list {text!r}; expected e.g. 3,3,2") from None


def _improvement(h, config: PartitionConfig, ebits: int) -> float | None:
    """Percent of the exact mean random-deal ebits (``fm.expected_ebits``)
    that ``ebits`` saves; None for the random method itself or a zero
    baseline."""
    if config.mode is Mode.RANDOM:
        return None
    base = expected_ebits(h, config)
    return 100.0 * (base - ebits) / base if base else None


def _block_endpoints(h, assignment: list[int], blocks: int) -> list[int]:
    """Communication endpoints per block: one per (cut edge, remote block)
    on the remote side plus one on the home side, the block of the edge's
    first pin.  Sums to 2*(lambda-1).  The hMETIS report's ``e``, where a
    bare hypergraph has no plan to count channels."""
    _check_assignment(h, assignment, blocks)
    counts = [0] * blocks
    for e in h.edges:
        home = assignment[e.pins[0]]
        for b in {assignment[p] for p in e.pins} - {home}:
            counts[home] += e.weight
            counts[b] += e.weight
    return counts


def _cmd_stats(args) -> int:
    c = CircuitJob.parse(args.file).load()
    print(f"width={c.width} size={c.size} depth={c.depth}")
    return 0


def _cmd_hmetis(args) -> int:
    c = CircuitJob.parse(args.file).load()
    text = export_hmetis(build_hypergraph(c, args.grouping == "on"))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_partition(args) -> int:
    config = PartitionConfig(blocks=args.parts, capacities=_parse_caps(args.capacities),
                             restarts=args.restarts, seed=args.seed, mode=Mode(args.method))
    hmetis = args.file.endswith((".hmetis", ".hgr"))
    if hmetis:
        if args.emit:
            raise ValueError("--emit needs a circuit, not a hypergraph file")
        h = import_hmetis(read_file(args.file))
        name, n = Path(args.file).stem, len(h.vertices)
    else:
        circuit = CircuitJob.parse(args.file).load()
        h = build_hypergraph(circuit, args.grouping == "on")
        name, n = circuit.name, circuit.width
    result = partition(h, config)
    if hmetis:  # a bare hypergraph has no operations to account
        endpoints = _block_endpoints(h, list(result.assignment), config.blocks)
        rows = [(d, 0, e) for d, e in zip(result.loads, endpoints)]
    else:
        # account every QPU of the config, also one the assignment leaves empty
        plan = plan_distribution(circuit, h, list(result.assignment), blocks=config.blocks)
        rows = [(p.data, p.o, p.e) for p in plan.per_block]
    blocks = [{"data": d, "e": e, "o": o, "r": e / o if o else None} for d, o, e in rows]
    improvement = _improvement(h, config, result.cut.ebits)
    report = {"circuit": name, "n": n, "method": args.method, "k": args.parts,
              "cut_edges": result.cut.cut_edges, "ebits": result.cut.ebits,
              "blocks": blocks}
    if improvement is not None:
        report["improvement_pct"] = improvement
    if args.emit:
        texts = emit_subcircuits(circuit, plan)  # a refused circuit writes nothing
        out = Path(args.emit)
        out.mkdir(parents=True, exist_ok=True)
        for b, text in enumerate(texts):
            (out / f"{circuit.name}_block{b}.qasm").write_text(text)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"cut_edges={result.cut.cut_edges} ebits={result.cut.ebits}")
        for b, block in enumerate(blocks):
            r = "-" if block["r"] is None else f"{block['r']:.3f}"
            print(f"  block {b}: data={block['data']} o={block['o']} e={block['e']} r={r}")
        if improvement is not None:
            print(f"improvement={improvement:.1f}%")
    return 0


def _cmd_bench(args) -> int:
    rows, summaries = run_suite(load_suite(args.suite))
    write_csv(rows, args.out or sys.stdout)
    # the summary goes to stderr when the CSV takes stdout
    print(format_summary(summaries), file=sys.stdout if args.out else sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a build costs about
    a millisecond, and ``parse_args`` leaves the parser as it was."""
    p = _Parser(prog="qpart",
                description="circuit partitioning for distributed execution")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("stats", help="print width/size/depth of a circuit")
    s.add_argument("file")
    s.set_defaults(fn=_cmd_stats)

    s = sub.add_parser("partition", help="partition a circuit over k QPUs")
    s.add_argument("file")
    s.add_argument("--parts", type=int, required=True, metavar="K")
    s.add_argument("--capacities", metavar="a,b,...")
    s.add_argument("--method", choices=[m.value for m in Mode], default="fm")
    s.add_argument("--grouping", choices=["on", "off"], default="on")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--restarts", type=int, default=8)
    s.add_argument("--emit", metavar="DIR", help="write per-QPU subcircuits here")
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=_cmd_partition)

    s = sub.add_parser("hmetis", help="export the circuit hypergraph")
    s.add_argument("file")
    s.add_argument("--out", metavar="PATH")
    s.add_argument("--grouping", choices=["on", "off"], default="off")
    s.set_defaults(fn=_cmd_hmetis)

    s = sub.add_parser("bench", help="run a benchmark suite to CSV")
    s.add_argument("--suite", required=True, metavar="SPEC.json")
    s.add_argument("--out", metavar="CSV")
    s.set_defaults(fn=_cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as ex:  # argparse usage failure path
        return ex.code if isinstance(ex.code, int) else 1
    except InfeasibleError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as ex:  # QasmError and FileNotFoundError included
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
