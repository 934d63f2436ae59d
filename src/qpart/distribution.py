"""Turn a partition into an executable multi-QPU plan.

Each cut hyperedge needs its control's state shared from its home block
to every remote block it spans.  One shared copy is one channel: a cat
entangler on the home side binds the control qubit to a communication
qubit on the remote side, the remote gates use that copy as their
control, and a cat disentangler releases it after the last use.  A
channel consumes one entangled pair, i.e. two ebits, one endpoint per
side, which is exactly how the connectivity-minus-one metric prices the
edge.  Every endpoint gets its own communication qubit, so a QPU's
``ebit`` register is as wide as its ebit endpoint count e.

Gates are executed where their target lives (CX/CCX) or where most of
their operands live (the diagonal CZ/CP/CCZ, ties to the last operand).
A remote operand that is not the edge's first pin, the qubit it shares,
cannot ride an existing channel; it gets a fallback channel of its own.
That only happens for three-qubit gates whose controls are split from
the target, and it makes the realised ebit count exceed the metric;
two-qubit and grouped interactions never need it.

These rules are stated once, in ``_placement``, over a matrix of
assignments: ``plan_distribution`` evaluates it on its one row, and
``_plan_ledger`` on a batch of seeded deals to give each row's per-block
counts without building its plan.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, GateKind, _cregs, _gate_line, _preamble
from .fm import InfeasibleError
from .hypergraph import CutReport, Hypergraph, _check_assignment, cut_cost


@dataclass(frozen=True)
class Channel:
    """One shared qubit copy: ``carries`` (a vertex) is entangled from its
    home block, ``plan.assignment[carries]``, into a comm qubit on
    ``remote`` over [first_use, last_use], the positions of the first and
    last gates that use it.  ``edge`` is the index of its hyperedge; a
    channel is identified by its position in ``DistributionPlan.channels``.
    It is a fallback channel when ``carries`` is not its edge's first pin."""

    edge: int
    carries: int
    remote: int
    first_use: int
    last_use: int


@dataclass(frozen=True)
class QpuPlan:
    """Per-QPU ledger: resident data qubits, executed original gates o,
    ebit endpoints e (also the width of the emitted program's ``ebit``
    register), and their ratio r = e / o (None when o is zero).  QPU b's
    ledger is ``DistributionPlan.per_block[b]``."""

    data: int
    o: int
    e: int
    r: float | None


@dataclass(frozen=True)
class DistributionPlan:
    assignment: tuple[int, ...]
    channels: tuple[Channel, ...]
    exec_block: tuple[int, ...]  # per gate position; -1 for BARRIER
    per_block: tuple[QpuPlan, ...]
    cut: CutReport
    ebits: int  # realised: 2 per channel; equals cut.ebits without fallbacks


def _edge_of_gate(h: Hypergraph) -> dict[int, int]:
    """Map gate position -> the index of the hyperedge whose ``gates`` list
    it.  A gate listed twice, on two edges or on one, is a ValueError
    naming both."""
    seq_edge: dict[int, int] = {}
    for eid, e in enumerate(h.edges):
        for seq in e.gates:
            if seq in seq_edge:
                raise ValueError(f"gate {seq} is listed on edges {seq_edge[seq]} and {eid}")
            seq_edge[seq] = eid
    return seq_edge


def _placement(circuit: Circuit, h: Hypergraph):
    """Where each gate runs and which channels its remote operands use,
    for any number of assignments over ``h`` at once.

    Returns (placed, uses, place).  ``placed`` lists the position of every
    gate but BARRIER, in circuit order.  ``uses`` holds one (placed index,
    carried vertex, edge) per operand of a CX/CCX or diagonal gate that has
    a hyperedge; the operand needs a channel keyed (edge, carried vertex,
    remote block) when its block differs from the gate's.  ``place(assign)``
    maps a seeds x vertices block matrix to the seeds x placed exec blocks:
    the target's block for CX/CCX, the majority block for CZ/CP/CCZ (ties
    to the last operand: the first two operands' block for a CCZ when they
    agree, else the last), the operands' one block otherwise.  It raises
    InfeasibleError for the first row, and that row's first gate, that
    splits a gate other than those, or one with no hyperedge.  A gate
    whose edge leaves out one of its operands is a ValueError: the cut
    would not count the channel that operand needs.
    """
    seq_edge = _edge_of_gate(h)
    placed, exec_col, majority, rigid, uses = [], [], [], [], []
    for seq, g in enumerate(circuit.gates):
        if g.kind is GateKind.BARRIER:
            continue
        at = len(placed)
        placed.append(seq)
        cols = g.operands  # a qubit's index is its vertex
        exec_col.append(cols[-1])
        if len(cols) == 1:
            continue
        if g.kind is GateKind.CCZ:
            majority.append((at, *cols))
        eid = seq_edge.get(seq)
        if eid is not None:
            for q in cols:
                if q not in h.edges[eid].pins:
                    raise ValueError(f"gate {seq} acts on qubit {q}, which its "
                                     f"edge {eid} does not hold")
        if eid is not None and g.kind.splittable:
            uses.extend((at, q, eid) for q in cols)
        else:
            rigid.extend((at, q) for q in cols)

    def columns(rows, width):
        return np.array(rows, dtype=np.intp).reshape(-1, width).T

    exec_col = np.array(exec_col, dtype=np.intp)
    maj_at, maj_a, maj_b, maj_c = columns(majority, 4)
    rigid_at, rigid_q = columns(rigid, 2)

    def place(assign: np.ndarray) -> np.ndarray:
        at = assign[:, exec_col].astype(np.intp)
        a, b = assign[:, maj_a], assign[:, maj_b]
        at[:, maj_at] = np.where(a == b, a, assign[:, maj_c])
        refused = assign[:, rigid_q] != at[:, rigid_at]
        if refused.any():
            row = refused.any(axis=1).argmax()
            seq = placed[rigid_at[refused[row].argmax()]]
            g = circuit.gates[seq]
            if g.kind.splittable:
                raise InfeasibleError(f"gate {seq} ({g.qasm_name}) is split "
                                      "but has no hyperedge")
            blocks = sorted({int(assign[row, q]) for q in g.operands})
            raise InfeasibleError(f"gate {seq} ({g.qasm_name}) has operands on "
                                  f"blocks {blocks} and cannot be split")
        return at

    return placed, uses, place


def plan_distribution(circuit: Circuit, h: Hypergraph, assignment: list[int],
                      groups=None, blocks: int | None = None) -> DistributionPlan:
    """Place every gate, open the channels remote operands need, and
    account ebits and gate counts per QPU.

    ``assignment`` is the vertex -> block map from the partitioner, over
    the same hypergraph ``h``, whose edges name their gates.  ``groups`` is
    unused; it is kept only for the call at ``perfbench/workloads.py:259``.
    The plan covers ``blocks`` QPUs, also those the assignment leaves
    empty; None means the blocks up to the highest one assigned.  Gates
    are placed by ``_placement``, on its one-row case.  An assignment
    that does not cover ``h``, or that names a block outside ``blocks``,
    is a ValueError naming the vertex.  So is a gate listed twice, an
    edge that leaves out an operand of one of its gates, and a plan where two channels of one qubit to one block are open at
    once, as a hand-built ``h`` with a group split by another edge of its
    control would give.
    """
    if blocks is None:
        blocks = max(assignment, default=0) + 1
    _check_assignment(h, assignment, blocks)
    placed, uses, place = _placement(circuit, h)
    at = place(np.array([assignment], dtype=np.intp))[0].tolist()

    exec_block = [-1] * len(circuit.gates)  # BARRIER stays -1
    o = [0] * blocks
    for seq, b in zip(placed, at):
        exec_block[seq] = b
        o[b] += 1
    served: dict[tuple[int, int, int], list[int]] = {}  # in creation order
    for i, carries, eid in uses:
        remote = at[i]
        if assignment[carries] != remote:
            served.setdefault((eid, carries, remote), []).append(placed[i])

    channels = tuple(Channel(edge=eid, carries=carries, remote=remote,
                             first_use=seqs[0], last_use=seqs[-1])
                     for (eid, carries, remote), seqs in served.items())
    e = [0] * blocks
    open_until: dict[tuple[int, int], int] = {}  # (carries, remote) -> last use
    for i, c in enumerate(channels):  # in order of first use
        if open_until.get((c.carries, c.remote), -1) >= c.first_use:
            raise ValueError(f"channel {i} opens at gate {c.first_use} while another "
                             f"channel of qubit {c.carries} to block {c.remote} is open")
        open_until[c.carries, c.remote] = c.last_use
        e[assignment[c.carries]] += 1
        e[c.remote] += 1

    data = np.bincount(assignment, minlength=blocks).tolist()  # every vertex is a qubit
    per_block = tuple(QpuPlan(data=data[b], o=o[b], e=e[b],
                              r=e[b] / o[b] if o[b] else None)
                      for b in range(blocks))
    return DistributionPlan(assignment=tuple(assignment), channels=channels,
                            exec_block=tuple(exec_block), per_block=per_block,
                            cut=cut_cost(h, list(assignment), blocks),
                            ebits=2 * len(channels))


def _plan_ledger(circuit: Circuit, h: Hypergraph, blocks: int):
    """``plan_distribution``'s per-block o and e for many assignments at once.

    Returns ``ledger(assign) -> (o, e)``: ``assign`` is a seeds x vertices
    block matrix over ``h``, and o and e are seeds x blocks int matrices
    equal to the plan's per-block counts for every row.  Gates are placed
    by ``_placement``, which raises the plan's InfeasibleError for a
    refused row.  Channels are counted once per (edge, carried vertex,
    remote block) key, so CCX fallback channels and group edges shared by
    several gates count as the plan counts them.
    """
    _, uses, place = _placement(circuit, h)
    use_at, use_q, use_edge = np.array(uses, dtype=np.intp).reshape(-1, 3).T
    width = len(h.vertices)
    keys, use_channel = np.unique(use_edge * width + use_q, return_inverse=True)
    key_q = keys % width

    def ledger(assign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        seeds = len(assign)
        at = place(assign)
        offset = blocks * np.arange(seeds)[:, None]

        def per_block(cells, weights=None):
            return np.bincount((cells + offset).ravel(), weights=weights,
                               minlength=seeds * blocks).reshape(seeds, blocks)

        o = per_block(at)
        remote = at[:, use_at]
        row, use = np.nonzero(assign[:, use_q] != remote)
        opened = np.zeros((seeds, len(keys), blocks), dtype=bool)
        opened[row, use_channel[use], remote[row, use]] = True
        home = assign[:, key_q].astype(np.intp)
        e = opened.sum(axis=1) + per_block(home, opened.sum(axis=2).ravel()).astype(np.int64)
        return o, e

    return ledger


# --------------------------------------------------------------------------
# subcircuit emission

def emit_subcircuits(circuit: Circuit, plan: DistributionPlan) -> list[str]:
    """One OpenQASM program per QPU, in block order.

    Programs re-declare the original registers at full size and only touch
    the slice that lives locally, plus an ``ebit`` register of e slots,
    one per channel endpoint, numbered on each block as its channels open.
    Channel activity is marked with ``// channel`` comments; the opaque cat
    primitives carry the nonlocal protocol.  One sweep over the gates
    appends each line to the body of the block it runs on.  A remote
    operand reads the slot of the open channel of its (carried qubit,
    block) pair, from a table written at each entangler and cleared at its
    disentangler.  A pair has at most one open channel, which
    ``plan_distribution`` checks; the runs of ``find_groups`` never open
    two, since a run ends at any other gate on its control.
    """
    names = circuit.qubits()
    block_of = plan.assignment  # a qubit's index is its vertex

    channels = plan.channels
    entangle_at: dict[int, list[int]] = {}  # first-use gate -> channels
    release_at: dict[int, list[int]] = {}
    for i, c in enumerate(channels):
        entangle_at.setdefault(c.first_use, []).append(i)
        release_at.setdefault(c.last_use, []).append(i)

    cregs = _cregs(circuit)
    bodies: list[list[str]] = [[] for _ in plan.per_block]
    opaque: list[list] = [[] for _ in plan.per_block]  # opaque gates run there
    used = [0] * len(plan.per_block)  # ebit slots opened so far, per block
    live: dict[tuple[int, int], int] = {}  # (carries, remote) -> its open channel's slot
    for seq, g in enumerate(circuit.gates):
        for i in entangle_at.get(seq, ()):
            c = channels[i]
            home = block_of[c.carries]
            bodies[home] += (f"// channel {i}",
                             f"cat_entangler {names[c.carries]},ebit[{used[home]}];")
            used[home] += 1
            live[c.carries, c.remote] = used[c.remote]
            used[c.remote] += 1
        b = plan.exec_block[seq]
        if g.kind is GateKind.BARRIER:  # each block synchronises its own wires
            local: dict[int, list[str]] = {}
            for q in g.operands:
                local.setdefault(block_of[q], []).append(names[q])
            for lb, ops in local.items():
                bodies[lb].append(_gate_line(g, ops, cregs))
        else:
            ops = [names[q] if block_of[q] == b else f"ebit[{live[q, b]}]"
                   for q in g.operands]
            bodies[b].append(_gate_line(g, ops, cregs))
            if g.kind is GateKind.OPAQUE:
                opaque[b].append(g)
        for i in release_at.get(seq, ()):
            c = channels[i]
            bodies[c.remote] += (f"// channel {i}",
                                 f"cat_disentangler ebit[{live.pop((c.carries, c.remote))}];")

    homes = {block_of[c.carries] for c in channels}
    remotes = {c.remote for c in channels}
    texts = []
    for b, body in enumerate(bodies):
        cat = (("opaque cat_entangler a,b;",) if b in homes else ()) + \
              (("opaque cat_disentangler a;",) if b in remotes else ())
        lines = _preamble(circuit, opaque[b], cregs, cat, plan.per_block[b].e)
        texts.append("\n".join(lines + body) + "\n")
    return texts
