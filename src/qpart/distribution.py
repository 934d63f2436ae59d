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

These rules are stated once, in ``_placement``, as column lists that
say which operand's block runs each gate, which operands must share it
and which use a channel.  Two evaluators read them: ``_place`` on the
one assignment of ``plan_distribution``, in plain Python, and
``_plan_ledger`` on a numpy matrix of seeded deals, to give each row's
per-block counts without building its plan.  The bench's ledger is the
only code here that imports numpy, and the tests pin it to the plan row
for row.

This module computes numbers only.  ``emit_subcircuits`` hands a plan's
assignment, placement, channels and QPU count to the one QASM writer,
``circuit._programs``, which owns every statement, declaration, the
``ebit`` register and its width, and the cat primitives.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .circuit import Circuit, GateKind, _programs
from .fm import InfeasibleError
from .hypergraph import CutReport, Hypergraph, cut_cost


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class QpuPlan:
    """Per-QPU ledger: resident data qubits, executed original gates o and
    ebit endpoints e (also the width of the emitted program's ``ebit``
    register).  QPU b's ledger is ``DistributionPlan.per_block[b]``."""

    data: int
    o: int
    e: int


@dataclass(frozen=True, slots=True)
class DistributionPlan:
    assignment: tuple[int, ...]
    channels: tuple[Channel, ...]
    exec_block: tuple[int, ...]  # per gate position; -1 for BARRIER
    per_block: tuple[QpuPlan, ...]
    cut: CutReport
    # realised: 2 per channel; equals cut.ebits without fallbacks
    ebits = property(lambda self: 2 * len(self.channels))


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


class _Placement(NamedTuple):
    """The placement rules of one circuit over its hypergraph, as column
    lists that any assignment is read through.  Index i counts the placed
    gates, every gate but BARRIER, in circuit order: ``placed[i]`` is its
    circuit position and ``exec_col[i]`` its last operand, whose block runs
    it unless ``majority`` says otherwise.  ``majority`` holds (i, a, b, c)
    for each CCZ, which runs on a's block when b's agrees and on c's
    otherwise.  ``rigid`` holds (i, q) for each operand q that must be on
    gate i's block, and ``uses`` (i, q, edge) for each operand that needs a
    channel of that edge when q's block is not gate i's."""

    placed: list[int]
    exec_col: list[int]
    majority: list[tuple[int, int, int, int]]
    rigid: list[tuple[int, int]]
    uses: list[tuple[int, int, int]]


def _placement(circuit: Circuit, h: Hypergraph) -> _Placement:
    """Where each gate runs and which channels its remote operands use,
    for any assignment over ``h``.

    A CX/CCX runs on its target's block, a CZ/CP/CCZ on its majority block
    (ties to the last operand: the first two operands' block for a CCZ
    when they agree, else the last), and any other gate on its operands'
    one block.  Each operand of a CX/CCX or diagonal gate that has a
    hyperedge is a use: it needs a channel keyed (edge, carried vertex,
    remote block) when its block differs from the gate's.  Every other
    operand of a gate of two or more is rigid, and an assignment that
    puts it elsewhere is refused (``_refusal``).  The rules are read two
    ways: ``_place`` on one assignment for ``plan_distribution``, and
    ``_plan_ledger`` on a numpy matrix of them for the bench.  A gate whose
    edge leaves out one of its operands is a ValueError: the cut would not
    count the channel that operand needs.
    """
    seq_edge = _edge_of_gate(h)
    barrier, ccz = GateKind.BARRIER, GateKind.CCZ
    placed, exec_col, majority, rigid, uses = [], [], [], [], []
    # a wide edge's pins as a set, so that the check below is flat in its width
    held = [set(e.pins) if len(e.pins) > 3 else e.pins for e in h.edges]
    for seq, g in enumerate(circuit.gates):
        if g.kind is barrier:
            continue
        at = len(placed)
        placed.append(seq)
        cols = g.operands  # a qubit's index is its vertex
        exec_col.append(cols[-1])
        if len(cols) == 1:
            continue
        if g.kind is ccz:
            majority.append((at, *cols))
        eid = seq_edge.get(seq)
        if eid is not None:
            for q in cols:
                if q not in held[eid]:
                    raise ValueError(f"gate {seq} acts on qubit {q}, which its "
                                     f"edge {eid} does not hold")
        if eid is not None and g.kind.splittable:
            uses.extend((at, q, eid) for q in cols)
        else:
            rigid.extend((at, q) for q in cols)
    return _Placement(placed, exec_col, majority, rigid, uses)


def _refusal(circuit: Circuit, seq: int, block_of) -> InfeasibleError:
    """The error for gate ``seq``, split by the assignment ``block_of``
    although it has no hyperedge or cannot be split."""
    g = circuit.gates[seq]
    if g.kind.splittable:
        return InfeasibleError(f"gate {seq} ({g.qasm_name}) is split but has no hyperedge")
    blocks = sorted({int(block_of[q]) for q in g.operands})
    return InfeasibleError(f"gate {seq} ({g.qasm_name}) has operands on "
                           f"blocks {blocks} and cannot be split")


def _place(circuit: Circuit, p: _Placement, assignment: list[int]) -> list[int]:
    """The block that runs each placed gate under one assignment; raises
    ``_refusal`` for the first gate it splits that may not be split."""
    at = [assignment[q] for q in p.exec_col]
    for i, a, b, c in p.majority:
        a = assignment[a]
        at[i] = a if a == assignment[b] else assignment[c]
    for i, q in p.rigid:
        if assignment[q] != at[i]:
            raise _refusal(circuit, p.placed[i], assignment)
    return at


def plan_distribution(circuit: Circuit, h: Hypergraph, assignment: list[int],
                      groups=None, blocks: int | None = None) -> DistributionPlan:
    """Place every gate, open the channels remote operands need, and
    account ebits and gate counts per QPU.

    ``assignment`` is the vertex -> block map from the partitioner, over
    the same hypergraph ``h``, whose edges name their gates.  ``groups`` is
    unused; it is kept only for the call at ``perfbench/workloads.py:259``.
    The plan covers ``blocks`` QPUs, also those the assignment leaves
    empty; None means the blocks up to the highest one assigned.  Gates
    are placed by ``_place`` under the rules of ``_placement``.  An
    assignment that does not cover ``h``, or that names a block outside
    ``blocks``, is a ValueError naming the vertex.  So is a gate listed
    twice, an edge that leaves out an operand of one of its gates, and a
    plan where two channels of one qubit to one block are open at once, as
    a hand-built ``h`` with a group split by another edge of its control
    would give.
    """
    if blocks is None:
        blocks = max(assignment, default=0) + 1
    cut = cut_cost(h, list(assignment), blocks)  # checks the assignment first
    block_of = [int(b) for b in assignment]  # numpy integers are blocks too
    p = _placement(circuit, h)
    at = _place(circuit, p, block_of)
    placed, uses = p.placed, p.uses

    exec_block = [-1] * len(circuit.gates)  # BARRIER stays -1
    o = [0] * blocks
    for seq, b in zip(placed, at):
        exec_block[seq] = b
        o[b] += 1
    served: dict[tuple[int, int, int], list[int]] = {}  # in creation order
    for i, carries, eid in uses:
        remote = at[i]
        if block_of[carries] != remote:
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
        e[block_of[c.carries]] += 1
        e[c.remote] += 1

    data = [0] * blocks  # every vertex is a qubit
    for b in block_of:
        data[b] += 1
    per_block = tuple(QpuPlan(data=data[b], o=o[b], e=e[b]) for b in range(blocks))
    return DistributionPlan(assignment=tuple(assignment), channels=channels,
                            exec_block=tuple(exec_block), per_block=per_block,
                            cut=cut)


def _plan_ledger(circuit: Circuit, h: Hypergraph):
    """``plan_distribution``'s per-block o and e for many assignments at once.

    Places ``h``'s gates once (``_placement``) and returns ``ledger(assign,
    blocks) -> (o, e)`` for any block count: ``assign`` is a seeds x
    vertices block matrix over ``h``, and o and e are seeds x blocks int
    matrices equal to the plan's per-block counts for every row; a refused
    row raises the plan's InfeasibleError.  Channels are counted once per
    (edge, carried vertex, remote block) key, so CCX fallback channels and
    group edges shared by several gates count as the plan counts them.
    Each remote use marks its (row, key, remote block) cell in one flat
    bool array; every marked cell is one channel, which adds 1 to e at its
    remote block and 1 at the home block of the key's carried vertex.
    """
    import numpy as np

    p = _placement(circuit, h)

    def columns(rows, width):
        return np.array(rows, dtype=np.intp).reshape(-1, width).T

    exec_col = np.array(p.exec_col, dtype=np.intp)
    maj_at, maj_a, maj_b, maj_c = columns(p.majority, 4)
    rigid_at, rigid_q = columns(p.rigid, 2)
    use_at, use_q, use_edge = columns(p.uses, 3)
    width = len(h.vertices)
    keys, use_channel = np.unique(use_edge * width + use_q, return_inverse=True)
    key_q = keys % width

    def place(assign):
        # _place on every row: its first refused row raises _place's error
        at = assign[:, exec_col].astype(np.intp)
        a, b = assign[:, maj_a], assign[:, maj_b]
        at[:, maj_at] = np.where(a == b, a, assign[:, maj_c])
        refused = assign[:, rigid_q] != at[:, rigid_at]
        if refused.any():
            row = refused.any(axis=1).argmax()
            raise _refusal(circuit, p.placed[rigid_at[refused[row].argmax()]], assign[row])
        return at

    def ledger(assign: np.ndarray, blocks: int) -> tuple[np.ndarray, np.ndarray]:
        seeds = len(assign)

        def per_block(cells):
            return np.bincount(cells.ravel(), minlength=seeds * blocks).reshape(seeds, blocks)

        at = place(assign)
        o = per_block(at + blocks * np.arange(seeds)[:, None])
        remote = at[:, use_at]
        row, use = np.divmod(np.flatnonzero(assign[:, use_q] != remote), len(use_q))
        opened = np.zeros(seeds * len(keys) * blocks, dtype=bool)
        opened[(row * len(keys) + use_channel[use]) * blocks + remote[row, use]] = True
        row_key, far = np.divmod(np.flatnonzero(opened), blocks)
        row, key = np.divmod(row_key, len(keys))
        home = assign[row, key_q[key]].astype(np.intp)
        row *= blocks  # the row's first cell in the flat seeds x blocks count
        return o, per_block(row + far) + per_block(row + home)

    return ledger


# --------------------------------------------------------------------------
# subcircuit emission

def emit_subcircuits(circuit: Circuit, plan: DistributionPlan) -> list[str]:
    """One OpenQASM program per QPU, in block order: ``circuit._programs``
    on the plan's assignment, gate placement and channels; each QPU's
    ``ebit`` register has its e slots.  A circuit that names a register
    ``ebit``, or an opaque gate like a cat primitive, is a ValueError when
    the plan has a channel."""
    return _programs(circuit, plan.assignment, plan.exec_block, plan.channels,
                     len(plan.per_block))
