"""Fiduccia-Mattheyses partitioning over circuit hypergraphs.

``partition`` is the one entry point.  Every FM mode runs through one
restart driver: each seeded restart deals a shuffled or a grown order of
the vertices and runs passes until one fails; the restarts run in pairs,
the grown deal of each pair first, and the winner has the lowest (lambda
- 1 as its last pass kept it, balance deviation, restart index).
Two blocks and ``Mode.DIRECT_KWAY`` call the driver once over all blocks,
recursive bisection once per split with its side capacities.  Only
``partition`` reads the config, and it prices the result once.  A split
keeps the restriction of every edge inside each side, so later splits of
an already cut edge are charged exactly as the global metric charges
them.
A deal has two halves.  The shuffle (``_shuffles``) depends only on the
seed and the vertex count, so one draw can serve many hypergraphs and
block counts, as a bench suite's does per circuit.  Every other restart
grows a breadth-first order from it (``_grown``), as the graph growing
of METIS and hMETIS does (Karypis & Kumar, SIAM J. Sci. Comput. 20(1),
1998).
The deal turns an order into blocks, one per capacity, from the
capacities and the weights, heaviest first; a grown order fills each
block in one run, with the shuffle's loads.  Its block sequence is
stated once (``_dealt``) and dealt two ways: one Python row at a time
(``_dealer``), which is all a restart or ``Mode.RANDOM`` needs, and a
seeds x vertices numpy matrix at a time in ``random_deals``, which deals
and prices the bench's Random rows.  The random partition of a seed is
the shuffled deal of that seed, and the tests pin the two ways to each
other row for row.  Only ``random_deals`` imports numpy, so the
partition path never loads it.
``expected_ebits`` prices the mean of that partition over every shuffle
in closed form; it is the CLI's baseline and the bench's grouped one.

A vertex weight counts only toward the load bound, as in hMETIS, and a
weight-0 vertex (hMETIS files only) is the lightest weight class and
nothing else: it is shuffled, dealt, moved and priced like any other,
and it keeps its block in use.

Every k runs the same FM pass.  It keeps a per-(vertex, target) gain
cache, as in KaHyPar's k-way FM.  Edges come in two kinds.  A two-pin
edge, most edges of a circuit hypergraph, is a graph edge, as in FM's own
update rule (Fiduccia & Mattheyses, DAC 1982): a move adjusts the gains of
its unlocked mate once, from the mate's block alone.  A wider edge keeps
its pin count per block, and a move adjusts only the pins of those whose
count in the source or target block crosses 0, 1 or 2.  So a pass does
work linear in the pins it touches.  Every move takes the
highest gain, then the lowest vertex index and target, from lazy
min-heaps of int keys, which the cache stores as they are pushed
(``_pass``), with rollback to the best feasible prefix.  Balance is
capacity-driven: a move may overfill the target by at most the mover's
weight while the pass explores; returned prefixes always satisfy the
strict bound, so without that transient slack an exactly filled balanced
instance would admit no moves at all.

A pass ends early once no later prefix can beat the best one, and the
restart driver once no restart yet to run can beat its winner's cost;
both bounds are exact.  The pass's cutoff changes the work done, never
the result (``_pass``).  The driver's never changes the cost, and
changes the restart returned only when another ties the winner at the
bound (``_restart_driver``).  The driver's bound is the larger of two:
the cost of spanning the blocks in use, which the grown deal of a GHZ
chain meets with no move, so each pair runs its grown deal first, and,
when every vertex weighs 1, the capacity floor, which prices each edge at
the fewest blocks its pins can fill within the bounds; grouped qft meets
it at every bisection split.  All
restarts share one engine: the per-hypergraph tables are built once per
driver call, and ``_Engine.reset`` rebuilds only the wider edges' pin
counts and the loads.
"""
from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .hypergraph import CutReport, Hyperedge, Hypergraph, _cut_rows, cut_cost

_MAX_PASSES = 32  # FM passes per restart at most


class InfeasibleError(ValueError):
    """Capacities cannot host the circuit (sum of capacities below width)."""


class Mode(Enum):
    RECURSIVE_BISECT = "fm"
    DIRECT_KWAY = "kway"
    RANDOM = "random"


@dataclass(frozen=True, slots=True)
class PartitionConfig:
    """Knobs of ``partition``, the one partitioning entry point.

    capacities=None means an equal split of the total vertex weight over
    the blocks; a block's capacity is its load bound.  restarts run the seeds
    seed, seed+1, ... in pairs, the grown deal of each pair first (seed+1,
    seed, seed+3, seed+2, ...), and keep the best result.  It is an upper
    bound: the restarts stop early once one reaches a cost no other restart
    can beat, which a chain's grown deal meets with no move.  The cost is
    always the one all of them would give; only a tie at that cost may
    return another restart.
    """

    blocks: int = 2
    capacities: tuple[int, ...] | None = None
    restarts: int = 8
    seed: int = 0
    mode: Mode = Mode.RECURSIVE_BISECT

    def __post_init__(self) -> None:
        if self.blocks < 2:
            raise ValueError("need at least 2 blocks")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        if self.capacities is not None:
            object.__setattr__(self, "capacities", tuple(self.capacities))
            if len(self.capacities) != self.blocks:
                raise ValueError(f"{self.blocks} blocks but {len(self.capacities)} capacities")
            if any(c < 1 for c in self.capacities):
                raise ValueError("capacities must be positive")


def resolve_capacities(capacities, n: int, blocks: int) -> list[int]:
    """Explicit capacities, or an equal split of n over the blocks that
    gives every block at least one unit, as ``PartitionConfig`` requires of
    explicit ones.

    Raises InfeasibleError when the total capacity is below n, the total
    vertex weight.
    """
    if capacities is None:
        base, extra = divmod(n, blocks)
        return [max(1, base + (1 if b < extra else 0)) for b in range(blocks)]
    caps = list(capacities)
    if sum(caps) < n:
        raise InfeasibleError(f"capacities sum to {sum(caps)}, need at least {n}")
    return caps


@dataclass(frozen=True, slots=True)
class PartitionResult:
    """``loads`` is the vertex weight (data qubits) per block.

    ``passes_run`` and ``gain_updates`` count the winning restart of each
    driver call only, summed over the splits of recursive bisection; a
    losing restart's passes show in the run time, not in these counts."""

    assignment: tuple[int, ...]
    cut: CutReport
    loads: tuple[int, ...]
    passes_run: int
    seed_used: int
    gain_updates: int = 0


# --------------------------------------------------------------------------
# shared engine state

class _Engine:
    """Tables of one hypergraph under fixed block bounds, built once from
    its vertex and edge tuples in one sweep over the edges' pins, plus the
    state of the assignment being refined, which ``reset`` sets before
    each refinement; ``cost`` is the lambda - 1 the last ``_pass`` left.
    ``reset`` also zeroes the refinement's work counts, which each
    ``_pass`` adds to: ``passes``, ``moves`` and ``gain_updates``, every
    (vertex, target) gain-cache entry computed or adjusted.  The counts
    cover the work done before each pass's cutoff, not the moves a pass
    without it would have made and rolled back.

    Edges come in two kinds.  A two-pin edge is a graph edge: ``pairs``
    lists it once as (a, b, weight, weight * n), and ``mates[v]`` holds
    (mate, weight, weight * n) for each two-pin edge of v, so a move
    prices it from the two blocks alone.  ``wide`` lists the ids of the
    wider edges and ``winc[v]`` those of v; each keeps a row of pin counts
    per block, ``phi[e]``, and ``phi`` holds None for every two-pin edge.
    ``pins``, ``ew`` and ``ewn``, each weight times n, list every edge, and
    ``inc[v]`` the ids of v's, which ``_grown`` walks, in ascending order.

    ``floor`` is the capacity floor: a lower bound on the cost of every
    assignment within the bounds when every vertex weighs 1, and 0
    otherwise.  With ``big`` the running sums of the bounds, largest
    first, an edge of p pins spans at least ``bisect_left(big, p) + 1``
    blocks, and the floor sums its weight times that count less one."""

    def __init__(self, h: Hypergraph, bounds: list[int]):
        self.k = k = len(bounds)
        self.bounds = bounds
        self.pins = pins = [e.pins for e in h.edges]
        self.ew = ew = [e.weight for e in h.edges]
        self.vw = [v.weight for v in h.vertices]
        n = len(self.vw)
        # a pass caches each gain g of a move of v as its heap key
        # (top - g) * n + v, so a change of w in a gain moves the key by w * n
        self.ewn = ewn = [w * n for w in ew]
        # edge weights are non-negative, so every real gain lies in
        # [-top, top] and its key in [0, limit); a masked key is its real
        # key plus limit, and a dead one lies above every masked key
        self.top = top = sum(ew)
        self.limit = (1 + 2 * top) * n
        self.dead = 2 * self.limit
        self.others = [[t for t in range(k) if t != b] for b in range(k)]
        # the key of a move's gain before crediting the edges it leaves or
        # already touches in the target: that gain is minus v's weighted
        # degree, which the one sweep over the edges below adds up
        self.away = away = [top * n + v for v in range(n)]
        self.pairs, self.wide = pairs, wide = [], []
        self.mates = mates = [[] for _ in self.vw]
        self.inc = inc = [[] for _ in self.vw]
        self.winc = winc = [[] for _ in self.vw]
        for e, (edge_pins, w, wn) in enumerate(zip(pins, ew, ewn)):
            for p in edge_pins:
                inc[p].append(e)
                away[p] += wn
            if len(edge_pins) == 2:
                a, b = edge_pins
                pairs.append((a, b, w, wn))
                mates[a].append((b, w, wn))
                mates[b].append((a, w, wn))
            else:
                wide.append(e)
                for p in edge_pins:
                    winc[p].append(e)
        self.pieces = _pieces(n, pins)
        self.w_min = min(ew, default=0)
        self.floor = 0
        if all(w == 1 for w in self.vw):
            big = list(itertools.accumulate(sorted(bounds, reverse=True)))
            self.floor = sum(w * bisect_left(big, len(pins)) for pins, w in zip(self.pins, ew))

    def reset(self, assignment: list[int]) -> None:
        """Refine ``assignment`` from now on, in place; only the wider
        edges' pin counts and the per-block tallies are rebuilt, since a
        two-pin edge is priced from its pins' blocks."""
        k = self.k
        self.assign = assignment
        self.passes = self.moves = self.gain_updates = 0
        self.phi = phi = [None] * len(self.pins)
        for e in self.wide:
            phi[e] = row = [0] * k
            for p in self.pins[e]:
                row[assignment[p]] += 1
        self.load = [0] * k   # vertex weight per block
        self.count = [0] * k  # vertices per block
        self.xor = [0] * k    # XOR of the block's vertex ids: its lone vertex at count 1
        for v, b in enumerate(assignment):
            self.load[b] += self.vw[v]
            self.count[b] += 1
            self.xor[b] ^= v

    def least(self) -> int:
        """A lower bound on the cost of every assignment whose occupied
        blocks include those occupied now: a connected piece of the
        hypergraph over b blocks costs at least (b - 1) times the lightest
        edge, and every block in use holds some piece.  Never below 0, the
        cost of any assignment."""
        return max(0, self.w_min * (self.k - self.count.count(0) - self.pieces))

    def overloaded(self) -> int:
        return sum(1 for b in range(self.k) if self.load[b] > self.bounds[b])


def _pieces(n: int, pins: list[tuple[int, ...]]) -> int:
    """Connected components of n vertices joined by the edges' pins."""
    parent = list(range(n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for edge_pins in pins:
        first = root(edge_pins[0])  # stays a root: only other roots join it
        for p in edge_pins[1:]:
            parent[root(p)] = first
    return sum(1 for x in range(n) if root(x) == x)


# --------------------------------------------------------------------------
# passes

def _pass(eng: _Engine) -> bool:
    """One FM pass over every block; mutates eng.assign, returns True when
    the best prefix strictly improved the cost, and adds the pass and its
    work to the engine's counts.

    ``gains[t][v]`` caches the gain g of moving v to block t as its heap
    key ``(top - g) * n + v``.  ``top`` is the sum of the edge weights.  A
    move changes the cost of each of v's edges by at most that edge's
    weight, so a real gain lies in [-top, top], its key in [0, ``limit``),
    and the smallest key is the highest gain, then the lowest vertex index,
    whatever v weighs.  A gain is minus v's weighted degree, whose key is
    ``away[v]``, plus the weight of v's edges where v is the only pin of
    its block, plus the weight of v's edges that already touch t; a change
    of w in a gain moves its key by ``w * n``, kept per edge.  One sweep
    over the cut edges builds the cache and sums the start cost.  A cut
    two-pin edge credits its weight to both pins in a column shared by
    every target, and once more in the column of the mate's block.  A cut
    wider edge credits its weight to its pins once, in the shared column,
    and takes it back in the blocks it misses, which at k=2 are none.
    Entries that may not move sit at or above ``limit``: a vertex's own
    block and locked vertices hold ``dead``, and the lone vertex of a block,
    ``eng.xor[b]`` while ``eng.count[b]`` is 1, carries an offset of
    ``limit`` that delta updates leave exact.

    Each cache write of a key below ``limit`` pushes that int on t's lazy
    min-heap, so masked and dead entries never enter a heap, and an entry
    names its vertex as ``x % n`` and its gain as ``top - x // n``.
    Selection skips every target over its bound, pops an entry once the
    cache no longer holds it, and takes the smallest entry over the other
    heaps, then the lowest target.

    Moving v from src to target changes the gains of the unlocked mate u
    of a two-pin edge of weight w by one rule, with no pin scan: with u in
    src, +2w toward target and +w toward every other block; with u in
    target, -2w toward src and -w toward every other block; with u in a
    third block, +w toward target and -w toward src.  These count k, k and
    2 gain updates, as the pin-count rule of a wider edge would.  A wider
    edge's pins are adjusted only where its count in src or target crosses
    0, 1 or 2.

    Cutoff: ``locked_cost`` sums w_e * (blocks of e's locked pins - 1),
    kept up to date at each lock in O(deg v).  A two-pin edge adds its
    weight when v locks away from a locked mate's block; a wider edge
    keeps those blocks as a bitmask, ``seen[e]``.  ``least`` is
    ``eng.least()``: the lightest edge weight times the occupied blocks
    less the hypergraph's connected pieces.  Every later prefix costs at
    least both, so the pass stops once either reaches the best feasible
    cost, before the first move when the start cost is already that low.
    The engine's capacity floor is left to the restart driver: it bounds
    only prefixes within the bounds, and a pass stopped by it would count
    other work.
    Only strictly better feasible prefixes are kept, so the prefix, the
    assignment and the result match a pass run until no vertex may move.
    The moves past the best prefix are then undone in reverse, and
    ``eng.cost`` keeps that prefix's cost, exact as every gain is.
    """
    k, assign, vw, pins, phi = eng.k, eng.assign, eng.vw, eng.pins, eng.phi
    ew, ewn, mates, winc = eng.ew, eng.ewn, eng.mates, eng.winc
    load, count, xor, bounds, others = eng.load, eng.count, eng.xor, eng.bounds, eng.others
    top, limit, dead = eng.top, eng.limit, eng.dead
    mask = limit  # a masked key lies in [limit, 2 * limit)
    n = len(vw)
    base = list(eng.away)  # less every cut edge of v and those v alone holds
    partial = []           # cut wider edges that miss some block
    split = []             # cut two-pin edges
    start_cost = 0
    for a, b, w, wn in eng.pairs:
        if assign[a] != assign[b]:
            start_cost += w
            base[a] -= wn
            base[b] -= wn
            split.append((a, b, wn))
    for e in eng.wide:
        row = phi[e]
        spanned = k - row.count(0)
        if spanned == 1:
            continue  # an uncut edge only touches its pins' own block
        start_cost += ew[e] * (spanned - 1)
        wn = ewn[e]
        alone = wn + wn
        for u in pins[e]:
            base[u] -= alone if row[assign[u]] == 1 else wn
        if spanned < k:
            partial.append(e)
    gains = [list(base) for _ in range(k)]
    for a, b, wn in split:  # a cut two-pin edge credits the mate's block once more
        gains[assign[b]][a] -= wn
        gains[assign[a]][b] -= wn
    for e in partial:
        wn, row = ewn[e], phi[e]
        for t in range(k):
            if not row[t]:
                col = gains[t]
                for u in pins[e]:
                    col[u] += wn
    for v in range(n):
        gains[assign[v]][v] = dead
    updates = n * (k - 1)
    heaps = [[x for x in col if x < limit] for col in gains]
    for hp in heaps:
        heapify(hp)

    def shift(u: int, dx: int) -> None:
        for t in others[assign[u]]:
            x = gains[t][u] + dx
            gains[t][u] = x
            if x < limit:
                heappush(heaps[t], x)

    # a block's lone vertex is masked exactly while it is unlocked
    for b in range(k):
        if count[b] == 1:
            shift(xor[b], mask)
            updates += k - 1

    locked = [False] * n
    seen = [0] * len(pins)
    locked_cost = 0
    # no block loses its last vertex, so every prefix spans at least the
    # blocks occupied now
    least = eng.least()
    cur = best_cost = start_cost
    best_prefix = 0
    over = eng.overloaded()
    moves: list[tuple[int, int]] = []

    while locked_cost < best_cost and least < best_cost:
        best, target = limit, -1
        for t in range(k):
            if load[t] > bounds[t]:
                continue
            col, hp = gains[t], heaps[t]
            while hp:
                x = hp[0]
                if col[x % n] == x:
                    if x < best:
                        best, target = x, t
                    break
                heappop(hp)
        if target < 0:
            break
        best_g, v = top - best // n, best % n
        src = assign[v]
        for t in range(k):
            gains[t][v] = dead
        locked[v] = True
        bit = 1 << target

        for u, w, wn in mates[v]:
            b = assign[u]
            if locked[u]:
                if b != target:
                    locked_cost += w
            elif b == src:  # the edge becomes cut: u gains w more toward target
                for t in others[b]:
                    x = gains[t][u] - (wn + wn if t == target else wn)
                    gains[t][u] = x
                    if x < limit:
                        heappush(heaps[t], x)
                updates += k
            elif b == target:  # the edge becomes uncut: u loses w more toward src
                for t in others[b]:
                    x = gains[t][u] + (wn + wn if t == src else wn)
                    gains[t][u] = x
                    if x < limit:
                        heappush(heaps[t], x)
                updates += k
            else:  # the credit for joining v's block moves from src to target
                x = gains[target][u] - wn
                gains[target][u] = x
                if x < limit:
                    heappush(heaps[target], x)
                x = gains[src][u] + wn
                gains[src][u] = x
                if x < limit:
                    heappush(heaps[src], x)
                updates += 2
        for e in winc[v]:
            blocks = seen[e]
            if not blocks & bit:
                if blocks:
                    locked_cost += ew[e]
                seen[e] = blocks | bit
            wn, row = ewn[e], phi[e]
            if row[target] == 0:
                col, hp = gains[target], heaps[target]
                for u in pins[e]:
                    if not locked[u]:
                        x = col[u] - wn
                        col[u] = x
                        if x < limit:
                            heappush(hp, x)
                        updates += 1
            elif row[target] == 1:
                for u in pins[e]:
                    if assign[u] == target:
                        if not locked[u]:
                            shift(u, wn)
                            updates += k - 1
                        break
            row[src] -= 1
            row[target] += 1
            if row[src] == 0:
                col, hp = gains[src], heaps[src]
                for u in pins[e]:
                    if not locked[u]:
                        x = col[u] + wn
                        col[u] = x
                        if x < limit:
                            heappush(hp, x)
                        updates += 1
            elif row[src] == 1:
                for u in pins[e]:
                    if u != v and assign[u] == src:
                        if not locked[u]:
                            shift(u, -wn)
                            updates += k - 1
                        break
        assign[v] = target
        w = vw[v]
        over -= (load[src] > bounds[src]) + (load[target] > bounds[target])
        load[src] -= w
        load[target] += w
        over += (load[src] > bounds[src]) + (load[target] > bounds[target])
        count[src] -= 1
        count[target] += 1
        xor[src] ^= v
        xor[target] ^= v
        if count[src] == 1 and not locked[u := xor[src]]:
            shift(u, mask)
            updates += k - 1
        if count[target] == 2 and not locked[u := xor[target] ^ v]:
            shift(u, -mask)
            updates += k - 1

        cur -= best_g
        moves.append((v, src))
        if over == 0 and cur < best_cost:
            best_cost = cur
            best_prefix = len(moves)

    eng.cost = best_cost
    eng.passes += 1
    eng.moves += len(moves)
    eng.gain_updates += updates
    for v, src in reversed(moves[best_prefix:]):
        target = assign[v]
        for e in winc[v]:
            row = phi[e]
            row[target] -= 1
            row[src] += 1
        assign[v] = src
        load[target] -= vw[v]
        load[src] += vw[v]
        count[target] -= 1
        count[src] += 1
        xor[target] ^= v
        xor[src] ^= v
    return best_cost < start_cost


# --------------------------------------------------------------------------
# initial and random partitions

def _deal_blocks(caps: list[int], weights: list[int]) -> list[int]:
    """Block of the pos-th dealt vertex, whose weight is weights[pos].

    Position pos < k = len(caps) goes to block pos when it fits there, so
    no block starts empty; a weight-0 vertex takes no capacity and goes to
    block pos % k.  Every other vertex goes to the block with the most
    remaining capacity (lowest index on ties) and spends its weight there,
    even when it fits nowhere: ``partition`` then reports that block over
    its capacity.  With every weight 1 each vertex fits, and the sequence
    is that of one capacity unit per vertex.
    """
    k = len(caps)
    remaining = list(caps)
    blocks = []
    for pos, w in enumerate(weights):
        if w == 0 or pos < k and remaining[pos] >= w:
            b = pos % k
        else:
            b = max(range(k), key=lambda i: (remaining[i], -i))
        blocks.append(b)
        remaining[b] -= w
    return blocks


def _shuffles(n: int, seeds):
    """The seeded shuffle of n vertex positions for each seed, one list at
    a time: ``range(n)`` shuffled by ``random.Random(seed)``.  It depends
    on nothing but the seed and n, so one draw serves every hypergraph
    with n vertices and every k.

    The draw is ``random.Random(seed).shuffle``'s written out, without its
    call per swap: for i from n - 1 down to 1 it swaps position i with the
    first ``getrandbits((i + 1).bit_length())`` that is at most i, as
    CPython's ``_randbelow_with_getrandbits`` picks it.
    """
    swaps = [(i, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
    for seed in seeds:
        bits = random.Random(seed).getrandbits
        order = list(range(n))
        for i, width in swaps:
            j = bits(width)
            while j > i:
                j = bits(width)
            order[i], order[j] = order[j], order[i]
        yield order


def _grown(eng: _Engine, perm: list[int]) -> list[int]:
    """A ``_shuffles`` row grown into a breadth-first order of the engine's
    vertices: from the row's first vertex, through each vertex's unreached
    neighbours (the pins of its edges, ``eng.inc``) in the row's order, and
    again from the row's first unreached vertex when a piece runs out.
    Each edge is expanded once."""
    pins, inc = eng.pins, eng.inc
    rank = [0] * len(perm)  # each vertex's position in the row
    for i, v in enumerate(perm):
        rank[v] = i
    reached, expanded = [False] * len(perm), [False] * len(pins)
    order, head, start = [], 0, 0  # order[head:] is the queue
    while len(order) < len(perm):
        if head == len(order):  # a piece ran out
            while reached[perm[start]]:
                start += 1
            reached[perm[start]] = True
            order.append(perm[start])
        nbrs = []
        for e in inc[order[head]]:
            if not expanded[e]:
                expanded[e] = True
                nbrs += [u for u in pins[e] if not reached[u]]
                for u in pins[e]:
                    reached[u] = True
        head += 1
        order += sorted(nbrs, key=rank.__getitem__)
    return order


def _dealt(h: Hypergraph, caps: list[int], runs: bool = False):
    """The deal of ``h`` over one block per resolved capacity, as (key,
    blocks).  An order's vertices, heaviest first and in the order within a
    weight, take the blocks of ``blocks`` in turn: the ``_deal_blocks``
    sequence, the same for every order.  ``runs`` sorts that sequence
    within each weight, so each block takes one run of a weight's vertices,
    with the same count.  ``key`` lists the vertex weights to sort an order
    by, or is None when every vertex weighs the same, as in every circuit
    hypergraph: the order is then already heaviest first."""
    weights = [v.weight for v in h.vertices]
    heaviest = sorted(weights, reverse=True)
    blocks = _deal_blocks(caps, heaviest)
    if runs:
        blocks = [b for _, b in sorted(zip([-w for w in heaviest], blocks))]
    return (None if len(set(weights)) < 2 else weights), blocks


def _dealer(h: Hypergraph, caps: list[int], runs: bool = False):
    """Returns ``deal(order)``, which turns one order of the vertices (a
    ``_shuffles`` row or ``_grown`` of one) into the list of their blocks
    under ``_dealt``."""
    key, blocks = _dealt(h, caps, runs)

    def deal(order: list[int]) -> list[int]:
        if key is not None:  # heaviest first; the sort is stable
            order = sorted(order, key=key.__getitem__, reverse=True)
        assign = [0] * len(order)
        for v, b in zip(order, blocks):
            assign[v] = b
        return assign

    return deal


def random_deals(h: Hypergraph, config: PartitionConfig, draw):
    """The random partition of every seed of ``draw``, one matrix at a time.

    ``draw`` yields the rows of ``_shuffles`` of the vertex count as seeds x
    vertices matrices of any unsigned dtype, as ``bench`` builds them.  For
    each matrix, yields the deals as a seeds x vertices block matrix of the
    smallest unsigned dtype, and their cut edges and ebits from
    ``hypergraph._cut_rows``; row i is the assignment and cut that
    ``partition`` gives with ``Mode.RANDOM`` and that row's seed, dealt
    here with numpy's stable argsort and one scatter per matrix.  Resolves
    the capacities once, and raises InfeasibleError as
    ``resolve_capacities`` does.  The bench's batch path.
    """
    import numpy as np

    k = config.blocks
    key, blocks = _dealt(h, resolve_capacities(
        config.capacities, sum(v.weight for v in h.vertices), k))
    dtype = np.min_scalar_type(k)
    order = np.array(blocks, dtype=dtype)
    weights = None if key is None else np.array(key, dtype=np.int64)
    for perms in draw:
        if weights is not None:  # heaviest first; the stable sort keeps a row's order
            perms = np.take_along_axis(
                perms, np.argsort(-weights[perms], axis=1, kind="stable"), axis=1)
        assign = np.empty(perms.shape, dtype=dtype)
        assign[np.arange(len(perms))[:, None], perms] = order
        yield (assign, *_cut_rows(h, assign, k))


def expected_ebits(h: Hypergraph, config: PartitionConfig) -> float:
    """The exact mean ebits of ``random_deals`` over every shuffle.

    The deal fills a fixed block sequence from a uniform shuffle, so the
    vertices of each weight class, weight 0 included, take that class's
    dealt positions as a uniform random bijection, independently of the
    other classes.  Block b misses an edge's pins with probability, over
    the weight classes w, of the product of C(n_w - c_wb, m_w) / C(n_w,
    m_w), where the class has n_w vertices, c_wb of its positions go to b
    and the edge has m_w pins in it.  Edges are summed per class-count
    key, each key is priced once in integers, and the exact sum is rounded
    to a float only at the end, so ghz10 at k=2 prices to exactly 10.
    Raises InfeasibleError as ``resolve_capacities`` does.
    """
    k = config.blocks
    weights = sorted((v.weight for v in h.vertices), reverse=True)
    caps = resolve_capacities(config.capacities, sum(weights), k)
    classes = {w: i for i, w in enumerate(dict.fromkeys(weights))}
    sizes = [0] * len(classes)
    dealt = [[0] * k for _ in classes]  # c_wb
    for w, b in zip(weights, _deal_blocks(caps, weights)):
        sizes[classes[w]] += 1
        dealt[classes[w]][b] += 1
    keys: dict[tuple[int, ...], int] = {}
    for e in h.edges:
        counts = [0] * len(classes)
        for p in e.pins:
            counts[classes[h.vertices[p].weight]] += 1
        key = tuple(counts)
        keys[key] = keys.get(key, 0) + e.weight
    total = Fraction(0)  # the exact sum of w_e * (E[spanned] - 1)
    for counts, w in keys.items():
        # E[spanned] - 1 = (k - 1) - sum_b P(b misses the pins), over one denominator
        whole = math.prod(math.comb(n, m) for n, m in zip(sizes, counts))
        missed = sum(math.prod(math.comb(n - dealt[i][b], m)
                               for i, (n, m) in enumerate(zip(sizes, counts)))
                     for b in range(k))
        total += Fraction(w * ((k - 1) * whole - missed), whole)
    return float(2 * total)  # rounds the exact ratio once


# --------------------------------------------------------------------------
# drivers

def _restart_driver(h: Hypergraph, caps: list[int],
                    seeds: range) -> tuple[list[int], int, int, int]:
    """Seeded restarts over ``len(caps)`` blocks, each load bounded by its capacity.

    Restart r draws the shuffle of seeds[r].  An even restart deals it as
    ``Mode.RANDOM`` does; an odd restart deals ``_grown`` of it, each block
    in one run.  The restarts run in pairs, the grown deal of each pair
    first: 1, 0, 3, 2, ..., and an unpaired last restart last.  The seeds
    are shuffled one at a time in that order, and none after the cutoff
    below.  Each restart runs ``_pass`` on its freshly dealt list until a
    pass fails or ``_MAX_PASSES`` run; the engine is its one record.  The
    winner has the lowest (``eng.cost``, balance deviation from the
    capacities, r) over the restarts that ran; returns its engine's
    assignment, passes and gain updates, and its seed.

    The restarts stop once the winner's key reaches (bound, 0), the bound
    being the larger of ``_Engine.least()`` of the deal and the engine's
    capacity ``floor``.  Every deal fills the same blocks and no pass
    empties a block, so ``least`` holds for every restart.  The floor is 0
    unless every vertex weighs 1; then every deal is within the bounds and
    a pass keeps only prefixes within them, so every restart ends at or
    above it.  A restart yet to run can at best tie on both, so the cost
    and deviation are always those that running every restart gives; only
    such a tie may return another restart, as when both deals of the first
    pair to meet the bound meet it and the grown one, run first, wins.  A
    grown deal of a chain is already at the bound, which its first pass
    finds with no move.  The bound is at most the cost of the random
    partition of seeds[0], and a pass keeps only a prefix that lowers the
    cost, so FM never ends above that partition.  All restarts share one
    engine, built once.
    """
    n = sum(v.weight for v in h.vertices)
    total = sum(caps)
    eng = _Engine(h, caps)
    deal, deal_runs = _dealer(h, caps), None  # the run dealer is built on first use
    best, best_key = None, None
    order = [r ^ 1 if r ^ 1 < len(seeds) else r for r in range(len(seeds))]  # 1, 0, 3, 2, ...
    for r, perm in zip(order, _shuffles(len(h.vertices), (seeds[r] for r in order))):
        if r % 2:
            deal_runs = deal_runs or _dealer(h, caps, runs=True)
            eng.reset(deal_runs(_grown(eng, perm)))  # a fresh list, refined in place
        else:
            eng.reset(deal(perm))
        bound = max(eng.least(), eng.floor)
        while _pass(eng) and eng.passes < _MAX_PASSES:
            pass
        key = (eng.cost, sum(abs(load - c * n / total) for load, c in zip(eng.load, caps)), r)
        if best_key is None or key < best_key:
            best, best_key = (eng.assign, eng.passes, seeds[r], eng.gain_updates), key
            if key[:2] == (bound, 0):
                break
    return best


def _recursive_bisection(h: Hypergraph, caps: list[int],
                         seeds: range) -> tuple[list[int], int, int, int]:
    """Recursive bisection down to the capacity list; returns the
    assignment, the winning restarts' passes, seeds[0] and the winners'
    gain updates, each count summed over the splits.

    The capacity list is split into two halves with greedily balanced
    sums, and each split runs ``_restart_driver`` over two sides.  A side's
    capacity is its blocks' capacity sum, but at most the part's weight
    less one unit for each block of the other side, so that every block
    keeps a vertex of weight 1 or more, and at least 1; the split is dealt
    and bounded by it.  ``partition`` sends input lighter than its blocks
    to the one driver, so a part is lighter than its blocks only when the
    split above it stayed over a side capacity, which takes vertices
    heavier than 1; it still splits, and leaves a block empty, or raises
    InfeasibleError if the side capacities sum below the part's weight.
    Each side keeps the restriction of every edge with two or more pins
    inside it, so later splits of an already cut edge are charged exactly
    once more, matching the global metric.
    """
    assignment = [0] * len(h.vertices)
    passes_total = 0
    updates_total = 0

    def split_blocks(block_ids: list[int]) -> tuple[list[int], list[int]]:
        left: list[int] = []
        right: list[int] = []
        lsum = rsum = 0
        for b in sorted(block_ids, key=lambda b: (-caps[b], b)):
            if lsum <= rsum:
                left.append(b)
                lsum += caps[b]
            else:
                right.append(b)
                rsum += caps[b]
        return sorted(left), sorted(right)

    def restrict(vertex_ids: list[int]) -> Hypergraph:
        local = {g: i for i, g in enumerate(vertex_ids)}
        edges = []
        for e in h.edges:
            pins = tuple(local[p] for p in e.pins if p in local)
            if len(pins) >= 2:
                edges.append(Hyperedge(pins=pins, weight=e.weight))
        return Hypergraph([h.vertices[g] for g in vertex_ids], edges)

    def rec(vertex_ids: list[int], block_ids: list[int]) -> None:
        nonlocal passes_total, updates_total
        if len(block_ids) == 1:
            for g in vertex_ids:
                assignment[g] = block_ids[0]
            return
        left, right = split_blocks(block_ids)
        # the top split keeps every vertex and every edge: it runs on h
        sub_h = h if len(vertex_ids) == len(h.vertices) else restrict(vertex_ids)
        weight_here = sum(v.weight for v in sub_h.vertices)
        side_caps = resolve_capacities(
            [max(1, min(sum(caps[b] for b in side), weight_here - len(other)))
             for side, other in ((left, right), (right, left))], weight_here, 2)
        sides, passes, _, updates = _restart_driver(sub_h, side_caps, seeds)
        passes_total += passes
        updates_total += updates
        rec([g for i, g in enumerate(vertex_ids) if sides[i] == 0], left)
        rec([g for i, g in enumerate(vertex_ids) if sides[i] == 1], right)

    rec(list(range(len(h.vertices))), list(range(len(caps))))
    return assignment, passes_total, seeds[0], updates_total


def partition(h: Hypergraph, config: PartitionConfig) -> PartitionResult:
    """Partition ``h`` as config.mode says: the random deal, one restart
    driver over all blocks (two blocks, or ``Mode.DIRECT_KWAY``), or
    recursive bisection built from that driver.  The random deal is the
    config seed's row of the deal ``random_deals`` makes.  Bisection
    reserves one unit of weight for each block of the other side at every
    split, so input that weighs less than its block count, which only
    weight-0 vertices can fill, runs the one driver, whose pass keeps every
    block in use.

    The capacities are resolved once, here, and the driver and the
    bisection take them and the restarts' seeds, not the config.  Every
    mode's result is priced once, here, with one ``cut_cost``.

    Raises ValueError when an FM mode gets more blocks than vertices
    (``Mode.RANDOM`` deals them and leaves the blocks it misses empty), and
    InfeasibleError when the capacities cannot host the vertex weights, or
    when a block of the result holds more than its capacity: the deal puts
    a hypergraph vertex that fits in no block into the one with the most
    room left, and FM keeps only prefixes within every capacity.
    """
    k = config.blocks
    weight = sum(v.weight for v in h.vertices)
    caps = resolve_capacities(config.capacities, weight, k)
    if config.mode is Mode.RANDOM:
        perm, = _shuffles(len(h.vertices), [config.seed])
        assignment = _dealer(h, caps)(perm)
        passes, seed, updates = 0, config.seed, 0
    elif k > len(h.vertices):
        raise ValueError(f"{k} blocks exceed the {len(h.vertices)} vertices")
    else:
        refine = (_restart_driver if k == 2 or config.mode is Mode.DIRECT_KWAY or weight < k
                  else _recursive_bisection)
        assignment, passes, seed, updates = refine(
            h, caps, range(config.seed, config.seed + config.restarts))
    cut = cut_cost(h, assignment, k)
    loads = [0] * k
    for b, v in zip(assignment, h.vertices):
        loads[b] += v.weight
    for b, (load, cap) in enumerate(zip(loads, caps)):
        if load > cap:
            raise InfeasibleError(f"block {b} has load {load}, over its capacity {cap}")
    return PartitionResult(assignment=tuple(assignment), cut=cut,
                           loads=tuple(loads), passes_run=passes,
                           seed_used=seed, gain_updates=updates)
