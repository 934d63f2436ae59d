"""Fiduccia-Mattheyses partitioning over circuit hypergraphs.

``partition`` is the one entry point.  Every FM mode runs through one
restart driver: each seeded restart deals a shuffled or a grown order of
the vertices and runs passes until one fails; the winner has the lowest
(lambda - 1, balance deviation, restart index).
Two blocks and ``Mode.DIRECT_KWAY`` call the driver once over all blocks,
and the winner keeps the price its rank key was read from; recursive
bisection calls it once per split, with that split's side capacities,
and prices its result once.  A split keeps the restriction of every edge
inside each side, so later splits of an already cut edge are charged
exactly as the global metric charges them.  The deal is written once,
over a seeds x vertices block matrix (``_dealer``).
A deal has two halves.  The shuffle (``_shuffles``) depends only on the
seed and the vertex count, so one draw can serve many hypergraphs and
block counts, as a bench suite's does per circuit.  Every other restart
grows a breadth-first order from it (``_grown``), as the graph growing
of METIS and hMETIS does (Karypis & Kumar, SIAM J. Sci. Comput. 20(1),
1998).
The deal turns an order into blocks from the capacities, k and the
weights, heaviest first; a grown order fills each block in one run, with
the shuffle's loads.
``random_deals`` deals and prices a draw one matrix of at most 128 seeds
at a time; it is the one random partition, of ``Mode.RANDOM`` and the
bench's Random rows.
``expected_ebits`` prices the mean of that partition over every shuffle
in closed form; it is the CLI's baseline and the bench's grouped one.

A vertex weight counts only toward the load bound, as in hMETIS, and a
weight-0 vertex (hMETIS files only) is the lightest weight class and
nothing else: it is shuffled, dealt, moved and priced like any other,
and it keeps its block in use.

Every k runs the same FM pass.  It keeps a per-(vertex, target) gain
cache, as in KaHyPar's k-way FM; a move adjusts only the pins of edges
whose pin count in the source or target block crosses 0, 1 or 2, so a
pass does work linear in the pins it touches.  Every move takes the
highest gain, then the lowest vertex index and target, from lazy
min-heaps of int entries (``_pass``), with rollback to the best feasible
prefix.  Balance is capacity-driven: a move may overfill the target by
at most the mover's weight while the pass explores; returned prefixes
always satisfy the strict bound, so without that transient slack an
exactly filled balanced instance would admit no moves at all.

A pass ends early once no later prefix can beat the best one, and the
restart driver once no later restart can beat its winner; both bounds
are exact, so the cutoffs change the work done, never the result
(``_pass``, ``_restart_driver``).  On GHZ chains the first restart
usually meets the driver's bound.  All restarts share one engine: the
per-hypergraph tables are built once per driver call, and
``_Engine.reset`` rebuilds only the assignment's pin counts and loads.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from heapq import heapify, heappop, heappush

import numpy as np

from .hypergraph import CutReport, Hyperedge, Hypergraph, cut_cost

_MAX_PASSES = 32  # FM passes per restart at most


class InfeasibleError(ValueError):
    """Capacities cannot host the circuit (sum of capacities below width)."""


class Mode(Enum):
    RECURSIVE_BISECT = "fm"
    DIRECT_KWAY = "kway"
    RANDOM = "random"


@dataclass(frozen=True)
class PartitionConfig:
    """Knobs of ``partition``, the one partitioning entry point.

    capacities=None means an equal split of the total vertex weight over
    the blocks; a block's capacity is its load bound.  restarts run the seeds
    seed, seed+1, ... and keep the best result.  It is an upper bound: the
    restarts stop early once one reaches a cost no later restart can beat,
    with the result all of them would give.
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


@dataclass(frozen=True)
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


@dataclass
class _PassStats:
    """Instrumentation for one pass; gain_updates counts every
    (vertex, target) gain-cache entry computed or adjusted.  Both counts
    cover the work done before the pass's cutoff, not the moves a pass
    without it would have made and rolled back."""

    moves: int = 0
    gain_updates: int = 0


# --------------------------------------------------------------------------
# shared engine state

class _Engine:
    """Tables of one hypergraph under fixed block bounds, built once, plus
    the state of the assignment being refined, which ``reset`` sets before
    each refinement."""

    def __init__(self, h: Hypergraph, blocks: int, bounds: list[int]):
        self.k = blocks
        self.bounds = bounds
        self.pins = [list(e.pins) for e in h.edges]
        self.ew = [e.weight for e in h.edges]
        self.vw = [v.weight for v in h.vertices]
        self.inc = h.incidence
        # edge weights are non-negative, so every real gain lies in
        # [-top, top]; a masked or dead entry lies below -top
        self.top = sum(self.ew)
        self.mask = 1 + 2 * self.top
        self.dead = -2 * self.top - 2 * self.mask
        self.others = [[t for t in range(blocks) if t != b] for b in range(blocks)]
        # a move's gain before crediting the edges it leaves or already
        # touches in the target: minus v's weighted degree
        self.away = [-sum(self.ew[e] for e in edges) for edges in self.inc]
        self.pieces = _pieces(len(self.vw), self.pins)
        self.w_min = min(self.ew, default=0)

    def reset(self, assignment: list[int]) -> None:
        """Refine ``assignment`` from now on, in place; only the per-edge
        pin counts and the per-block tallies are rebuilt."""
        k = self.k
        self.assign = assignment
        self.phi = [[0] * k for _ in self.pins]
        for row, pins in zip(self.phi, self.pins):
            for p in pins:
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


def _pieces(n: int, pins: list[list[int]]) -> int:
    """Connected components of n vertices joined by the edges' pins."""
    parent = list(range(n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for edge_pins in pins:
        for p in edge_pins[1:]:
            parent[root(p)] = root(edge_pins[0])
    return sum(1 for x in range(n) if root(x) == x)


# --------------------------------------------------------------------------
# passes

def _pass(eng: _Engine, stats: _PassStats | None = None) -> bool:
    """One FM pass over every block; mutates eng.assign, returns True when
    the best prefix strictly improved the cost.

    ``gains[t][v]`` caches the gain of moving v to block t: ``away[v]``,
    plus the weight of v's edges where v is the only pin of its block,
    plus the weight of v's edges that already touch t.  One sweep over the
    cut edges builds it and sums the start cost: each cut edge adds its
    weight to its pins once, in a column shared by every target, and
    subtracts it again from the blocks it misses, which at k=2 are none.
    Entries that may not move sit below every real gain: a vertex's own
    block and locked vertices hold ``dead``, and the lone vertex of a block,
    ``eng.xor[b]`` while ``eng.count[b]`` is 1, carries a ``-mask`` offset
    that delta updates leave exact.

    Each cache write of a real gain g of a move to t pushes the one int
    ``(top - g) * n + v`` on t's lazy min-heap, whatever v weighs.  ``top``
    is the sum of the edge weights.  A move changes the cost of each of v's
    edges by at most that edge's weight, so a real gain g lies in [-top,
    top], ``top - g`` in [0, 2 * top], and the smallest entry is the
    highest gain, then the lowest vertex index.  A masked gain is at most top - mask = -top - 1
    and a dead one stays below it, so neither passes the push's ``g >=
    -top`` test: masked entries never enter a heap, and every entry
    decodes to a real gain.  Selection skips every target over its bound,
    pops an entry once the key recomputed from the cache no longer equals
    it, and takes the smallest entry over the other heaps, then the lowest
    target.

    Cutoff: ``seen[e]`` holds the blocks of e's locked pins as a bitmask,
    and ``locked_cost`` sums w_e * (blocks in seen[e] - 1), kept up to date
    at each lock in O(deg v).  ``least`` is ``eng.least()``: the lightest
    edge weight times the occupied blocks less the hypergraph's connected
    pieces.  Every later prefix costs at least both, so the pass stops
    once either reaches the best feasible cost, before the first move when
    the start cost is already that low.  Only strictly better feasible
    prefixes are kept, so the prefix, the assignment and the result match
    a pass run until no vertex may move.
    The moves past the best prefix are then undone in reverse.
    """
    k, assign, vw, inc, pins, ew, phi = (eng.k, eng.assign, eng.vw, eng.inc,
                                         eng.pins, eng.ew, eng.phi)
    load, count, xor, bounds, others = eng.load, eng.count, eng.xor, eng.bounds, eng.others
    top, mask, dead = eng.top, eng.mask, eng.dead
    floor = -top
    n = len(vw)
    base = list(eng.away)  # plus every cut edge of v and those v alone holds
    partial = []           # cut edges that miss some block
    start_cost = 0
    for e, row in enumerate(phi):
        spanned = k - row.count(0)
        if spanned == 1:
            continue  # an uncut edge only touches its pins' own block
        w = ew[e]
        start_cost += w * (spanned - 1)
        alone = w + w
        for u in pins[e]:
            base[u] += alone if row[assign[u]] == 1 else w
        if spanned < k:
            partial.append(e)
    gains = [list(base) for _ in range(k)]
    for e in partial:
        w, row = ew[e], phi[e]
        for t in range(k):
            if not row[t]:
                col = gains[t]
                for u in pins[e]:
                    col[u] -= w
    for v in range(n):
        gains[assign[v]][v] = dead
    updates = n * (k - 1)
    heaps = [[(top - g) * n + v for v in range(n) if (g := col[v]) >= floor]
             for col in gains]
    for hp in heaps:
        heapify(hp)

    def shift(u: int, delta: int) -> None:
        for t in others[assign[u]]:
            g = gains[t][u] + delta
            gains[t][u] = g
            if g >= floor:
                heappush(heaps[t], (top - g) * n + u)

    # a block's lone vertex is masked exactly while it is unlocked
    for b in range(k):
        if count[b] == 1:
            shift(xor[b], -mask)
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
    limit = (2 * top + 1) * n  # above every entry
    moves: list[tuple[int, int]] = []

    while locked_cost < best_cost and least < best_cost:
        best, target = limit, -1
        for t in range(k):
            if load[t] > bounds[t]:
                continue
            col, hp = gains[t], heaps[t]
            while hp:
                x = hp[0]
                if col[x % n] == top - x // n:
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

        for e in inc[v]:
            w = ew[e]
            blocks = seen[e]
            if not blocks & bit:
                if blocks:
                    locked_cost += w
                seen[e] = blocks | bit
            row = phi[e]
            if row[target] == 0:
                col = gains[target]
                for u in pins[e]:
                    if not locked[u]:
                        g = col[u] + w
                        col[u] = g
                        if g >= floor:
                            heappush(heaps[target], (top - g) * n + u)
                        updates += 1
            elif row[target] == 1:
                for u in pins[e]:
                    if assign[u] == target:
                        if not locked[u]:
                            shift(u, -w)
                            updates += k - 1
                        break
            row[src] -= 1
            row[target] += 1
            if row[src] == 0:
                col = gains[src]
                for u in pins[e]:
                    if not locked[u]:
                        g = col[u] - w
                        col[u] = g
                        if g >= floor:
                            heappush(heaps[src], (top - g) * n + u)
                        updates += 1
            elif row[src] == 1:
                for u in pins[e]:
                    if u != v and assign[u] == src:
                        if not locked[u]:
                            shift(u, w)
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
            shift(u, -mask)
            updates += k - 1
        if count[target] == 2 and not locked[u := xor[target] ^ v]:
            shift(u, mask)
            updates += k - 1

        cur -= best_g
        moves.append((v, src))
        if over == 0 and cur < best_cost:
            best_cost = cur
            best_prefix = len(moves)

    if stats:
        stats.moves += len(moves)
        stats.gain_updates += updates
    for v, src in reversed(moves[best_prefix:]):
        target = assign[v]
        for e in inc[v]:
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

def _deal_blocks(caps: list[int], weights: list[int], k: int) -> list[int]:
    """Block of the pos-th dealt vertex, whose weight is weights[pos].

    Position pos < k goes to block pos when it fits there, so no block
    starts empty; a weight-0 vertex takes no capacity and goes to block
    pos % k.  Every other vertex goes to the block with the most remaining
    capacity (lowest index on ties) and spends its weight there, even when
    it fits nowhere: ``partition`` then reports that block over its
    capacity.  With every weight 1 each vertex fits, and the sequence is
    that of one capacity unit per vertex.
    """
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


_CHUNK = 128  # seeds shuffled together; bounds the working set


def _shuffles(n: int, seeds):
    """The seeded shuffle of n vertex positions for each seed, as an
    iterator of seeds x n matrices of at most ``_CHUNK`` rows in the
    smallest unsigned dtype; row i is ``range(n)`` shuffled by
    ``random.Random(seed)``.  It depends on nothing but the seeds and n, so
    one draw serves every hypergraph with n vertices and every k.
    """
    dtype = np.min_scalar_type(max(n - 1, 0))
    it = iter(seeds)
    while chunk := list(itertools.islice(it, _CHUNK)):
        perms = []
        for seed in chunk:
            order = list(range(n))
            random.Random(seed).shuffle(order)
            perms.append(order)
        yield np.array(perms, dtype=dtype).reshape(len(chunk), n)


def _grown(h: Hypergraph, perms: np.ndarray) -> np.ndarray:
    """Each row of a seeds x vertices matrix of ``_shuffles`` grown into a
    breadth-first order of the same vertices: from the row's first vertex,
    through each vertex's unreached neighbours (the pins of its edges) in
    the row's order, and again from the row's first unreached vertex when
    a piece runs out.  Each row expands an edge once."""
    pins, inc = [e.pins for e in h.edges], h.incidence
    grown = np.empty_like(perms)
    # a shuffle's argsort is its inverse: each vertex's rank in the row
    for out, perm, rank in zip(grown, perms.tolist(), np.argsort(perms, axis=1).tolist()):
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
        out[:] = order
    return grown


def _dealer(h: Hypergraph, config: PartitionConfig, runs: bool = False):
    """Returns ``deal(perms)``, which turns a seeds x n matrix of orders of
    the n vertices (``_shuffles`` or ``_grown``) into the seeds x n block
    matrix of their deals.  Raises InfeasibleError as
    ``resolve_capacities`` does.  Each row's vertices, heaviest first and
    in the row's order within a weight, are handed out in the order of
    ``_deal_blocks``, the same for every seed.  ``runs`` sorts that sequence
    within each weight: each block then takes one run of a weight's
    vertices, with the same count."""
    k = config.blocks
    weights = np.array([v.weight for v in h.vertices], dtype=np.int64)
    caps = resolve_capacities(config.capacities, int(weights.sum()), k)
    dtype = np.min_scalar_type(k)
    heaviest = sorted(weights.tolist(), reverse=True)
    blocks = _deal_blocks(caps, heaviest, k)
    if runs:
        blocks = [b for _, b in sorted(zip([-w for w in heaviest], blocks))]
    order = np.array(blocks, dtype=dtype)

    def deal(perms: np.ndarray) -> np.ndarray:
        # heaviest first; the stable sort keeps the row's order within a weight
        perms = np.take_along_axis(
            perms, np.argsort(-weights[perms], axis=1, kind="stable"), axis=1)
        assign = np.empty(perms.shape, dtype=dtype)
        assign[np.arange(len(perms))[:, None], perms] = order
        return assign

    return deal


def _cut_rows(h: Hypergraph, assign: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``cut_cost``'s cut edges and ebits for each row of a seeds x vertices
    block matrix; the blocks each edge spans are summed per block from
    ``logical_or.reduceat`` over the edges' pins."""
    if not h.edges:
        zero = np.zeros(len(assign), dtype=np.int64)
        return zero, zero
    pins = [p for e in h.edges for p in e.pins]
    starts = np.cumsum([0] + [len(e.pins) for e in h.edges[:-1]])
    weights = np.array([e.weight for e in h.edges], dtype=np.int64)
    got = assign[:, pins]
    extra = np.full((len(assign), len(h.edges)), -1, dtype=np.int32)  # spanned - 1
    for b in range(k):
        extra += np.logical_or.reduceat(got == b, starts, axis=1)
    return (extra > 0).sum(axis=1), 2 * (extra @ weights)


def random_deals(h: Hypergraph, config: PartitionConfig, draw):
    """The random partition of every seed of ``draw``, one matrix at a time.

    ``draw`` is ``_shuffles`` of the vertex count.  For each of its
    matrices, yields the deals as a seeds x vertices block matrix, and
    their cut edges and ebits from ``_cut_rows``; row i is the assignment
    and cut that ``partition`` gives with ``Mode.RANDOM`` and that row's
    seed.  Raises InfeasibleError as the deal does.
    """
    deal = _dealer(h, config)
    for perms in draw:
        assign = deal(perms)
        yield (assign, *_cut_rows(h, assign, config.blocks))


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
    Raises InfeasibleError as the deal does.
    """
    k = config.blocks
    weights = sorted((v.weight for v in h.vertices), reverse=True)
    caps = resolve_capacities(config.capacities, sum(weights), k)
    classes = {w: i for i, w in enumerate(dict.fromkeys(weights))}
    sizes = [0] * len(classes)
    dealt = [[0] * k for _ in classes]  # c_wb
    for w, b in zip(weights, _deal_blocks(caps, weights, k)):
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

def _restart_driver(h: Hypergraph,
                    config: PartitionConfig) -> tuple[list[int], CutReport, int, int, int]:
    """Seeded restarts, each block's load bounded by its capacity.

    Restart r draws the shuffle of seed config.seed + r.  An even restart
    deals it as ``Mode.RANDOM`` does, and a pass keeps only a prefix that
    lowers the cost, so FM is never worse than the random partition of
    config.seed; an odd restart deals ``_grown`` of it, each block in one
    run.  Each kind is dealt in one matrix, and the grown orders only once
    restart 0 misses the cutoff.  Each restart runs ``_pass`` until a pass
    fails or ``_MAX_PASSES`` run.  The winner has the lowest (lambda - 1,
    balance deviation from the capacities, r); returns its assignment, its
    ``CutReport`` (priced once, for that key), passes, seed and gain
    updates.

    The restarts stop once the winner's key reaches (``_Engine.least()`` of
    the deal, 0).  Every deal fills the same blocks and no pass empties a
    block, so that bound holds for every restart; a later restart can at
    best tie on both and then loses on r.  The result is the one all
    ``config.restarts`` restarts give.  All restarts share one engine,
    whose tables are built once.
    """
    n = sum(v.weight for v in h.vertices)
    caps = resolve_capacities(config.capacities, n, config.blocks)
    total = sum(caps)
    perms = np.concatenate([*_shuffles(len(h.vertices),
                                       range(config.seed, config.seed + config.restarts))])
    eng = _Engine(h, config.blocks, caps)

    def deals():
        shuffled = _dealer(h, config)(perms[::2])
        yield shuffled[0]
        grown = _dealer(h, config, runs=True)(_grown(h, perms[1::2]))
        for r in range(1, len(perms)):
            yield grown[r // 2] if r % 2 else shuffled[r // 2]

    best, best_key = None, None
    for r, row in enumerate(deals()):
        assignment = row.tolist()
        eng.reset(assignment)  # refined in place
        least = eng.least()
        stats = _PassStats()
        passes = 0
        while passes < _MAX_PASSES:
            passes += 1
            if not _pass(eng, stats):
                break
        cut = cut_cost(h, assignment, config.blocks)
        key = (cut.lambda_minus_one,
               sum(abs(load - c * n / total) for load, c in zip(eng.load, caps)), r)
        if best_key is None or key < best_key:
            best, best_key = (assignment, cut, passes, config.seed + r, stats.gain_updates), key
            if key[:2] == (least, 0):
                break
    return best


def _recursive_bisection(h: Hypergraph, config: PartitionConfig,
                         caps: list[int]) -> tuple[list[int], int, int]:
    """Recursive bisection down to the capacity list; returns the
    assignment and the winning restarts' passes and gain updates, summed.

    The capacity list is split into two halves with greedily balanced
    sums, and each split runs ``_restart_driver`` over two sides.  A side's
    capacity is its blocks' capacity sum, but at most the part's weight
    less one unit for each block of the other side, so that every block
    keeps a vertex of weight 1 or more, and at least 1; the split is dealt
    and bounded by it.  ``partition`` sends input lighter than its blocks
    to the one driver, so a part is lighter than its blocks only when the
    split above it stayed over a side capacity, which takes vertices
    heavier than 1; it still splits, and leaves a block empty.  Each side
    keeps the restriction of every edge with two or more pins inside it,
    so later splits of an already cut edge are charged exactly once more,
    matching the global metric.
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
        side_caps = tuple(max(1, min(sum(caps[b] for b in side),
                                     weight_here - len(other)))
                          for side, other in ((left, right), (right, left)))
        sides, _, passes, _, updates = _restart_driver(
            sub_h, replace(config, blocks=2, capacities=side_caps))
        passes_total += passes
        updates_total += updates
        rec([g for i, g in enumerate(vertex_ids) if sides[i] == 0], left)
        rec([g for i, g in enumerate(vertex_ids) if sides[i] == 1], right)

    rec(list(range(len(h.vertices))), list(range(config.blocks)))
    return assignment, passes_total, updates_total


def partition(h: Hypergraph, config: PartitionConfig) -> PartitionResult:
    """Partition ``h`` as config.mode says: the random deal, one restart
    driver over all blocks (two blocks, or ``Mode.DIRECT_KWAY``), or
    recursive bisection built from that driver.  Bisection reserves one
    unit of weight for each block of the other side at every split, so
    input that weighs less than its block count, which only weight-0
    vertices can fill, runs the one driver, whose pass keeps every block in
    use.

    Every mode gives an (assignment, cut, passes, seed, gain updates)
    record, priced where it was made: the random row by ``random_deals``,
    the driver's winner by the driver.  Only recursive bisection, which has
    no single winner, is priced here with ``cut_cost``.

    Raises ValueError when there are more blocks than vertices, and
    InfeasibleError when the capacities cannot host the vertex weights, or
    when a block of the result holds more than its capacity: the deal puts
    a hypergraph vertex that fits in no block into the one with the most
    room left, and FM keeps only prefixes within every capacity.
    """
    k = config.blocks
    weight = sum(v.weight for v in h.vertices)
    caps = resolve_capacities(config.capacities, weight, k)
    if config.mode is Mode.RANDOM:
        (assign, (cut_edges,), (ebits,)), = random_deals(
            h, config, _shuffles(len(h.vertices), [config.seed]))
        cut = CutReport(cut_edges=int(cut_edges), lambda_minus_one=int(ebits) // 2,
                        ebits=int(ebits))
        run = (assign[0].tolist(), cut, 0, config.seed, 0)
    elif k > len(h.vertices):
        raise ValueError(f"{k} blocks exceed the {len(h.vertices)} vertices")
    elif k == 2 or config.mode is Mode.DIRECT_KWAY or weight < k:
        run = _restart_driver(h, config)
    else:
        assignment, passes, updates = _recursive_bisection(h, config, caps)
        run = (assignment, cut_cost(h, assignment, k), passes, config.seed, updates)
    assignment, cut, passes, seed, updates = run
    loads = [0] * k
    for b, v in zip(assignment, h.vertices):
        loads[b] += v.weight
    for b, (load, cap) in enumerate(zip(loads, caps)):
        if load > cap:
            raise InfeasibleError(f"block {b} has load {load}, over its capacity {cap}")
    return PartitionResult(assignment=tuple(assignment), cut=cut,
                           loads=tuple(loads), passes_run=passes,
                           seed_used=seed, gain_updates=updates)
