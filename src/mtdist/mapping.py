"""Branch-mapping distance between merge trees.

The distance is the minimum aggregated cost over all branch mappings -- by
default also minimized over all branch decompositions of both trees ("free"
mode), or restricted to one given decomposition per tree ("fixed" mode).

The dynamic program works on states ``(n1, p1, n2, p2)``: the current nodes
in both trees plus the start vertices of the branches currently being
tracked. Because the base costs are pure branch distances, only the start
*values* matter, so the states of one tree are the pairs (node, ancestor).
Free mode numbers them into the rows and columns of one flat table and
fills it with numpy in anti-diagonal waves of node heights, which keeps
large instances (hundreds of nodes) fast. Either tree may also be a forest:
the layouts of several trees joined into one (``compute_matrix`` joins the
row trees of a block of consecutive pairs, and their partners, under one
rule: a pair joins the block while its table takes at most
``_BLOCK_BYTES``, and never more than the table limit), whose table holds
each pair of members' pair table as its rows and columns, bit for bit, so
that each wave serves all of the block's pairs in one batch. Each pair's
mapping is walked from its own members' entries through a view of each
forest that carries that member's node ids, so the walker reads it as it
reads a single tree's layout. The row chunks of a wave that holds at least
two full chunks are filled on the calling thread and up to one helper
thread per further CPU the process may run on; every other step, and every
wave of a multiprocessing child such as a ``compute_matrix`` pool worker,
runs on the calling thread alone. In fixed mode the decompositions fix
every branch start, so each node has one state: the same layout with one
row per node, whose only live child slot is the continuation, filled by the
same waves and joined into forests the same way. The table keeps one value
per state and no record of the winning option: one walker reconstructs the
mapping, and at each state it visits it evaluates the options again, in the
fill's order and with its arithmetic, and takes the first whose value
equals the entry. At an inner-inner state the options are, in this
fixed order:

1. continue tree 1's branch through one child, deleting the sibling
   subtrees, leaving tree 2 untouched (one option per child);
2. symmetrically for tree 2;
3. pick the continuation child in both trees and optimally match the
   remaining children against each other, unmatched ones being deleted or
   inserted wholly (one option per continuation pair).

Fixed mode offers only the continuation children of the decompositions.
The first minimum wins, which makes reported mappings reproducible.
"""

from __future__ import annotations

import os
import queue
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .branches import Branch, BranchDecomposition
from .errors import PreconditionError, SizeLimitError, _choice
from .matching import matching_costs, min_cost_matching as _assignment
from .metrics import MODE_NAMES, BaseMetric, aggregate, dp_terms, finalize
from .trees import MergeTree, ValidationReport, _layout_order, _memoized, require_valid


@dataclass(frozen=True)
class MemoStats:
    """Size of the DP state space actually materialized.

    ``keys`` counts the (n1, p1, n2, p2) states of the tree-vs-tree tables;
    the delete/insert-against-empty subproblems are separate (n, p) tables
    counted in ``null_keys``. ``bound`` is |T1| * depth(T1) * |T2| * depth(T2).
    """

    keys: int
    null_keys: int
    bound: int


@dataclass(frozen=True)
class BranchMapping:
    """A validated-by-construction branch mapping with its edit costs."""

    tree1: MergeTree | None
    tree2: MergeTree | None
    decomposition1: BranchDecomposition | None
    decomposition2: BranchDecomposition | None
    pairs: tuple[tuple[Branch, Branch], ...]
    pair_costs: tuple[float, ...]
    deletions: tuple[Branch, ...]
    insertions: tuple[Branch, ...]
    total_cost: float
    metric: BaseMetric
    mode: str
    stats: MemoStats

    def edit_costs(self):
        """Base costs of every edit operation (pairs, deletions, insertions)."""
        out = list(self.pair_costs)
        out.extend(self.metric.deletion(b.low, b.high) for b in self.deletions)
        out.extend(self.metric.deletion(b.low, b.high) for b in self.insertions)
        return out

    def to_json_dict(self):
        costs = [round(c, 9) for c in self.edit_costs()]
        p, d = len(self.pairs), len(self.deletions)
        return {
            "metric": self.metric.kind,
            "mode": self.mode,
            "totalCost": round(self.total_cost, 9),
            "pairs": [
                {"t1Start": a.start, "t1Leaf": a.leaf, "t2Start": b.start, "t2Leaf": b.leaf, "cost": c}
                for (a, b), c in zip(self.pairs, costs)
            ],
            "deletions": [
                {"start": b.start, "leaf": b.leaf, "cost": c}
                for b, c in zip(self.deletions, costs[p:])
            ],
            "insertions": [
                {"start": b.start, "leaf": b.leaf, "cost": c} for b, c in zip(self.insertions, costs[p + d:])
            ],
        }


# ---------------------------------------------------------------------------
# the state tables of both modes
#
# State (v, i) is a non-root node v whose branch starts at v's i-th ancestor
# (root first); in fixed mode the decomposition fixes that start, so each
# node has the one state (v, 0). Every tree numbers its states into
# contiguous rows, so the delete table is one vector and the pair table one
# (S1+1) x (S2+1) array.
# A pair-table entry depends only on entries whose heights sum to less, so
# the table is filled in anti-diagonal waves t = height(v) + height(w); the
# (h1, t - h1) rectangles of one wave are independent of each other.
#
# Forests. _join lays several trees out as one, its nodes ordered by
# (height, child count, member, position), with every member's slot, tip,
# cost and delete entries remapped onto the joined rows. An entry reads only
# its own members' rows and the shared pad rows, and evaluates the same
# options in the same order (an option a forest has beyond a member's
# leads to a pad row, +inf), so a pair of members' entries equal their own
# pair table's bit for bit, whichever tree is a forest; only the waves are
# shared. The walker and winner read each tree through a member's view: the
# forest's arrays with that member's children, entry, live, off and last, so
# node ids stay the member tree's own.
#
# Threads. The row chunks of one wave write disjoint entries and read only
# earlier waves. So when a wave's slice rectangles (or wave 0's leaf grid)
# hold at least two full _CHUNK_VALUES chunks, helper threads fill chunks
# while the calling thread costs the next rectangle's saddle sides, and then
# the calling thread fills chunks too: one helper per further CPU the process
# may run on, but no more threads than the wave holds full chunks. The
# threads split one chunk's budget, and a wave whose widest row would not fit
# a thread's share gets fewer threads, so the temporaries in flight stay one
# chunk's worth. A wave's saddle sides, a few values per node pair, are all
# costed before the calling thread fills a chunk. The helpers are joined at
# the end of the wave, also when a step raises, so no thread outlives the
# fill and a later fork (compute_matrix's pool) forks no fill thread.
# A chunk's size changes no entry's arithmetic: the table is the same bit for
# bit. The saddle sides (_node_sides, and through it matching_costs and
# min_cost_matching) and the flat batch stay on the calling thread: a flat
# batch is bound by per-call overhead, and a profiler or tracer that wraps
# those functions sees their calls nested as without threads. The trees of
# small-tree matrices and tracks never reach the gate. A multiprocessing
# child, such as a compute_matrix pool worker, fills with one thread, as the
# pool already spreads pairs over the CPUs.
# ---------------------------------------------------------------------------

# Rectangles of a wave with at least this many states are filled with row and
# column slices; the smaller ones of a wave are concatenated into one flat
# index batch. Slices alone cost one batch per rectangle on small trees; flat
# batches alone need several index arrays per state on large ones. A slice
# rectangle, like wave 0, is evaluated in row chunks of about _CHUNK_VALUES
# values; a flat batch evaluates all its options at once, unchunked.
_SLICE_STATES = 2048
_CHUNK_VALUES = 1 << 18


try:  # the most bytes a table may take: half the physical memory
    _TABLE_LIMIT = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2
except (AttributeError, ValueError, OSError):  # os.sysconf cannot tell: no limit
    _TABLE_LIMIT = None


def _check_table(what, rows, cols, per_entry):
    """Refuse a table of ``rows`` x ``cols`` entries, before it is built,
    if its call would take ``per_entry`` bytes per entry over the limit."""
    need = rows * cols * per_entry
    if _TABLE_LIMIT is not None and need > _TABLE_LIMIT:
        raise SizeLimitError(
            f"{what} of {rows} x {cols} entries needs {need / 2**30:.1f} GiB, "
            f"over {_TABLE_LIMIT / 2**30:.1f} GiB, half the physical memory"
        )


class _Flat:
    """Flat state layout of one tree and its delete table.

    State (v, i) is row ``off[v] + i``; ``last[v]`` is v's state when its
    branch starts at v's parent, and ``D[r]`` the cheapest deletion of row
    r's subtree. Nodes are numbered in (height, child count, id) order --
    ``first[h]`` is the position of the first of height h -- so the states
    of one height form the contiguous rows ``rows[h]:rows[h + 1]``; row
    ``S`` is a +inf pad standing in for missing child slots. ``dmax[h]`` is
    the largest child count of height h. ``pos[r]`` is the position of row
    r's node, ``deg[k]`` and ``height[k]`` the k-th node's child count and
    height, and ``ctip[s, k]`` the tip row of its s-th child (S + 1, a zero
    delete cost, if none). ``slot[s, r]`` maps state (v, i) to (s-th child
    of v, i), the child's table without its last ancestor, and ``cost[s,
    r]`` is the price of deleting v's other children whole.

    ``live[v]`` lists the child slots of v that lead to a state, always the
    first ones, and ``lmax[h]`` the most of them at height h: the options
    of a state pair are sized by it. In free mode every slot is live and
    ``lmax`` is ``dmax``. With a decomposition ``dec`` (fixed mode) every
    non-root node v has one state, row ``off[v]``, whose branch starts
    where ``dec`` starts it; ``children[v]`` lists the continuation child
    first and the others after it in tree order, and only slot 0 is live,
    every other slot leads to the pad row. ``D`` and the live slot's
    ``cost`` are then sums in tree order, as the fixed recursion adds them.

    ``keep(v, i)`` is the child slot that deletion continues the branch
    through, and ``winner(f2, T, v, i, w, j)`` the option the table ``T``
    took at the state pair ((v, i), (w, j)): ``(s, None)`` continues tree
    1's branch through slot s, ``(None, s)`` tree 2's, and ``(s, t)`` both,
    matching the remaining children. A driver's layout memo shares one
    layout between pairs, so its sequences are tuples and its arrays
    read-only.
    """

    __slots__ = (
        "children", "entry", "live", "S", "H", "first", "rows", "dmax", "lmax", "off", "last", "pos", "deg",
        "height", "ctip", "lows", "highs", "slot", "cost", "D",
    )

    def __init__(self, tree: MergeTree, metric: BaseMetric, squared: bool, dec: BranchDecomposition | None = None):
        children = tree.children
        if dec is not None:  # the continuation first
            cont = dec.continuation
            children = tuple(
                (cont[v],) + tuple(c for c in cs if c != cont[v]) if cs else cs for v, cs in enumerate(children)
            )
        self.children = children
        values = tree.values
        self.entry = entry = children[tree.root][0]
        self.live = tuple(range(len(cs) if dec is None else min(1, len(cs))) for cs in children)
        # the non-root nodes; depth[v] counts v's states, in free mode its
        # strict ancestors, the candidate starts of its branch
        height, order = _layout_order(tree.preorder[:0:-1], children)
        depth = tree.depths if dec is None else (1,) * len(values)
        self.H = H = height[entry]
        off = [0] * len(values)
        rows = [0] * (H + 2)
        first = [0] * (H + 2)
        dmax = [0] * (H + 1)
        S = 0
        for k, v in enumerate(order):
            h = height[v]
            if not first[h + 1]:
                rows[h], first[h] = S, k
            off[v] = S
            S += depth[v]
            rows[h + 1], first[h + 1] = S, k + 1
            dmax[h] = len(children[v])  # the height's last node has the most children
        self.S, self.rows, self.first, self.dmax = S, tuple(rows), tuple(first), tuple(dmax)
        self.lmax = self.dmax if dec is None else tuple(min(1, d) for d in dmax)
        degmax = max(dmax)
        self.off = off = tuple(off)
        self.last = last = tuple(d - 1 for d in depth)
        # per node, by layout position: the tip row of every child slot
        # (S + 1, a zero delete cost, if none) and the shift from a state to
        # the child's state of the same start (S if none, clipped to the pad row)
        ctip = [[S + 1] * len(order) for _ in range(degmax)]
        shift = [[S] * len(order) for _ in range(degmax)]
        for k, v in enumerate(order):
            for s, c in enumerate(children[v]):
                ctip[s][k] = off[c] + last[c]
                if s in self.live[v]:
                    shift[s][k] = off[c] - off[v]
        layout = np.array(
            [order, [depth[v] for v in order], [len(children[v]) for v in order], [height[v] for v in order]]
            + ctip + shift,
            dtype=np.int64,
        )
        self.deg, self.height = layout[2], layout[3]
        self.ctip = ctip = layout[4:4 + degmax]
        self.pos = pos = np.arange(len(order)).repeat(layout[1])

        if dec is None:  # start node of every row
            ancrow = np.empty(S, dtype=np.int64)
            parent = tree.parent
            for v in tree.preorder[1:]:
                o, k = off[v], depth[v] - 1
                p = int(parent[v])
                if k:
                    ancrow[o:o + k] = ancrow[off[p]:off[p] + k]
                ancrow[o + k] = p
        else:
            ancrow = np.array([dec.branch_through(v).start for v in order[:first[1]]], dtype=np.int64)
        # leaf states: the inputs of the delete table and of the pair table's wave 0
        self.lows = values[ancrow[:rows[1]]]
        self.highs = values[layout[0].take(pos[:rows[1]])]
        self.slot = slot = np.empty((degmax, S + 1), dtype=np.int64)
        slot[:, S] = S
        shift = layout[4 + degmax:].take(pos, axis=1)
        np.minimum(np.arange(S) + shift, S, out=slot[:, :S])

        D = np.empty(S + 2)
        D[S:] = np.inf, 0.0
        D[:rows[1]] = dp_terms(metric, squared)[1]((self.lows, self.highs))
        cost = np.zeros((degmax, S + 1))
        if dec is None:  # one height at a time
            for h in range(1, H + 1):
                a, b = rows[h], rows[h + 1]
                dm = dmax[h]
                z = D[ctip[:dm, first[h]:first[h + 1]]]
                tot = z[0].copy()
                for s in range(1, dm):
                    tot += z[s]
                cost[:dm, a:b] = (tot - z).take(pos[a:b] - first[h], axis=1)
                D[a:b] = (D[slot[:dm, a:b]] + cost[:dm, a:b]).min(axis=0)
        else:  # one node at a time, children before parents
            d = D.tolist()
            for v in order[first[1]:]:
                cs = tree.children[v]
                i = cs.index(children[v][0])
                dels = [d[off[c]] for c in cs]
                d[off[v]] = sum(dels)
                cost[0, off[v]] = sum(dels[:i] + dels[i + 1:])
            D[:] = d
        self.D, self.cost = D, cost
        for a in (pos, self.deg, self.height, ctip, self.lows, self.highs, slot, D, cost):
            a.setflags(write=False)

    def tips(self, nodes):
        return [self.off[c] + self.last[c] for c in nodes]

    def keep(self, v, i):
        # the first option of the delete table's minimum, with its arithmetic
        r, k = self.off[v] + i, len(self.children[v])
        return int(np.argmin(self.D[self.slot[:k, r]] + self.cost[:k, r]))

    def winner(self, f2, T, v, i, w, j):
        # the first option, in the fill's order and with its arithmetic,
        # whose value is the table's entry. Only the live slots offer a
        # finite value (the s-th child's state of the same start is row
        # off[child] + i, as slot[s, r] reads), and the last finite option
        # left is the entry's without being evaluated: the entry is their
        # least. So a fixed-mode pair of inner nodes checks two options.
        cs, ds = self.children[v], f2.children[w]
        l1, l2 = self.live[v], f2.live[w]
        off1, off2 = self.off, f2.off
        r, c = off1[v] + i, off2[w] + j
        n = len(l1) + len(l2) + len(l1) * len(l2)
        t = T[r, c]
        for x in l1:
            if n == 1 or T[off1[cs[x]] + i, c] + self.cost[x, r] == t:
                return x, None
            n -= 1
        for y in l2:
            if n == 1 or T[r, off2[ds[y]] + j] + f2.cost[y, c] == t:
                return None, y
            n -= 1
        if n == 1:
            return l1[0], l2[0]
        if len(cs) == len(ds) == 2:
            # one child left on each side: matching_costs's 1 x 1 route in
            # Python; a _node_sides batch for this one pair of nodes made
            # small-tree matrices about 4 % slower
            def side(x, y):
                a, b = cs[1 - x], ds[1 - y]
                a, b = off1[a] + self.last[a], off2[b] + f2.last[b]
                return min(T[a, b], self.D[a] + f2.D[b])
        else:
            sides = _node_sides(self, f2, T, self.pos[r:r + 1], f2.pos[c:c + 1], len(cs), len(ds), len(l1), len(l2))
            sides = sides[..., 0]

            def side(x, y):
                return sides[x, y]
        for x in l1:
            for y in l2:
                if n == 1 or T[off1[cs[x]] + i, off2[ds[y]] + j] + side(x, y) == t:
                    return x, y
                n -= 1


def _join(flats):
    """``(forest, views)``: the layouts ``flats`` of several trees (all free,
    or all fixed) as one layout, and one view of it per member.

    The forest's nodes are ordered by (height, child count, member, position
    in the member's layout), so the rows of one height stay contiguous and
    :func:`_pair_table` fills one forest against another wave by wave, either
    forest as either tree. A member's child slots, tips and delete costs are
    remapped onto the joined rows: its states read only its own rows and the
    pad row, so its rows or columns are those of its own pair table, bit for
    bit. A member's view holds the forest's arrays (and its pad row ``S``)
    with the member's own ``children``, ``entry``, ``live``, ``off`` and
    ``last``, which is all that :func:`_walk` and :meth:`_Flat.winner` read
    of either tree beyond the arrays.
    """
    cls = type(flats[0])
    forest = object.__new__(cls)
    m = len(flats)
    sizes = [f.S for f in flats]
    counts = [len(f.deg) for f in flats]
    S, degmax = sum(sizes), max(len(f.ctip) for f in flats)
    rbase = np.cumsum([0] + sizes)
    # every member's rows, then nodes, one member after another: "global"
    member = np.arange(m).repeat(sizes)
    node = np.concatenate([f.pos for f in flats]) + np.cumsum([0] + counts[:-1]).repeat(sizes)
    height = np.concatenate([f.height for f in flats])
    deg = np.concatenate([f.deg for f in flats])
    order = np.lexsort((deg[node], height[node]))  # stable: member and row break ties
    rowmap = np.empty(S, dtype=np.int64)
    rowmap[order] = np.arange(S)
    node = node[order]
    starts = np.flatnonzero(np.concatenate(([True], node[1:] != node[:-1])))  # each joined node's first row
    nodes = node[starts]  # the global node at each joined position
    forest.H = H = max(f.H for f in flats)
    first = np.searchsorted(height[nodes], np.arange(H + 2))
    bounds = np.append(starts, S)
    forest.S, forest.first, forest.rows = S, tuple(first.tolist()), tuple(bounds[first].tolist())
    forest.deg, forest.height = deg[nodes], height[nodes]
    forest.dmax = tuple(forest.deg[first[1:] - 1].tolist())  # a height's last node has the most children
    forest.lmax = tuple(max(f.lmax[h] for f in flats if h <= f.H) for h in range(H + 1))
    forest.pos = np.arange(len(nodes)).repeat(np.diff(bounds))
    # a member's row r, its pad row and its no-child row as joined rows:
    # ext[e + r] for the member's base e
    ebase = rbase[:-1] + 2 * np.arange(m)
    ext = np.full(S + 2 * m, S + 1)
    ext[np.arange(S) + 2 * member] = rowmap
    ext[ebase + sizes] = S

    def slots(a, fill):  # a member's slot-by-column array with degmax slots
        return a if len(a) == degmax else np.vstack((a, np.full((degmax - len(a), a.shape[1]), fill)))

    ctip = np.concatenate([slots(f.ctip, f.S + 1) for f in flats], axis=1) + ebase.repeat(counts)
    forest.ctip = ext[ctip].take(nodes, axis=1)
    slot = np.concatenate([slots(f.slot[:, :f.S], f.S) for f in flats], axis=1) + ebase.repeat(sizes)
    forest.slot = np.concatenate((ext[slot].take(order, axis=1), np.full((degmax, 1), S)), axis=1)
    cost = np.concatenate([slots(f.cost[:, :f.S], 0.0) for f in flats], axis=1)
    forest.cost = np.concatenate((cost.take(order, axis=1), np.zeros((degmax, 1))), axis=1)
    forest.D = np.concatenate((np.concatenate([f.D[:f.S] for f in flats])[order], (np.inf, 0.0)))
    # the leaf rows come first, in member and row order
    forest.lows = np.concatenate([f.lows for f in flats])
    forest.highs = np.concatenate([f.highs for f in flats])
    forest.children = forest.entry = forest.live = forest.off = forest.last = None
    for name in ("pos", "deg", "height", "ctip", "lows", "highs", "slot", "D", "cost"):
        getattr(forest, name).setflags(write=False)
    offs = rowmap[np.concatenate([f.off for f in flats]) + rbase[:-1].repeat([len(f.off) for f in flats])].tolist()
    cuts = np.cumsum([0] + [len(f.off) for f in flats]).tolist()
    # each view: the forest's arrays, read once, then the member's own fields
    shared = (
        S, forest.H, forest.first, forest.rows, forest.dmax, forest.lmax, forest.pos, forest.deg, forest.height,
        forest.ctip, forest.lows, forest.highs, forest.slot, forest.cost, forest.D,
    )
    views = []
    for f, a, b in zip(flats, cuts, cuts[1:]):
        v = object.__new__(cls)
        (v.S, v.H, v.first, v.rows, v.dmax, v.lmax, v.pos, v.deg, v.height,
         v.ctip, v.lows, v.highs, v.slot, v.cost, v.D) = shared
        v.children, v.entry, v.live, v.off, v.last = f.children, f.entry, f.live, tuple(offs[a:b]), f.last
        views.append(v)
    return forest, views


def _node_sides(f1: _Flat, f2: _Flat, T, x, y, sc, sd, lc, ld):
    """``side[i, j, n]``: for the n-th pair of nodes, at layout positions
    ``x[n]`` and ``y[n]``, the cost of matching their children other than
    slot i against those other than slot j, unmatched ones deleted or
    inserted whole; +inf where a node has no such slot. The nodes have at
    most ``sc`` and ``sd`` children, and only the live slots i < ``lc`` and
    j < ``ld`` are costed.

    :func:`matching_costs` costs the pairs of each pair of child counts in
    one batch, and a batch of one pair gives the same bits.
    """
    ncols = T.shape[1]
    if sc == sd == 2:
        # binary saddles and leaves only, the common case: no grouping; each
        # slot's other child, the pad row (+inf to match and to delete) at a
        # leaf, costed as matching_costs costs 1 x 1. Through the grouped
        # route below, the two branch matrices of the matrix-small benchmark
        # took 0.21 -> 0.25 s (CPU time, min of 5, seed 1, 2-core Xeon).
        o1 = np.minimum(f1.ctip[1::-1][:lc].take(x, axis=1), f1.S)
        o2 = np.minimum(f2.ctip[1::-1][:ld].take(y, axis=1), f2.S)
        return np.minimum(T.take(o1[:, None] * ncols + o2[None]), f1.D[o1][:, None] + f2.D[o2][None])
    side = np.full((lc, ld, len(x)), np.inf)
    deg1, deg2 = f1.deg[x], f2.deg[y]
    for c in range(2, sc + 1):
        for d in range(2, sd + 1):
            n = np.flatnonzero((deg1 == c) & (deg2 == d))
            if not len(n):
                continue
            # tip rows of the children other than live slot i of each node, at [n, i]
            t1 = f1.ctip[:c].take(x[n], axis=1).T[:, _others(c)[:lc]]
            t2 = f2.ctip[:d].take(y[n], axis=1).T[:, _others(d)[:ld]]
            side[:c, :d, n] = matching_costs(  # axes: pair n, slot i, slot j
                T.take(t1[:, :, None, :, None] * ncols + t2[:, None, :, None, :]),
                f1.D[t1][:, :, None],
                f2.D[t2][:, None],
            ).transpose(1, 2, 0)
    return side


@cache
def _others(k):
    """``out[i]``: the slots 0..k-1 other than i, in order."""
    out = np.array([[s for s in range(k) if s != i] for i in range(k)], dtype=np.int64)
    out.setflags(write=False)
    return out


def _slice_fill(f1, f2, T, h1, h2):
    """``fill(r0, r1)``, which fills rows r0:r1 of the rectangle of heights
    (h1, h2) with row and column slices. Its saddle pairs' sides are costed
    here, on the calling thread."""
    c, d = f2.rows[h2], f2.rows[h2 + 1]
    lc, ld = f1.lmax[h1], f2.lmax[h2]
    s1, s2 = f1.slot[:lc], f2.slot[:ld]
    if lc and ld:
        # the saddle pairs' sides, spread over each chunk's states below
        x0, x1, y0, y1 = f1.first[h1], f1.first[h1 + 1], f2.first[h2], f2.first[h2 + 1]
        ny = y1 - y0
        x, y = np.arange(x0, x1).repeat(ny), np.tile(np.arange(y0, y1), x1 - x0)
        side = _node_sides(f1, f2, T, x, y, f1.dmax[h1], f2.dmax[h2], lc, ld)
        ys = f2.pos[c:d] - y0
    n = lc + ld + lc * ld

    def fill(r0, r1):
        X = np.empty((n, r1 - r0, d - c))
        X[:lc] = T[s1[:, r0:r1], c:d]
        X[:lc] += f1.cost[:lc, r0:r1, None]
        np.add(T[r0:r1, s2[:, c:d]].transpose(1, 0, 2), f2.cost[:ld, None, c:d], out=X[lc:lc + ld])
        if lc and ld:
            np.add(
                T.take(s1[:, None, r0:r1, None] * T.shape[1] + s2[None, :, None, c:d]),
                side.take((f1.pos[r0:r1, None] - x0) * ny + ys, axis=2),
                out=X[lc + ld:].reshape(lc, ld, r1 - r0, d - c),
            )
        np.minimum.reduce(X, axis=0, out=T[r0:r1, c:d])

    return fill


def _fill_threads():
    """Threads a wave that crosses the gate is filled on: one in a
    multiprocessing child, such as a compute_matrix pool worker, whose pool
    already spreads the pairs over the CPUs; else one per CPU the process
    may run on."""
    from multiprocessing import parent_process  # not at import: it takes about 12 ms

    if parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _fill_chunks(rects):
    """Fill the rectangles ``rects`` of one wave in row chunks. Each is
    ``(a, b, per_row, prepare)``: its rows a:b, the option values of one
    row, and ``prepare()``, which does the rectangle's calling-thread work
    and returns ``fill(r0, r1)``, filling rows r0:r1. The calling thread
    prepares the rectangles in turn and queues their chunks; when the wave
    crosses the gate, helper threads fill the queued chunks meanwhile. Then
    the calling thread fills what is left, and the helpers are joined before
    this returns, also when a step raises."""
    k = 1
    full = sum((b - a) * per_row for a, b, per_row, _ in rects) // _CHUNK_VALUES
    if full >= 2:
        # one thread per full chunk at most, and each row within its share
        widest = max(per_row for _, _, per_row, _ in rects)
        k = max(1, min(_fill_threads(), full, _CHUNK_VALUES // widest))
    budget = _CHUNK_VALUES // k  # the threads split one chunk's budget
    todo, errors = queue.SimpleQueue(), []

    def drain():
        for fill, r0, r1 in iter(todo.get, None):
            if not errors:
                try:
                    fill(r0, r1)
                except BaseException as e:  # raised again on the calling thread
                    errors.append(e)

    helpers = []
    try:
        for _ in range(k - 1):
            helper = threading.Thread(target=drain, name="mtdist-fill")
            helper.start()
            helpers.append(helper)
        for a, b, per_row, prepare in rects:
            fill = prepare()
            step = max(1, budget // per_row)
            for r0 in range(a, b, step):
                todo.put((fill, r0, min(b, r0 + step)))
    except BaseException as e:  # raised again once the helpers are joined
        errors.append(e)
    for _ in range(len(helpers) + 1):
        todo.put(None)
    try:
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


def _fill_flat(f1, f2, T, rects):
    """Fill the small rectangles ``rects`` of one wave as one flat batch."""
    r1, r2 = f1.rows, f2.rows
    corners, counts = [], []  # first row, first column, width, first batch position
    n = 0
    for h1, h2 in rects:
        width = r2[h2 + 1] - r2[h2]
        corners.append((r1[h1], r2[h2], width, n))
        counts.append((r1[h1 + 1] - r1[h1]) * width)
        n += counts[-1]
    a, c, width, start = np.array(corners).T.repeat(counts, axis=1)
    i, j = np.divmod(np.arange(n) - start, width)
    rr, cc = a + i, c + j
    sc = max(f1.dmax[h1] for h1, _ in rects)
    sd = max(f2.dmax[h2] for _, h2 in rects)
    lc = max(f1.lmax[h1] for h1, _ in rects)
    ld = max(f2.lmax[h2] for _, h2 in rects)
    matched = any(h1 and h2 for h1, h2 in rects)  # else a leaf on one side everywhere
    # T is indexed through its flat view, T.ravel()[r * ncols + c] being
    # T[r, c]: one flat index array is faster than a pair of them
    ncols = T.shape[1]
    s1 = f1.slot[:lc].take(rr, axis=1) * ncols
    s2 = f2.slot[:ld].take(cc, axis=1)
    at = rr * ncols + cc
    X = np.empty((lc + ld + (lc * ld if matched else 0), n))
    X[:lc] = T.take(s1 + cc)
    X[:lc] += f1.cost[:lc].take(rr, axis=1)
    X[lc:lc + ld] = T.take(at - cc + s2)
    X[lc:lc + ld] += f2.cost[:ld].take(cc, axis=1)
    if matched:
        M = X[lc + ld:].reshape(lc, ld, n)
        M[...] = T.take(s1[:, None] + s2[None])
        x, y = f1.pos[rr], f2.pos[cc]
        # binary saddles per state, as np.unique costs more than it saves on
        # small trees; wider ones once per pair of nodes, as their matchings
        # cost too much per state
        if sc > 2 or sd > 2:
            pairs, each = np.unique(x * len(f2.deg) + y, return_inverse=True)
            M += _node_sides(f1, f2, T, *np.divmod(pairs, len(f2.deg)), sc, sd, lc, ld)[..., each]
        else:
            M += _node_sides(f1, f2, T, x, y, sc, sd, lc, ld)
    T.ravel()[at] = np.minimum.reduce(X, axis=0)


def _pair_table(f1: _Flat, f2: _Flat, pair):
    """T[r1, r2]: cheapest mapping between the subtrees of two states, its
    leaf pairs costed by the term ``pair`` of :func:`dp_terms`.

    Only the values are kept: :meth:`_Flat.winner` re-derives the option an
    entry took when the walk reaches it.
    """
    S1, S2 = f1.S, f2.S
    T = np.empty((S1 + 1, S2 + 1))
    T[S1, :] = np.inf
    T[:, S2] = np.inf
    r1, r2 = f1.rows, f2.rows

    def leaves(a, b):  # wave 0: leaf states against leaf states
        T[a:b, :r2[1]] = pair((f1.lows[a:b, None], f1.highs[a:b, None]), (f2.lows, f2.highs))

    _fill_chunks([(0, r1[1], r2[1], lambda: leaves)])
    for t in range(1, f1.H + f2.H + 1):
        rects, small = [], []
        for h1 in range(max(0, t - f2.H), min(f1.H, t) + 1):
            h2 = t - h1
            a, b, width = r1[h1], r1[h1 + 1], r2[h2 + 1] - r2[h2]
            if (b - a) * width >= _SLICE_STATES:
                lc, ld = f1.lmax[h1], f2.lmax[h2]
                rects.append((a, b, width * (lc + ld + lc * ld), partial(_slice_fill, f1, f2, T, h1, h2)))
            else:
                small.append((h1, h2))
        if rects:
            _fill_chunks(rects)
        if small:
            _fill_flat(f1, f2, T, small)
    return T


# ---------------------------------------------------------------------------
# forest blocks: one table for several trees against their partners
#
# compute_matrix runs all four distances pair by pair, and gathers
# consecutive pairs into blocks. The layouts of a block's row trees are
# joined into one forest and those of their partners into another (_join
# here, baselines._join for the baselines), and the one forest is filled
# against the other once, by the block's first distance call, so every wave
# or height serves all of the block's pairs in one batch. Every pair still
# runs its own call and reads its own entries (_block_entry): a branch
# mapping is walked through two views that read the joined rows as their own
# trees', a baseline reads its entry at its two members' roots. The block
# is the calling thread's open block (_BLOCK) while its pairs run, and its
# table is dropped when the block ends. A block's members are what its
# calls receive: the tree under branch, its decomposition under
# branch-fixed (so a member is found by its decomposition object), its
# labelled input under a baseline.
#
# One rule makes the blocks: a pair joins the open block while the block's
# table takes at most min(_BLOCK_BYTES, _TABLE_LIMIT) bytes, as _check_table
# charges them (8 per entry for the free and fixed tables, 48 for the
# baselines); else it opens the next block. Larger blocks fill more entries
# that no call reads (a later row against an earlier row's partners), and
# measured no faster. A block holds each tree object once as a row, so
# that its table fills no row twice: a row whose tree is already another
# of the open block's rows opens the next block. A pair whose own
# table passes the bound is a block of its own, as no block can take it: it
# fills its own table, and _check_table refuses a pair over the limit before
# any table holding it is allocated. An invalid tree joins blocks as any
# other: its block raises its InvalidTreeError when the block's members are
# sized or laid out, before any of the block's pairs returns.
# ---------------------------------------------------------------------------

_BLOCK_BYTES = 1 << 21


def _row_groups(rows, size=lambda t: sum(t.depths), per_entry=8):
    """The pairs of ``rows``, a list of ``(tree, partners)``, in order, as
    blocks whose tables are filled as one: lists of ``(k, group)``, row k
    with its partners at the indices ``group``; a block of one pair runs
    alone. ``size(t)`` is a tree's side of the table less the pad row, and
    ``per_entry`` the bytes :func:`_check_table` charges per entry; the
    defaults are those of the free table."""
    bound = _BLOCK_BYTES if _TABLE_LIMIT is None else min(_BLOCK_BYTES, _TABLE_LIMIT)
    blocks = []
    for k, (tree, partners) in enumerate(rows):
        for x, t in enumerate(partners):
            if blocks:  # the open block, if its last row is k or tree is none of its rows
                same = blocks[-1][-1][0] == k
                if same or id(tree) not in held:
                    h = height if same else height + size(tree)
                    w = width if id(t) in cols else width + size(t)
                    if per_entry * (h + 1) * (w + 1) <= bound:
                        if not same:
                            blocks[-1].append((k, []))
                        blocks[-1][-1][1].append(x)
                        held.add(id(tree))
                        cols.add(id(t))
                        height, width = h, w
                        continue
            blocks.append([(k, [x])])
            held, cols, height, width = {id(tree)}, {id(t)}, size(tree), size(t)
    return blocks


class _Forest:
    """The trees ``rows`` against their ``partners``, and the table that
    the first call made of them (:func:`_block_entry`) with its key, or
    None; ``row`` and ``col`` find a member's index by its object's id."""

    __slots__ = ("rows", "partners", "row", "col", "made")

    def __init__(self, rows, partners):
        self.rows, self.partners = rows, partners
        self.row = {id(t): k for k, t in enumerate(rows)}
        self.col = {id(t): k for k, t in enumerate(partners)}
        self.made = None


# the calling thread's open block, a _Forest, while _forest is open
_BLOCK: ContextVar[_Forest | None] = ContextVar("mtdist_forest_block", default=None)


@contextmanager
def _forest(rows, partners):
    """While open, a distance of one of ``rows`` against one of
    ``partners`` on the calling thread reads its entries of their joined
    table; the table is dropped when the block exits, also when it raises.
    A lone pair keeps its own table."""
    if len(rows) + len(partners) < 3:
        yield
        return
    token = _BLOCK.set(_Forest(rows, partners))
    try:
        yield
    finally:
        _BLOCK.reset(token)


def _block_entry(row, col, key, layout, fill):
    """``(made, i, j)`` while an open block (:func:`_forest`) holds ``row``
    among its rows and ``col`` among its partners, else None. ``made`` is
    ``fill(rows, partners)`` of the layouts ``layout(t)`` of the block's
    members, made by the block's first call for ``key`` (a metric and
    mode) and dropped before one for another key is made; i and j are the
    two members' indices."""
    forest = _BLOCK.get()
    if forest is None or id(row) not in forest.row or id(col) not in forest.col:
        return None
    if forest.made is None or forest.made[0] != key:
        forest.made = None  # dropped before another is made
        forest.made = key, fill([layout(t) for t in forest.rows], [layout(t) for t in forest.partners])
    return forest.made[1], forest.row[id(row)], forest.col[id(col)]


def _walk(f1: _Flat, f2: _Flat | None, T, start):
    """Leaf pairs, deleted and inserted leaves and each tree's continuation
    map of an optimal mapping.

    One explicit stack of work items: ``(v, i, w, j)`` maps the subtrees of
    the states (v, i) and (w, j); ``(0, v, i)`` deletes tree 1's subtree of
    state (v, i) and ``(1, w, j)`` inserts tree 2's. ``f2`` and ``T`` are
    None for a one-sided mapping. A step pushes the children left over as
    deletions or insertions, then the continued item, then matched pairs in
    reverse, so pairs come out in the order of the recursive definition.
    Every inner non-root node is left once, through the child its branch
    continues into, so the continuation maps cover them all.
    """
    flats = (f1, f2)
    pairs = []
    out = ([], [])
    cont = ({}, {})

    def branch_off(k, v, s):
        # the node v's branch goes on at (slot s, v itself if None), and v's other children
        if s is None:
            return v, ()
        cs = flats[k].children[v]
        cont[k][v] = cs[s]
        return cs[s], cs[:s] + cs[s + 1:]

    stack = [start]
    while stack:
        item = stack.pop()
        if len(item) == 3:
            k, v, p = item
            f = flats[k]
            if not f.children[v]:
                out[k].append(v)
                continue
            c, rest = branch_off(k, v, f.keep(v, p))
            for d in rest:
                stack.append((k, d, f.last[d]))
            stack.append((k, c, p))
            continue
        v, pi, w, pj = item
        if not f1.children[v] and not f2.children[w]:
            pairs.append((v, w))
            continue
        i, j = f1.winner(f2, T, v, pi, w, pj)
        c, rest1 = branch_off(0, v, i)
        d, rest2 = branch_off(1, w, j)
        matched = hit1 = hit2 = ()
        if rest1 and rest2:
            t1, t2 = f1.tips(rest1), f2.tips(rest2)
            P = [[T[a, b] for b in t2] for a in t1]
            _, matched = _assignment(P, [f1.D[a] for a in t1], [f2.D[b] for b in t2])
            hit1, hit2 = {x for x, _ in matched}, {y for _, y in matched}
        for x, a in enumerate(rest1):
            if x not in hit1:
                stack.append((0, a, f1.last[a]))
        for y, b in enumerate(rest2):
            if y not in hit2:
                stack.append((1, b, f2.last[b]))
        stack.append((c, pi, d, pj))
        for x, y in reversed(matched):
            a, b = rest1[x], rest2[y]
            stack.append((a, f1.last[a], b, f2.last[b]))
    return pairs, out, cont


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _states(tree: MergeTree, dec: BranchDecomposition | None, metric: BaseMetric, squared: bool):
    """The tree's layout, built once per tree (in fixed mode, once per
    decomposition object) while a driver's layout memo is open."""
    require_valid(tree)
    source = tree if dec is None else dec
    return _memoized(source, ("flat", metric.kind, squared), lambda: _Flat(tree, metric, squared, dec))


def branch_mapping_distance(
    tree1: MergeTree | None,
    tree2: MergeTree | None,
    metric: BaseMetric,
    mode: str = "sum",
    fixed: tuple[BranchDecomposition, BranchDecomposition] | None = None,
):
    """Distance and an optimal branch mapping between two merge trees.

    Either tree may be ``None`` (the empty tree); the mapping then consists
    of deletions or insertions only. With ``fixed=(B1, B2)`` the search is
    restricted to mappings between exactly those two decompositions.
    """
    _choice("aggregation mode", mode, MODE_NAMES)
    squared = mode == "l2"
    trees = (tree1, tree2)
    if fixed is not None:
        for k, (tree, dec) in enumerate(zip(trees, fixed)):
            # identity first: comparing two trees compares their arrays
            if tree is not None and (dec is None or (dec.tree is not tree and dec.tree != tree)):
                raise PreconditionError(f"fixed decomposition does not belong to tree {k + 1}")
    decs = (None, None) if fixed is None else fixed
    # each tree's states: in free mode the sum of its node depths, in fixed
    # mode one per non-root node (a member view's S is its forest's pad row)
    states = [0 if t is None else sum(t.depths) if fixed is None else len(t) - 1 for t in trees]
    # refused before any layout: the table's (S1 + 1) x (S2 + 1) float64 values
    if tree1 is not None and tree2 is not None:
        _check_table("free-mode table" if fixed is None else "fixed-mode table", states[0] + 1, states[1] + 1, 8)
    def layout(p):  # a block member's layout, held by its tree or, in fixed mode, its decomposition
        return _states(p, None, metric, squared) if fixed is None else _states(p.tree, p, metric, squared)

    def fill(rows, cols):
        (a, rows), (b, cols) = _join(rows), _join(cols)
        return rows, cols, _pair_table(a, b, dp_terms(metric, squared)[0])

    # a matrix block's rows are trees, in fixed mode the trees' decompositions
    held = trees if fixed is None else decs
    hit = None if tree1 is None or tree2 is None else _block_entry(*held, (metric.kind, squared), layout, fill)
    if hit is not None:
        (rows, cols, T), i, j = hit
        f1, f2 = rows[i], cols[j]
    else:
        f1, f2 = (None if t is None else _states(t, d, metric, squared) for t, d in zip(trees, decs))
        if f1 is not None and f2 is not None:
            T = _pair_table(f1, f2, dp_terms(metric, squared)[0])
    pairs, out, cont = [], [[], []], [{}, {}]
    total, bound = 0.0, 0
    if f1 is not None and f2 is not None:
        total = T[f1.off[f1.entry], f2.off[f2.entry]]
        pairs, out, cont = _walk(f1, f2, T, (f1.entry, 0, f2.entry, 0))
        bound = len(tree1) * tree1.depth * len(tree2) * tree2.depth
    else:
        for k, f in enumerate((f1, f2)):
            if f is not None:
                total = f.D[f.off[f.entry]]
                _, (out[k], _), (cont[k], _) = _walk(f, None, None, (0, f.entry, 0))
    decs = [
        None if t is None
        else d if d is not None
        else BranchDecomposition(t, {t.root: f.entry, **cont[k]})
        for k, (t, d, f) in enumerate(zip(trees, decs, (f1, f2)))
    ]
    # every branch is its decomposition's object
    pairs = tuple((decs[0].branch_of_leaf(v), decs[1].branch_of_leaf(w)) for v, w in pairs)
    deletions, insertions = (
        tuple(sorted(dec.branch_of_leaf(v) for v in leaves)) for dec, leaves in zip(decs, out)
    )
    # the matched pairs' labels, costed in one broadcast call
    labels = np.array([(a.low, a.high, b.low, b.high) for a, b in pairs]).reshape(-1, 4).T
    distance = finalize(total, mode)
    return distance, BranchMapping(
        tree1=tree1,
        tree2=tree2,
        decomposition1=decs[0],
        decomposition2=decs[1],
        pairs=pairs,
        pair_costs=tuple(metric.pair(*labels).tolist()),
        deletions=deletions,
        insertions=insertions,
        total_cost=distance,
        metric=metric,
        mode=mode,
        stats=MemoStats(keys=states[0] * states[1], null_keys=sum(states), bound=bound),
    )


def delete_tree_cost(tree: MergeTree | None, metric: BaseMetric, mode: str = "sum") -> float:
    """Cost of mapping the whole tree to the empty tree (cheapest decomposition)."""
    if tree is None:
        return 0.0
    distance, _ = branch_mapping_distance(tree, None, metric, mode)
    return distance


# ---------------------------------------------------------------------------
# validation and induced node mappings
# ---------------------------------------------------------------------------

def _weak_ancestry(tree: MergeTree, nodes) -> np.ndarray:
    """``out[i, j]`` is True when ``nodes[j]`` lies on the root path of
    ``nodes[i]`` (including equality).

    Preorder intervals, computed once, make each test O(1): ``v`` is a weak
    ancestor of ``u`` when ``enter[v] <= enter[u] < enter[v] + size[v]``,
    with ``size[v]`` the node count of the subtree under ``v``.
    """
    pre = tree.preorder
    parent = tree.parent.tolist()
    size = [1] * len(tree)
    for v in pre[:0:-1]:
        size[parent[v]] += size[v]
    enter = np.empty(len(tree), dtype=np.int64)
    enter[list(pre)] = np.arange(len(tree))
    nodes = np.asarray(nodes, dtype=np.int64)
    e = enter[nodes]
    end = e + np.asarray(size, dtype=np.int64)[nodes]
    return (e[None, :] <= e[:, None]) & (e[:, None] < end[None, :])


def validate_branch_mapping(mapping: BranchMapping) -> ValidationReport:
    """Check the four mapping conditions and the cost equation.

    Order preservation is checked both ways: start vertices of matched
    branches must compare identically (equal to equal, descendant to
    descendant) on both sides, which is the reading the recursion computes.
    """
    bad = []
    m = mapping
    if m.tree1 is None or m.tree2 is None:
        covered = set(m.deletions) | set(m.insertions)
        expect = set()
        if m.decomposition1 is not None:
            expect |= set(m.decomposition1.branches)
        if m.decomposition2 is not None:
            expect |= set(m.decomposition2.branches)
        if covered != expect or m.pairs:
            bad.append("one-sided mapping must delete or insert exactly all branches")
    else:
        left = [a for a, _ in m.pairs]
        right = [b for _, b in m.pairs]
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            bad.append("condition 1 (one-to-one) violated")
        if m.decomposition1 is None or m.decomposition2 is None:
            bad.append("mapping lacks its decompositions")
            return ValidationReport(ok=False, violations=tuple(bad))
        if (m.decomposition1.main, m.decomposition2.main) not in set(m.pairs):
            bad.append("condition 2 (main branches paired) violated")
        paired = set(m.pairs)
        for a, b in m.pairs:
            pa = m.decomposition1.parent_branch(a)
            pb = m.decomposition2.parent_branch(b)
            if (pa is None) != (pb is None):
                bad.append(f"condition 3 (upward closure) violated at ({a.label},{b.label})")
            elif pa is not None and (pa, pb) not in paired:
                bad.append(f"condition 3 (upward closure) violated at ({a.label},{b.label})")
        differ = (
            _weak_ancestry(m.tree1, [a.start for a in left])
            != _weak_ancestry(m.tree2, [b.start for b in right])
        )
        # row-major order of i < j, as a loop over pairs and later pairs
        for i, j in zip(*np.nonzero(np.triu(differ | differ.T, 1))):
            (a, b), (a2, b2) = m.pairs[i], m.pairs[j]
            bad.append(
                f"condition 4 (order preservation) violated between "
                f"({a.label},{b.label}) and ({a2.label},{b2.label})"
            )
        if set(left) | set(m.deletions) != set(m.decomposition1.branches):
            bad.append("pairs plus deletions do not cover decomposition 1")
        if set(right) | set(m.insertions) != set(m.decomposition2.branches):
            bad.append("pairs plus insertions do not cover decomposition 2")
    if abs(aggregate(m.edit_costs(), m.mode) - m.total_cost) > 1e-9:
        bad.append("total cost does not match the aggregated edit costs")
    return ValidationReport(ok=not bad, violations=tuple(bad))


def induced_node_mapping(mapping: BranchMapping):
    """Node pairs induced by a branch mapping: matched branch endpoints.

    Each matched branch pair contributes its (leaf, leaf) and (start, start)
    node pairs. Deleted and inserted branches contribute nothing.
    """
    report = validate_branch_mapping(mapping)
    if not report.ok:
        raise PreconditionError(
            "mapping fails validation: " + "; ".join(report.violations)
        )
    out = set()
    for a, b in mapping.pairs:
        out.add((a.leaf, b.leaf))
        out.add((a.start, b.start))
    return tuple(sorted(out))
