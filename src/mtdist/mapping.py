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
large instances (hundreds of nodes) fast. In fixed mode the decompositions
fix every branch start, so each node has one state and a plain loop over
node pairs fills the table. Both modes record the winning options in the
same codes, and one walker reconstructs the mapping from either. At an
inner-inner state the options are, in this fixed order:

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

from dataclasses import dataclass

import numpy as np

from .branches import Branch, BranchDecomposition
from .errors import PreconditionError
from .matching import matching_costs, min_cost_matching as _assignment
from .metrics import BaseMetric, aggregate, finalize
from .trees import MergeTree, require_valid


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
class MappingReport:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self):
        return self.ok


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
        return {
            "metric": self.metric.kind,
            "mode": self.mode,
            "totalCost": round(self.total_cost, 9),
            "pairs": [
                {
                    "t1Start": a.start,
                    "t1Leaf": a.leaf,
                    "t2Start": b.start,
                    "t2Leaf": b.leaf,
                    "cost": round(c, 9),
                }
                for (a, b), c in zip(self.pairs, self.pair_costs)
            ],
            "deletions": [
                {"start": b.start, "leaf": b.leaf, "cost": round(self.metric.deletion(b.low, b.high), 9)}
                for b in self.deletions
            ],
            "insertions": [
                {"start": b.start, "leaf": b.leaf, "cost": round(self.metric.deletion(b.low, b.high), 9)}
                for b in self.insertions
            ],
        }


# ---------------------------------------------------------------------------
# free mode: minimize over all branch decompositions
#
# State (v, i) is a non-root node v whose branch starts at v's i-th ancestor
# (root first). Every tree numbers its states into contiguous rows, so the
# delete table is one vector and the pair table one (S1+1) x (S2+1) array.
# A pair-table entry depends only on entries whose heights sum to less, so
# the table is filled in anti-diagonal waves t = height(v) + height(w); the
# (h1, t - h1) rectangles of one wave are independent of each other.
# ---------------------------------------------------------------------------

# Rectangles of a wave with at least this many states are filled with row and
# column slices; the smaller ones of a wave are concatenated into one flat
# index batch. Slices alone cost one batch per rectangle on small trees; flat
# batches alone need several index arrays per state on large ones. A slice
# rectangle, like wave 0, is evaluated in row chunks of about _CHUNK_VALUES
# values; a flat batch evaluates all its options at once, unchunked.
_SLICE_STATES = 2048
_CHUNK_VALUES = 1 << 18


def _code_dtype(count):
    """Smallest unsigned dtype holding the option codes ``0..count-1``."""
    return np.min_scalar_type(max(count - 1, 0))


def _first_min(options, codes):
    """Minimum over the leading axis and the code of the first option reaching it."""
    return options.min(axis=0), codes[options.argmin(axis=0)]


def _first_min_into(options, codes, best, code):
    """:func:`_first_min` written into ``best`` and ``code``, one option at a
    time: on large batches a running strict ``<`` beats ``argmin``."""
    best[...] = options[0]
    code[...] = codes[0]
    less = np.empty(best.shape, dtype=bool)
    for k in range(1, len(options)):
        np.less(options[k], best, out=less)
        np.copyto(best, options[k], where=less)
        np.copyto(code, codes[k], where=less)


class _States:
    """State layout of one tree, as :func:`_walk` reads it.

    State (v, i) is row ``off[v] + i``; ``last[v]`` is v's state when its
    branch starts at v's parent. ``ancrow[r]`` is the start node of
    row r's branch, ``D[r]`` the cheapest deletion of its subtree and
    ``KD[r]`` the child slot that deletion continues the branch through;
    ``S`` is the number of states and ``degmax`` the largest saddle degree.
    """

    __slots__ = ()

    def branch(self, v, i):
        start = int(self.ancrow[self.off[v] + i])
        return Branch(start, v, float(self.values[start]), float(self.values[v]))

    def tips(self, nodes):
        return [self.off[c] + self.last[c] for c in nodes]


class _Flat(_States):
    """Flat state layout of one tree and its delete table, for free mode.

    Nodes are numbered in (height, id) order -- ``order[k]`` is the k-th and
    ``first[h]`` the first of height h -- so the states of one height form
    the contiguous rows ``rows[h]:rows[h + 1]``; row ``S`` is a +inf pad
    standing in for missing child slots. ``slot[s, r]`` maps state (v, i) to
    (s-th child of v, i), the child's table without its last ancestor, and
    ``cost[s, r]`` is the price of deleting v's other children whole. When v
    is a binary saddle, ``other[s, r]`` is the tip row of the child not in
    slot s and ``odel[s, r]`` its deletion cost.
    """

    __slots__ = (
        "children", "values", "entry", "S", "H", "order", "first", "rows", "dmax", "degmax",
        "off", "last", "ancrow", "lows", "highs", "slot", "cost", "other", "odel", "D", "KD",
    )

    def __init__(self, tree: MergeTree, metric: BaseMetric, squared: bool):
        self.children = children = tree.children
        self.values = values = tree.values
        self.entry = entry = children[tree.root][0]
        # the non-root nodes, children before parents; depth[v] counts v's
        # strict ancestors, the candidate starts of its branch
        post, depth = tree.preorder[:0:-1], tree.depths
        n = len(values)
        height = [0] * n
        for v in post:
            cs = children[v]
            if cs:
                height[v] = 1 + max([height[c] for c in cs])
        self.H = H = height[entry]
        self.order = order = sorted(post, key=lambda v: (height[v], v))
        off = [0] * n
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
            dmax[h] = max(dmax[h], len(children[v]))
        self.S, self.rows, self.first, self.dmax = S, rows, first, dmax
        self.degmax = degmax = max(dmax)
        self.off = off
        self.last = last = [d - 1 for d in depth]
        # per node, by layout position: the tip row of every child slot
        # (S + 1, a zero delete cost, if none), the shift from a state to the
        # child's state of the same start (S if none, clipped to the pad row),
        # and for binary saddles the other child's tip row (S if none)
        ctip = [[S + 1] * len(order) for _ in range(degmax)]
        shift = [[S] * len(order) for _ in range(degmax)]
        other = [[S] * len(order) for _ in range(2)]
        for k, v in enumerate(order):
            cs = children[v]
            for s, c in enumerate(cs):
                ctip[s][k] = off[c] + last[c]
                shift[s][k] = off[c] - off[v]
            if len(cs) == 2:
                other[0][k], other[1][k] = ctip[1][k], ctip[0][k]
        layout = np.array(
            [order, [depth[v] for v in order]] + ctip + shift + other, dtype=np.int64
        )
        ctip = layout[2:2 + degmax]
        rowl = np.arange(len(order)).repeat(layout[1])  # layout position of every row

        ancrow = np.empty(S, dtype=np.int64)  # start node of every row
        parent = tree.parent
        for v in tree.preorder[1:]:
            o, k = off[v], depth[v] - 1
            p = int(parent[v])
            if k:
                ancrow[o:o + k] = ancrow[off[p]:off[p] + k]
            ancrow[o + k] = p
        self.ancrow = ancrow
        # leaf states: the inputs of the delete table and of the pair table's wave 0
        self.lows = values[ancrow[:rows[1]]]
        self.highs = values[layout[0].take(rowl[:rows[1]])]
        self.slot = slot = np.empty((degmax, S + 1), dtype=np.int64)
        slot[:, S] = S
        shift = layout[2 + degmax:2 + 2 * degmax].take(rowl, axis=1)
        np.minimum(np.arange(S) + shift, S, out=slot[:, :S])

        # delete table, one height at a time
        D = np.empty(S + 2)
        D[S:] = np.inf, 0.0
        d = metric.deletion_vec(self.lows, self.highs)
        D[:rows[1]] = d * d if squared else d
        cost = np.zeros((degmax, S + 1))
        KD = np.zeros(S, dtype=_code_dtype(degmax))
        for h in range(1, H + 1):
            a, b = rows[h], rows[h + 1]
            dm = dmax[h]
            z = D[ctip[:dm, first[h]:first[h + 1]]]
            tot = z[0].copy()
            for s in range(1, dm):
                tot += z[s]
            cost[:dm, a:b] = (tot - z).take(rowl[a:b] - first[h], axis=1)
            X = D[slot[:dm, a:b]] + cost[:dm, a:b]
            D[a:b] = X.min(axis=0)
            KD[a:b] = X.argmin(axis=0)
        self.D, self.KD, self.cost = D, KD, cost
        self.other = layout[2 + 2 * degmax:].take(rowl, axis=1)
        self.odel = D[self.other]


def _sides(f1: _Flat, f2: _Flat, T, r, c, sc, sd):
    """``side[i, j, ...]``: cost of matching the children of the state rows
    ``r`` other than slot i against those of the state columns ``c`` other
    than slot j, unmatched ones deleted or inserted whole.

    ``r`` and ``c`` index arrays broadcast against each other. For two binary
    saddles the cost is min(match, delete + insert), exactly what
    ``min_cost_matching`` returns for a 1x1 instance; wider saddles are
    filled in by :func:`_wide_sides`.
    """
    o1, o2 = f1.other.take(r, axis=1)[:, None], f2.other.take(c, axis=1)[None]
    binary = np.minimum(
        T.take(o1 * T.shape[1] + o2),
        f1.odel.take(r, axis=1)[:, None] + f2.odel.take(c, axis=1)[None],
    )
    if sc <= 2 and sd <= 2:
        return binary
    side = np.full((sc, sd) + binary.shape[2:], np.inf)
    side[:2, :2] = binary
    return side


def _wide_sides(f1: _Flat, f2: _Flat, T, h1, h2):
    """Matching costs of the node pairs of heights (h1, h2) that involve a
    saddle of degree 3 or more: a list of ``(rows, cols, side)``, one per
    pair of child counts (c, d), with the state rows and columns of its node
    pairs and ``side[i, j, r, c]``, the cost of matching the children other
    than slot i against those other than slot j, batched by
    :func:`matching_costs`."""
    out = []
    by1, by2 = _saddles_by_degree(f1, h1), _saddles_by_degree(f2, h2)
    for c, vs in by1.items():
        for d, ws in by2.items():
            if c == d == 2:
                continue
            # tip rows of the children other than slot i of node x, at [x, i]
            t1 = _tip_rows(f1, vs, c)[:, _others(c)]
            t2 = _tip_rows(f2, ws, d)[:, _others(d)]
            side = matching_costs(  # axes: node x, node y, slot i, slot j
                T.take(t1[:, None, :, None, :, None] * T.shape[1] + t2[None, :, None, :, None, :]),
                f1.D[t1][:, None, :, None],
                f2.D[t2][:, None],
            )
            rows, x = _state_rows(f1, vs)
            cols, y = _state_rows(f2, ws)
            out.append((rows, cols, side[x][:, y].transpose(2, 3, 0, 1)))
    return out


def _saddles_by_degree(f: _Flat, h):
    """The saddles of height h, grouped by their number of children."""
    out = {}
    for v in f.order[f.first[h]:f.first[h + 1]]:
        k = len(f.children[v])
        if k > 1:
            out.setdefault(k, []).append(v)
    return out


def _tip_rows(f: _Flat, nodes, k):
    """Tip rows of the k children of every node in ``nodes``, one row each."""
    return np.array([f.tips(f.children[v]) for v in nodes], dtype=np.int64).reshape(len(nodes), k)


def _others(k):
    """``out[i]``: the slots 0..k-1 other than i, in order."""
    return np.array([[s for s in range(k) if s != i] for i in range(k)], dtype=np.int64)


def _state_rows(f: _Flat, nodes):
    """The state rows of ``nodes`` and, per row, the position of its node."""
    counts = [f.last[v] + 1 for v in nodes]
    node = np.repeat(np.arange(len(nodes)), counts)
    first = np.cumsum(counts) - counts  # each node's first entry
    return np.array([f.off[v] for v in nodes]).take(node) + np.arange(len(node)) - first.take(node), node


def _codes(NC, ND, sc, sd, dtype):
    """Codes of the options in their fixed order: tree-1 slots, tree-2 slots,
    then matched slot pairs."""
    return np.array(
        list(range(sc))
        + [NC + j for j in range(sd)]
        + [NC + ND + i * ND + j for i in range(sc) for j in range(sd)],
        dtype=dtype,
    )


def _fill_slices(f1, f2, T, K, h1, h2):
    """Fill the rectangle of heights (h1, h2) in row chunks."""
    a, b = f1.rows[h1], f1.rows[h1 + 1]
    c, d = f2.rows[h2], f2.rows[h2 + 1]
    sc, sd = f1.dmax[h1], f2.dmax[h2]
    codes = _codes(f1.degmax, f2.degmax, sc, sd, K.dtype)
    wide = _wide_sides(f1, f2, T, h1, h2) if sc > 2 or sd > 2 else []
    s1, s2 = f1.slot[:sc], f2.slot[:sd]
    step = max(1, _CHUNK_VALUES // ((d - c) * len(codes)))
    for r0 in range(a, b, step):
        r1 = min(b, r0 + step)
        X = np.empty((len(codes), r1 - r0, d - c))
        X[:sc] = T[s1[:, r0:r1], c:d]
        X[:sc] += f1.cost[:sc, r0:r1, None]
        np.add(T[r0:r1, s2[:, c:d]].transpose(1, 0, 2), f2.cost[:sd, None, c:d], out=X[sc:sc + sd])
        if sc and sd:
            side = _sides(f1, f2, T, np.arange(r0, r1)[:, None], np.arange(c, d)[None], sc, sd)
            for rows, cols, val in wide:
                keep = (rows >= r0) & (rows < r1)
                side[:val.shape[0], :val.shape[1], rows[keep, None] - r0, cols - c] = val[:, :, keep]
            M = X[sc + sd:].reshape(sc, sd, r1 - r0, d - c)
            M[...] = T.take(s1[:, None, r0:r1, None] * T.shape[1] + s2[None, :, None, c:d])
            M += side
        _first_min_into(X, codes, T[r0:r1, c:d], K[r0:r1, c:d])


def _fill_flat(f1, f2, T, K, rects):
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
    codes = _codes(f1.degmax, f2.degmax, sc, sd, K.dtype)
    if not any(h1 and h2 for h1, h2 in rects):
        codes = codes[:sc + sd]  # a leaf on one side everywhere: nothing to match
    # T and K are indexed through their flat views, T.ravel()[r * ncols + c]
    # being T[r, c]: one flat index array is faster than a pair of them
    ncols = T.shape[1]
    s1 = f1.slot[:sc].take(rr, axis=1) * ncols
    s2 = f2.slot[:sd].take(cc, axis=1)
    at = rr * ncols + cc
    X = np.empty((len(codes), len(rr)))
    X[:sc] = T.take(s1 + cc)
    X[:sc] += f1.cost[:sc].take(rr, axis=1)
    X[sc:sc + sd] = T.take(at - cc + s2)
    X[sc:sc + sd] += f2.cost[:sd].take(cc, axis=1)
    if len(codes) > sc + sd:
        side = _sides(f1, f2, T, rr, cc, sc, sd)
        if sc > 2 or sd > 2:
            for (h1, h2), (ra, ca, w, s0) in zip(rects, corners):
                for rows, cols, val in _wide_sides(f1, f2, T, h1, h2):
                    pos = s0 + (rows - ra)[:, None] * w + (cols - ca)
                    side[:val.shape[0], :val.shape[1], pos] = val
        M = X[sc + sd:].reshape(sc, sd, len(rr))
        M[...] = T.take(s1[:, None] + s2[None])
        M += side
    T.ravel()[at], K.ravel()[at] = _first_min(X, codes)


def _pair_table(f1: _Flat, f2: _Flat, metric: BaseMetric, squared: bool):
    """T[r1, r2]: cheapest mapping between the subtrees of two states.

    K holds the winning option's code: ``s < NC`` continues tree 1's branch
    through child slot s, ``NC + s`` tree 2's, and ``NC + ND + i * ND + j``
    continues both through slots (i, j) and matches the remaining children,
    where NC and ND are the trees' largest saddle degrees.
    """
    S1, S2 = f1.S, f2.S
    NC, ND = f1.degmax, f2.degmax
    T = np.empty((S1 + 1, S2 + 1))
    T[S1, :] = np.inf
    T[:, S2] = np.inf
    K = np.zeros((S1 + 1, S2 + 1), dtype=_code_dtype(NC + ND + NC * ND))
    # wave 0: leaf states against leaf states
    r1, r2 = f1.rows, f2.rows
    step = max(1, _CHUNK_VALUES // r2[1])
    for r0 in range(0, r1[1], step):
        rs = slice(r0, min(r1[1], r0 + step))
        G = metric.pair_grid(f1.lows[rs], f1.highs[rs, None], f2.lows, f2.highs)
        T[rs, :r2[1]] = G * G if squared else G
    for t in range(1, f1.H + f2.H + 1):
        small = []
        for h1 in range(max(0, t - f2.H), min(f1.H, t) + 1):
            h2 = t - h1
            if (r1[h1 + 1] - r1[h1]) * (r2[h2 + 1] - r2[h2]) >= _SLICE_STATES:
                _fill_slices(f1, f2, T, K, h1, h2)
            else:
                small.append((h1, h2))
        if small:
            _fill_flat(f1, f2, T, K, small)
    return T, K


def _walk(f1: _States, f2: _States | None, T, K, metric: BaseMetric, start):
    """Pairs, pair costs, deletions, insertions and each tree's continuation
    map of an optimal mapping.

    One explicit stack of work items: ``(v, i, w, j)`` maps the subtrees of
    the states (v, i) and (w, j); ``(0, v, i)`` deletes tree 1's subtree of
    state (v, i) and ``(1, w, j)`` inserts tree 2's. ``f2``, ``T`` and ``K``
    are None for a one-sided mapping. Matched siblings are pushed in
    reverse, so pairs come out in the order of the recursive definition.
    Every inner non-root node is left exactly once, through the child its
    branch continues into, so the continuation maps cover them all.
    """
    flats = (f1, f2)
    pairs, pair_costs = [], []
    out = ([], [])
    cont = ({}, {})
    stack = [start]
    while stack:
        item = stack.pop()
        if len(item) == 3:
            k, v, p = item
            f = flats[k]
            cs = f.children[v]
            if not cs:
                out[k].append(f.branch(v, p))
                continue
            keep = int(f.KD[f.off[v] + p])
            cont[k][v] = cs[keep]
            for x, c in enumerate(cs):
                stack.append((k, c, p if x == keep else f.last[c]))
            continue
        v, pi, w, pj = item
        cs, ds = f1.children[v], f2.children[w]
        if not cs and not ds:
            a, b = f1.branch(v, pi), f2.branch(w, pj)
            pairs.append((a, b))
            pair_costs.append(metric.pair(a.low, a.high, b.low, b.high))
            continue
        NC, ND = f1.degmax, f2.degmax
        code = int(K[f1.off[v] + pi, f2.off[w] + pj])
        if code < NC:
            cont[0][v] = cs[code]
            for x, c in enumerate(cs):
                if x != code:
                    stack.append((0, c, f1.last[c]))
            stack.append((cs[code], pi, w, pj))
            continue
        if code < NC + ND:
            code -= NC
            cont[1][w] = ds[code]
            for y, d in enumerate(ds):
                if y != code:
                    stack.append((1, d, f2.last[d]))
            stack.append((v, pi, ds[code], pj))
            continue
        i, j = divmod(code - NC - ND, ND)
        cont[0][v], cont[1][w] = cs[i], ds[j]
        rest_c = cs[:i] + cs[i + 1:]
        rest_d = ds[:j] + ds[j + 1:]
        t1, t2 = f1.tips(rest_c), f2.tips(rest_d)
        _, matched = _assignment(
            [[T[a, b] for b in t2] for a in t1],
            [f1.D[a] for a in t1],
            [f2.D[b] for b in t2],
            want_pairs=True,
        )
        hit_c = {ii for ii, _ in matched}
        hit_d = {jj for _, jj in matched}
        for ii, c in enumerate(rest_c):
            if ii not in hit_c:
                stack.append((0, c, f1.last[c]))
        for jj, d in enumerate(rest_d):
            if jj not in hit_d:
                stack.append((1, d, f2.last[d]))
        stack.append((cs[i], pi, ds[j], pj))
        for ii, jj in reversed(matched):
            c, d = rest_c[ii], rest_d[jj]
            stack.append((c, f1.last[c], d, f2.last[d]))
    return pairs, pair_costs, out, cont


# ---------------------------------------------------------------------------
# fixed mode: both decompositions given, so branch starts are determined and
# the state space collapses to node pairs
# ---------------------------------------------------------------------------

class _Fixed(_States):
    """One tree under a fixed decomposition, in the layout :func:`_walk` reads.

    Every non-root node v has the single state ``(v, 0)``, row v (the
    root's row is unused): ``ancrow[v]`` is the start of the branch through
    v, ``KD[v]`` the slot of v's continuation child and ``D[v]`` the cost of
    deleting every branch whose leaf lies under v.
    """

    __slots__ = ("children", "values", "entry", "post", "S", "degmax", "off", "last", "ancrow", "KD", "D")

    def __init__(self, tree: MergeTree, dec: BranchDecomposition, metric: BaseMetric, squared: bool):
        self.children = children = tree.children
        self.values = values = tree.values
        self.entry = children[tree.root][0]
        self.post = post = tree.preorder[:0:-1]  # children before parents, root excluded
        n = len(children)
        self.S = len(post)
        self.degmax = max(len(children[v]) for v in post)
        self.off, self.last = range(n), [0] * n
        self.ancrow = start = [dec.branch_through(v).start for v in range(n)]
        self.KD = [cs.index(dec.continuation[v]) if cs else 0 for v, cs in enumerate(children)]
        self.D = D = [0.0] * n
        for v in post:
            cs = children[v]
            if cs:
                D[v] = sum(D[c] for c in cs)
            else:
                c = metric.deletion(float(values[start[v]]), float(values[v]))
                D[v] = c * c if squared else c


def _fixed_tables(f1: _Fixed, f2: _Fixed, metric: BaseMetric, squared: bool):
    """F[v, w]: cheapest mapping between the subtrees of two nodes, and in K
    the winning option in :func:`_pair_table`'s codes, filled one node pair
    at a time."""
    NC, ND = f1.degmax, f2.degmax
    n2 = len(f2.children)
    F = [[0.0] * n2 for _ in f1.children]
    K = [[0] * n2 for _ in f1.children]
    # per tree-2 node: leaf label, or continuation slot, continuation child,
    # the other children and the cost of inserting them
    low2 = [float(f2.values[s]) for s in f2.ancrow]
    high2 = f2.values.tolist()
    inner2 = {}
    for w in f2.post:
        ds = f2.children[w]
        if ds:
            j = f2.KD[w]
            d_side = ds[:j] + ds[j + 1:]
            inss = [f2.D[d] for d in d_side]
            inner2[w] = (j, ds[j], d_side, inss, sum(inss))
    for v in f1.post:
        Fv, Kv = F[v], K[v]
        cs = f1.children[v]
        if not cs:
            a_low, a_high = float(f1.values[f1.ancrow[v]]), float(f1.values[v])
            for w in f2.post:
                if w in inner2:
                    j, d_main, _, _, ins_sides = inner2[w]
                    Fv[w] = Fv[d_main] + ins_sides
                    Kv[w] = NC + j
                else:
                    c = metric.pair(a_low, a_high, low2[w], high2[w])
                    Fv[w] = c * c if squared else c
            continue
        i = f1.KD[v]
        Fc = F[cs[i]]
        c_side = cs[:i] + cs[i + 1:]
        dels = [f1.D[c] for c in c_side]
        del_sides = sum(dels)
        for w in f2.post:
            if w not in inner2:
                Fv[w] = Fc[w] + del_sides
                Kv[w] = i
                continue
            j, d_main, d_side, inss, ins_sides = inner2[w]
            side_cost, _ = _assignment([[F[c][d] for d in d_side] for c in c_side], dels, inss)
            a = Fc[w] + del_sides
            b = Fv[d_main] + ins_sides
            m = Fc[d_main] + side_cost
            if a <= b and a <= m:
                Fv[w], Kv[w] = a, i
            elif b <= m:
                Fv[w], Kv[w] = b, NC + j
            else:
                Fv[w], Kv[w] = m, NC + ND + i * ND + j
    return np.array(F), np.array(K, dtype=_code_dtype(NC + ND + NC * ND))


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _states(tree: MergeTree, dec: BranchDecomposition | None, metric: BaseMetric, squared: bool):
    require_valid(tree)
    return _Flat(tree, metric, squared) if dec is None else _Fixed(tree, dec, metric, squared)


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
    squared = mode == "l2"
    if mode not in ("sum", "l2"):
        raise ValueError(f"unknown aggregation mode {mode!r}")
    trees = (tree1, tree2)
    if fixed is not None:
        for k, (tree, dec) in enumerate(zip(trees, fixed)):
            if tree is not None and (dec is None or dec.tree != tree):
                raise PreconditionError(f"fixed decomposition does not belong to tree {k + 1}")
    decs = (None, None) if fixed is None else fixed
    f1, f2 = (None if t is None else _states(t, d, metric, squared) for t, d in zip(trees, decs))
    pairs, pair_costs, out, cont = [], [], [[], []], [{}, {}]
    total, keys, bound = 0.0, 0, 0
    if f1 is not None and f2 is not None:
        T, K = (_pair_table if fixed is None else _fixed_tables)(f1, f2, metric, squared)
        total = T[f1.off[f1.entry], f2.off[f2.entry]]
        pairs, pair_costs, out, cont = _walk(f1, f2, T, K, metric, (f1.entry, 0, f2.entry, 0))
        keys = f1.S * f2.S
        bound = len(tree1) * tree1.depth * len(tree2) * tree2.depth
    else:
        for k, f in enumerate((f1, f2)):
            if f is not None:
                total = f.D[f.off[f.entry]]
                _, _, (out[k], _), (cont[k], _) = _walk(f, None, None, None, metric, (0, f.entry, 0))
    null_keys = sum(f.S for f in (f1, f2) if f is not None)
    decs = [
        None if t is None
        else d if d is not None
        else BranchDecomposition(t, {t.root: f.entry, **cont[k]})
        for k, (t, d, f) in enumerate(zip(trees, decs, (f1, f2)))
    ]
    distance = finalize(total, mode)
    return distance, BranchMapping(
        tree1=tree1,
        tree2=tree2,
        decomposition1=decs[0],
        decomposition2=decs[1],
        pairs=tuple(pairs),
        pair_costs=tuple(pair_costs),
        deletions=tuple(sorted(out[0])),
        insertions=tuple(sorted(out[1])),
        total_cost=distance,
        metric=metric,
        mode=mode,
        stats=MemoStats(keys=keys, null_keys=null_keys, bound=bound),
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


def validate_branch_mapping(mapping: BranchMapping) -> MappingReport:
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
        costs = m.edit_costs()
        if abs(aggregate(costs, m.mode) - m.total_cost) > 1e-9:
            bad.append("total cost does not match the aggregated edit costs")
        return MappingReport(ok=not bad, violations=tuple(bad))

    left = [a for a, _ in m.pairs]
    right = [b for _, b in m.pairs]
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        bad.append("condition 1 (one-to-one) violated")
    if m.decomposition1 is None or m.decomposition2 is None:
        bad.append("mapping lacks its decompositions")
        return MappingReport(ok=False, violations=tuple(bad))
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
    costs = m.edit_costs()
    if abs(aggregate(costs, m.mode) - m.total_cost) > 1e-9:
        bad.append("total cost does not match the aggregated edit costs")
    return MappingReport(ok=not bad, violations=tuple(bad))


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
