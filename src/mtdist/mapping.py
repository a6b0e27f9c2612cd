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
large instances (hundreds of nodes) fast; fixed mode needs one entry per
node pair. At an inner-inner state the options are, in this fixed order:

1. continue tree 1's branch through one child, deleting the sibling
   subtrees, leaving tree 2 untouched (one option per child);
2. symmetrically for tree 2;
3. pick the continuation child in both trees and optimally match the
   remaining children against each other, unmatched ones being deleted or
   inserted wholly (one option per continuation pair).

The first minimum wins, which makes reported mappings reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .branches import Branch, BranchDecomposition
from .errors import PreconditionError
from .matching import min_cost_matching as _assignment
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
# per-tree precomputation
# ---------------------------------------------------------------------------

class _Side:
    """Traversal orders of one tree, shared by both modes."""

    __slots__ = ("tree", "values", "post", "depth", "children", "is_leaf", "entry")

    def __init__(self, tree: MergeTree):
        self.tree = tree
        self.values = tree.values
        self.children = tree.children
        self.is_leaf = [not c for c in tree.children]
        root = tree.root
        if len(tree.children[root]) != 1:
            raise PreconditionError("root must have exactly one child")
        self.entry = tree.children[root][0]
        # iterative post-order over non-root nodes, children before parents
        post = []
        stack = [(self.entry, False)]
        while stack:
            v, expanded = stack.pop()
            if expanded:
                post.append(v)
                continue
            stack.append((v, True))
            for c in reversed(tree.children[v]):
                stack.append((c, False))
        self.post = post
        # depth[v]: number of strict ancestors of v, i.e. of candidate branch starts
        depth = [0] * len(tree)
        depth[self.entry] = 1
        for v in reversed(post):
            for c in tree.children[v]:
                depth[c] = depth[v] + 1
        self.depth = depth


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
# batches alone need several index arrays per state on large ones. A batch
# evaluates all its options at once, in pieces of about _CHUNK_VALUES values.
_SLICE_STATES = 2048
_CHUNK_VALUES = 1 << 18


def _code_dtype(count):
    """Smallest unsigned dtype holding the option codes ``0..count-1``."""
    return np.min_scalar_type(max(count - 1, 0))


def _first_min(options, codes):
    """Minimum over the leading axis and the code of the first option reaching it."""
    return options.min(axis=0), codes[options.argmin(axis=0)]


class _Flat:
    """Flat state layout of one tree and its delete table.

    Nodes are numbered in (height, id) order -- ``order[k]`` is the k-th and
    ``first[h]`` the first of height h -- so the states of one height form
    the contiguous rows ``rows[h]:rows[h + 1]``; row ``S`` is a +inf pad
    standing in for missing child slots. ``slot[s, r]`` maps state (v, i) to
    (s-th child of v, i), the child's table without its last ancestor, and
    ``cost[s, r]`` is the price of deleting v's other children whole. When v
    is a binary saddle, ``other[s, r]`` is the tip row of the child not in
    slot s and ``odel[s, r]`` its deletion cost. ``D[r]`` is the cheapest
    deletion of the subtree of state r and ``KD[r]`` the child slot its
    branch continues through.
    """

    __slots__ = (
        "children", "values", "entry", "S", "H", "order", "first", "rows", "dmax", "degmax",
        "off", "last", "ancrow", "lows", "highs", "slot", "cost", "other", "odel", "D", "KD",
    )

    def __init__(self, side: _Side, metric: BaseMetric, squared: bool):
        self.children = children = side.children
        self.values = values = side.values
        self.entry = side.entry
        post, depth = side.post, side.depth
        n = len(values)
        height = [0] * n
        for v in post:
            cs = children[v]
            if cs:
                height[v] = 1 + max([height[c] for c in cs])
        self.H = H = height[side.entry]
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
        parent = side.tree.parent
        for v in reversed(post):
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

    def branch(self, v, i):
        start = int(self.ancrow[self.off[v] + i])
        return Branch(start, v, float(self.values[start]), float(self.values[v]))

    def tips(self, nodes):
        return [self.off[c] + self.last[c] for c in nodes]


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
    saddle of degree 3 or more, from ``min_cost_matching``: a list of
    ``(rows, cols, side)`` with the node pair's row and column ranges."""
    out = []
    inner = [w for w in f2.order[f2.first[h2]:f2.first[h2 + 1]] if len(f2.children[w]) > 1]
    wide = [w for w in inner if len(f2.children[w]) > 2]
    for v in f1.order[f1.first[h1]:f1.first[h1 + 1]]:
        cs = f1.children[v]
        if len(cs) < 2:
            continue
        t1 = f1.tips(cs)
        dels = f1.D[t1].tolist()
        for w in inner if len(cs) > 2 else wide:
            ds = f2.children[w]
            t2 = f2.tips(ds)
            P = T[np.ix_(t1, t2)].tolist()
            inss = f2.D[t2].tolist()
            side = np.empty((len(cs), len(ds)))
            for i in range(len(cs)):
                rest = P[:i] + P[i + 1:]
                rest_dels = dels[:i] + dels[i + 1:]
                for j in range(len(ds)):
                    side[i, j] = _assignment(
                        [r[:j] + r[j + 1:] for r in rest], rest_dels, inss[:j] + inss[j + 1:]
                    )[0]
            rows = (f1.off[v], f1.off[v] + f1.last[v] + 1)
            cols = (f2.off[w], f2.off[w] + f2.last[w] + 1)
            out.append((rows, cols, side))
    return out


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
            for (ra, rb), (ca, cb), val in wide:
                lo, hi = max(ra, r0), min(rb, r1)
                if lo < hi:
                    side[:val.shape[0], :val.shape[1], lo - r0:hi - r0, ca - c:cb - c] = val[..., None, None]
            M = X[sc + sd:].reshape(sc, sd, r1 - r0, d - c)
            M[...] = T.take(s1[:, None, r0:r1, None] * T.shape[1] + s2[None, :, None, c:d])
            M += side
        T[r0:r1, c:d], K[r0:r1, c:d] = _first_min(X, codes)


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
                for (va, vb), (wa, wb), val in _wide_sides(f1, f2, T, h1, h2):
                    pos = s0 + (np.arange(va, vb)[:, None] - ra) * w + np.arange(wa - ca, wb - ca)
                    side[:val.shape[0], :val.shape[1], pos] = val[..., None, None]
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


def _walk(f1: _Flat, f2: _Flat | None, T, K, metric: BaseMetric, start):
    """Pairs, pair costs, deletions and insertions of an optimal mapping.

    One explicit stack of work items: ``(v, i, w, j)`` maps the subtrees of
    the states (v, i) and (w, j); ``(0, v, i)`` deletes tree 1's subtree of
    state (v, i) and ``(1, w, j)`` inserts tree 2's. ``f2``, ``T`` and ``K``
    are None for a one-sided mapping. Matched siblings are pushed in
    reverse, so pairs come out in the order of the recursive definition.
    """
    flats = (f1, f2)
    pairs, pair_costs = [], []
    out = ([], [])
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
            for x, c in enumerate(cs):
                if x != code:
                    stack.append((0, c, f1.last[c]))
            stack.append((cs[code], pi, w, pj))
            continue
        if code < NC + ND:
            code -= NC
            for y, d in enumerate(ds):
                if y != code:
                    stack.append((1, d, f2.last[d]))
            stack.append((v, pi, ds[code], pj))
            continue
        i, j = divmod(code - NC - ND, ND)
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
    return pairs, pair_costs, out[0], out[1]


# ---------------------------------------------------------------------------
# fixed mode: both decompositions given, so branch starts are determined and
# the state space collapses to node pairs
# ---------------------------------------------------------------------------

class _FixedSide:
    __slots__ = ("side", "dec", "cont", "low", "W", "inner_sides")

    def __init__(self, side: _Side, dec: BranchDecomposition, metric, squared):
        self.side = side
        self.dec = dec
        tree = side.tree
        self.cont = dec.continuation
        self.low = [0.0] * len(tree)
        for v in side.post:
            self.low[v] = float(dec.branch_through(v).low)
        # W[v]: cost of deleting every branch whose leaf lies under v
        self.W = [0.0] * len(tree)
        for v in side.post:
            if side.is_leaf[v]:
                b = dec.branch_of_leaf(v)
                c = metric.deletion(b.low, b.high)
                self.W[v] = c * c if squared else c
            else:
                self.W[v] = sum(self.W[c] for c in side.children[v])

    def branches_under(self, v):
        """All decomposition branches whose leaf lies in the subtree at v."""
        inside = set(self.side.tree.subtree_nodes(v))
        return [b for b in self.dec.branches if b.leaf in inside]


def _fixed_tables(f1: _FixedSide, f2: _FixedSide, metric, squared):
    s1, s2 = f1.side, f2.side
    n1, n2 = len(s1.tree), len(s2.tree)
    F = [[0.0] * n2 for _ in range(n1)]
    K = [[0] * n2 for _ in range(n1)]
    for v in s1.post:
        v_leaf = s1.is_leaf[v]
        cs = s1.children[v]
        if not v_leaf:
            c_main = f1.cont[v]
            c_side = [c for c in cs if c != c_main]
            del_sides = sum(f1.W[c] for c in c_side)
        for w in s2.post:
            w_leaf = s2.is_leaf[w]
            ds = s2.children[w]
            if not w_leaf:
                d_main = f2.cont[w]
                d_side = [d for d in ds if d != d_main]
                ins_sides = sum(f2.W[d] for d in d_side)
            if v_leaf and w_leaf:
                c = metric.pair(f1.low[v], float(s1.values[v]), f2.low[w], float(s2.values[w]))
                F[v][w] = c * c if squared else c
                continue
            if v_leaf:
                F[v][w] = F[v][d_main] + ins_sides
                K[v][w] = 0
                continue
            if w_leaf:
                F[v][w] = F[c_main][w] + del_sides
                K[v][w] = 0
                continue
            P = [[F[cc][dd] for dd in d_side] for cc in c_side]
            side_cost, _ = _assignment(P, [f1.W[cc] for cc in c_side], [f2.W[dd] for dd in d_side])
            opts = (
                F[c_main][w] + del_sides,
                F[v][d_main] + ins_sides,
                F[c_main][d_main] + side_cost,
            )
            k = min(range(3), key=lambda t: opts[t])
            K[v][w] = k
            F[v][w] = opts[k]
    return F, K


def _fixed_reconstruct(f1, f2, F, K, metric):
    s1, s2 = f1.side, f2.side
    pairs = []
    pair_costs = []
    deletions = []
    insertions = []

    def walk(v, w):
        v_leaf = s1.is_leaf[v]
        w_leaf = s2.is_leaf[w]
        if v_leaf and w_leaf:
            a = f1.dec.branch_of_leaf(v)
            b = f2.dec.branch_of_leaf(w)
            pairs.append((a, b))
            pair_costs.append(metric.pair(a.low, a.high, b.low, b.high))
            return
        cs = s1.children[v]
        ds = s2.children[w]
        if v_leaf:
            d_main = f2.cont[w]
            for d in ds:
                if d != d_main:
                    insertions.extend(f2.branches_under(d))
            walk(v, d_main)
            return
        if w_leaf:
            c_main = f1.cont[v]
            for c in cs:
                if c != c_main:
                    deletions.extend(f1.branches_under(c))
            walk(c_main, w)
            return
        c_main = f1.cont[v]
        d_main = f2.cont[w]
        c_side = [c for c in cs if c != c_main]
        d_side = [d for d in ds if d != d_main]
        k = K[v][w]
        if k == 0:
            for c in c_side:
                deletions.extend(f1.branches_under(c))
            walk(c_main, w)
            return
        if k == 1:
            for d in d_side:
                insertions.extend(f2.branches_under(d))
            walk(v, d_main)
            return
        P = [[F[cc][dd] for dd in d_side] for cc in c_side]
        _, matched = _assignment(
            P, [f1.W[cc] for cc in c_side], [f2.W[dd] for dd in d_side], want_pairs=True
        )
        hit_c = set()
        hit_d = set()
        for ii, jj in matched:
            hit_c.add(ii)
            hit_d.add(jj)
            walk(c_side[ii], d_side[jj])
        for ii, cc in enumerate(c_side):
            if ii not in hit_c:
                deletions.extend(f1.branches_under(cc))
        for jj, dd in enumerate(d_side):
            if jj not in hit_d:
                insertions.extend(f2.branches_under(dd))
        walk(c_main, d_main)

    walk(s1.entry, s2.entry)
    return pairs, pair_costs, deletions, insertions


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

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
    if tree1 is None and tree2 is None:
        stats = MemoStats(keys=0, null_keys=0, bound=0)
        return 0.0, BranchMapping(
            None, None, None, None, (), (), (), (), 0.0, metric, mode, stats
        )
    if fixed is not None:
        return _distance_fixed(tree1, tree2, metric, mode, squared, fixed)
    return _distance_free(tree1, tree2, metric, mode, squared)


def _one_sided(tree, metric, mode, squared, deleting, fixed_dec=None):
    side = _Side(require_valid(tree))
    if fixed_dec is not None:
        branches = fixed_dec.branches
        total = sum(
            (metric.deletion(b.low, b.high) ** 2 if squared else metric.deletion(b.low, b.high))
            for b in branches
        )
        dec = fixed_dec
    else:
        flat = _Flat(side, metric, squared)
        total = float(flat.D[flat.off[side.entry]])
        _, _, out, _ = _walk(flat, None, None, None, metric, (0, side.entry, 0))
        dec = BranchDecomposition.from_branches(tree, out)
        branches = dec.branches
    null_keys = sum(side.depth)
    stats = MemoStats(keys=0, null_keys=null_keys, bound=0)
    distance = finalize(total, mode)
    branches = tuple(sorted(branches))
    mapping = BranchMapping(
        tree1=tree if deleting else None,
        tree2=None if deleting else tree,
        decomposition1=dec if deleting else None,
        decomposition2=None if deleting else dec,
        pairs=(),
        pair_costs=(),
        deletions=branches if deleting else (),
        insertions=() if deleting else branches,
        total_cost=distance,
        metric=metric,
        mode=mode,
        stats=stats,
    )
    return distance, mapping


def _distance_free(tree1, tree2, metric, mode, squared):
    if tree2 is None:
        return _one_sided(tree1, metric, mode, squared, deleting=True)
    if tree1 is None:
        return _one_sided(tree2, metric, mode, squared, deleting=False)
    f1 = _Flat(_Side(require_valid(tree1)), metric, squared)
    f2 = _Flat(_Side(require_valid(tree2)), metric, squared)
    T, K = _pair_table(f1, f2, metric, squared)
    e1, e2 = f1.entry, f2.entry
    total = float(T[f1.off[e1], f2.off[e2]])
    pairs, pair_costs, dels, inss = _walk(f1, f2, T, K, metric, (e1, 0, e2, 0))
    dec1 = BranchDecomposition.from_branches(tree1, [a for a, _ in pairs] + dels)
    dec2 = BranchDecomposition.from_branches(tree2, [b for _, b in pairs] + inss)
    keys = f1.S * f2.S
    null_keys = f1.S + f2.S
    bound = len(tree1) * tree1.depth * len(tree2) * tree2.depth
    stats = MemoStats(keys=keys, null_keys=null_keys, bound=bound)
    distance = finalize(total, mode)
    mapping = BranchMapping(
        tree1=tree1,
        tree2=tree2,
        decomposition1=dec1,
        decomposition2=dec2,
        pairs=tuple(pairs),
        pair_costs=tuple(pair_costs),
        deletions=tuple(sorted(dels)),
        insertions=tuple(sorted(inss)),
        total_cost=distance,
        metric=metric,
        mode=mode,
        stats=stats,
    )
    return distance, mapping


def _distance_fixed(tree1, tree2, metric, mode, squared, fixed):
    dec1, dec2 = fixed
    if tree2 is None:
        if dec1 is None or dec1.tree != tree1:
            raise PreconditionError("fixed decomposition does not belong to tree 1")
        return _one_sided(tree1, metric, mode, squared, deleting=True, fixed_dec=dec1)
    if tree1 is None:
        if dec2 is None or dec2.tree != tree2:
            raise PreconditionError("fixed decomposition does not belong to tree 2")
        return _one_sided(tree2, metric, mode, squared, deleting=False, fixed_dec=dec2)
    if dec1 is None or dec1.tree != tree1:
        raise PreconditionError("fixed decomposition does not belong to tree 1")
    if dec2 is None or dec2.tree != tree2:
        raise PreconditionError("fixed decomposition does not belong to tree 2")
    s1 = _Side(require_valid(tree1))
    s2 = _Side(require_valid(tree2))
    f1 = _FixedSide(s1, dec1, metric, squared)
    f2 = _FixedSide(s2, dec2, metric, squared)
    F, K = _fixed_tables(f1, f2, metric, squared)
    total = float(F[s1.entry][s2.entry])
    pairs, pair_costs, dels, inss = _fixed_reconstruct(f1, f2, F, K, metric)
    keys = len(s1.post) * len(s2.post)
    bound = len(tree1) * tree1.depth * len(tree2) * tree2.depth
    stats = MemoStats(keys=keys, null_keys=len(s1.post) + len(s2.post), bound=bound)
    distance = finalize(total, mode)
    mapping = BranchMapping(
        tree1=tree1,
        tree2=tree2,
        decomposition1=dec1,
        decomposition2=dec2,
        pairs=tuple(pairs),
        pair_costs=tuple(pair_costs),
        deletions=tuple(sorted(dels)),
        insertions=tuple(sorted(inss)),
        total_cost=distance,
        metric=metric,
        mode=mode,
        stats=stats,
    )
    return distance, mapping


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
    pre = tree.subtree_nodes(tree.root)
    parent = tree.parent.tolist()
    size = [1] * len(tree)
    for v in reversed(pre[1:]):
        size[parent[v]] += size[v]
    enter = np.empty(len(tree), dtype=np.int64)
    enter[pre] = np.arange(len(tree))
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
