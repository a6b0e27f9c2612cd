"""The fixed-mode dynamic program as it was before it shared the free walker.

Kept verbatim (``_Side``, ``_FixedSide``, ``_fixed_tables``,
``_fixed_reconstruct``, ``_distance_fixed`` and the fixed branch of
``_one_sided``) as the reference for the equivalence property test in
``test_fixed_mode.py``: node-pair tables as nested lists, a recursive
reconstruction that deletes whole subtrees through ``branches_under``.
:func:`reference_fixed_mapping` runs it end to end.
"""

from __future__ import annotations

from mtdist.branches import BranchDecomposition
from mtdist.errors import PreconditionError
from mtdist.mapping import BranchMapping, MemoStats
from mtdist.matching import min_cost_matching as _assignment
from mtdist.metrics import dp_terms, finalize
from mtdist.trees import MergeTree, require_valid


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
                self.W[v] = dp_terms(metric, squared)[1](b.label)
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
                pair = dp_terms(metric, squared)[0]
                F[v][w] = pair((f1.low[v], float(s1.values[v])), (f2.low[w], float(s2.values[w])))
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


def _one_sided(tree, metric, mode, squared, deleting, fixed_dec):
    side = _Side(require_valid(tree))
    branches = fixed_dec.branches
    total = sum(dp_terms(metric, squared)[1](b.label) for b in branches)
    dec = fixed_dec
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


def reference_fixed_mapping(tree1, tree2, metric, mode, fixed):
    """``branch_mapping_distance(tree1, tree2, metric, mode, fixed=fixed)``
    as the old fixed-mode code computed it; either tree may be None."""
    return _distance_fixed(tree1, tree2, metric, mode, mode == "l2", fixed)
