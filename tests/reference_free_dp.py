"""The free-mode dynamic program as it was before the flat wavefront engine.

Kept verbatim (``_Side``, ``_delete_tables``, ``_free_tables``,
``_free_reconstruct``) as the reference for the equivalence property test in
``test_mapping_equivalence.py``: one Python iteration per node pair, tables
as nested lists of small numpy arrays, recursive reconstruction.
:func:`reference_free_mapping` runs it end to end.
"""

from __future__ import annotations

import numpy as np

from mtdist.branches import Branch
from mtdist.errors import PreconditionError
from mtdist.matching import min_cost_matching as _assignment
from mtdist.metrics import BaseMetric, dp_terms, finalize
from mtdist.trees import MergeTree


class _Side:
    __slots__ = ("tree", "values", "post", "anc", "anc_low", "children", "is_leaf", "entry")

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
        anc = [None] * len(tree)
        anc[root] = []
        order = tree.subtree_nodes(root)
        for v in order:
            if v == root:
                continue
            p = int(tree.parent[v])
            anc[v] = anc[p] + [p]
        self.anc = [np.array(a, dtype=np.int64) if a is not None else None for a in anc]
        self.anc_low = [
            tree.values[a] if a is not None and len(a) else np.empty(0) for a in self.anc
        ]


# ---------------------------------------------------------------------------
# free mode: minimize over all branch decompositions
# ---------------------------------------------------------------------------

def _delete_tables(side: _Side, metric: BaseMetric, squared: bool):
    """D[v][i] = cheapest deletion of the subtree hanging at v, with the
    branch through v starting at v's i-th ancestor."""
    n = len(side.tree)
    D = [None] * n
    K = [None] * n
    for v in side.post:
        lows = side.anc_low[v]
        if side.is_leaf[v]:
            D[v] = dp_terms(metric, squared)[1]((lows, float(side.values[v])))
        else:
            cs = side.children[v]
            tips = [D[c][-1] for c in cs]
            tot = sum(tips)
            opts = np.stack([D[c][:-1] + (tot - tips[i]) for i, c in enumerate(cs)])
            K[v] = np.argmin(opts, axis=0)
            D[v] = np.min(opts, axis=0)
    return D, K


def _free_tables(s1: _Side, s2: _Side, metric: BaseMetric, squared: bool):
    D1, KD1 = _delete_tables(s1, metric, squared)
    D2, KD2 = _delete_tables(s2, metric, squared)
    n1, n2 = len(s1.tree), len(s2.tree)
    T = [[None] * n2 for _ in range(n1)]
    K = [[None] * n2 for _ in range(n1)]
    for v in s1.post:
        v_leaf = s1.is_leaf[v]
        cs = s1.children[v]
        la1 = s1.anc_low[v]
        h1 = float(s1.values[v])
        if not v_leaf:
            dtip = [D1[c][-1] for c in cs]
            dtot = sum(dtip)
        for w in s2.post:
            w_leaf = s2.is_leaf[w]
            ds = s2.children[w]
            la2 = s2.anc_low[w]
            h2 = float(s2.values[w])
            if v_leaf and w_leaf:
                T[v][w] = dp_terms(metric, squared)[0]((la1[:, None], h1), (la2, h2))
                continue
            if not w_leaf:
                itip = [D2[d][-1] for d in ds]
                itot = sum(itip)
            opts = []
            if v_leaf:
                for j, d in enumerate(ds):
                    opts.append(T[v][d][:, :-1] + (itot - itip[j]))
            elif w_leaf:
                for i, c in enumerate(cs):
                    opts.append(T[c][w][:-1, :] + (dtot - dtip[i]))
            else:
                for i, c in enumerate(cs):
                    opts.append(T[c][w][:-1, :] + (dtot - dtip[i]))
                for j, d in enumerate(ds):
                    opts.append(T[v][d][:, :-1] + (itot - itip[j]))
                for i, c in enumerate(cs):
                    rest_c = [x for x in cs if x != c]
                    for j, d in enumerate(ds):
                        rest_d = [y for y in ds if y != d]
                        P = [[T[cc][dd][-1, -1] for dd in rest_d] for cc in rest_c]
                        side_cost, _ = _assignment(
                            P, [D1[cc][-1] for cc in rest_c], [D2[dd][-1] for dd in rest_d]
                        )
                        opts.append(T[c][d][:-1, :-1] + side_cost)
            stack = np.stack(opts)
            K[v][w] = np.argmin(stack, axis=0)
            T[v][w] = np.min(stack, axis=0)
    return T, K, D1, KD1, D2, KD2


def _free_reconstruct(s1, s2, T, K, D1, KD1, D2, KD2, metric):
    pairs = []
    pair_costs = []
    deletions = []
    insertions = []

    def emit_del(v, pi):
        if s1.is_leaf[v]:
            start = int(s1.anc[v][pi])
            deletions.append(Branch(start, v, float(s1.values[start]), float(s1.values[v])))
            return
        cs = s1.children[v]
        k = int(KD1[v][pi])
        emit_del(cs[k], pi)
        for i, c in enumerate(cs):
            if i != k:
                emit_del(c, len(s1.anc[c]) - 1)

    def emit_ins(w, pj):
        if s2.is_leaf[w]:
            start = int(s2.anc[w][pj])
            insertions.append(Branch(start, w, float(s2.values[start]), float(s2.values[w])))
            return
        ds = s2.children[w]
        k = int(KD2[w][pj])
        emit_ins(ds[k], pj)
        for j, d in enumerate(ds):
            if j != k:
                emit_ins(d, len(s2.anc[d]) - 1)

    def walk(v, pi, w, pj):
        v_leaf = s1.is_leaf[v]
        w_leaf = s2.is_leaf[w]
        if v_leaf and w_leaf:
            sa = int(s1.anc[v][pi])
            sb = int(s2.anc[w][pj])
            a = Branch(sa, v, float(s1.values[sa]), float(s1.values[v]))
            b = Branch(sb, w, float(s2.values[sb]), float(s2.values[w]))
            pairs.append((a, b))
            pair_costs.append(metric.pair(a.low, a.high, b.low, b.high))
            return
        k = int(K[v][w][pi, pj])
        cs = s1.children[v]
        ds = s2.children[w]
        if v_leaf:
            d = ds[k]
            for j, dd in enumerate(ds):
                if j != k:
                    emit_ins(dd, len(s2.anc[dd]) - 1)
            walk(v, pi, d, pj)
            return
        if w_leaf:
            c = cs[k]
            for i, cc in enumerate(cs):
                if i != k:
                    emit_del(cc, len(s1.anc[cc]) - 1)
            walk(c, pi, w, pj)
            return
        nc, nd = len(cs), len(ds)
        if k < nc:
            c = cs[k]
            for i, cc in enumerate(cs):
                if i != k:
                    emit_del(cc, len(s1.anc[cc]) - 1)
            walk(c, pi, w, pj)
            return
        if k < nc + nd:
            d = ds[k - nc]
            for j, dd in enumerate(ds):
                if j != k - nc:
                    emit_ins(dd, len(s2.anc[dd]) - 1)
            walk(v, pi, d, pj)
            return
        k -= nc + nd
        i, j = divmod(k, nd)
        c, d = cs[i], ds[j]
        rest_c = [x for x in cs if x != c]
        rest_d = [y for y in ds if y != d]
        P = [[T[cc][dd][-1, -1] for dd in rest_d] for cc in rest_c]
        _, matched = _assignment(
            P,
            [D1[cc][-1] for cc in rest_c],
            [D2[dd][-1] for dd in rest_d],
            want_pairs=True,
        )
        hit_c = set()
        hit_d = set()
        for ii, jj in matched:
            hit_c.add(ii)
            hit_d.add(jj)
            walk(rest_c[ii], len(s1.anc[rest_c[ii]]) - 1, rest_d[jj], len(s2.anc[rest_d[jj]]) - 1)
        for ii, cc in enumerate(rest_c):
            if ii not in hit_c:
                emit_del(cc, len(s1.anc[cc]) - 1)
        for jj, dd in enumerate(rest_d):
            if jj not in hit_d:
                emit_ins(dd, len(s2.anc[dd]) - 1)
        walk(c, pi, d, pj)

    walk(s1.entry, 0, s2.entry, 0)
    return pairs, pair_costs, deletions, insertions


def reference_free_mapping(tree1, tree2, metric, mode):
    """``(distance, pairs, sorted deletions, sorted insertions)`` of the free DP."""
    squared = mode == "l2"
    s1 = _Side(tree1)
    s2 = _Side(tree2)
    T, K, D1, KD1, D2, KD2 = _free_tables(s1, s2, metric, squared)
    total = float(T[s1.entry][s2.entry][0, 0])
    pairs, _, dels, inss = _free_reconstruct(s1, s2, T, K, D1, KD1, D2, KD2, metric)
    return finalize(total, mode), tuple(pairs), tuple(sorted(dels)), tuple(sorted(inss))


def reference_delete_cost(tree, metric, mode):
    """Distance of ``tree`` to the empty tree by the reference delete table."""
    side = _Side(tree)
    D, _ = _delete_tables(side, metric, mode == "l2")
    return finalize(float(D[side.entry][0]), mode)
