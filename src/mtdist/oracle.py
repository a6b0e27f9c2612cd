"""Exhaustive reference for the branch-mapping distance.

Enumerates every pair of branch decompositions and, for each pair, every
valid mapping by recursive matching over the two branch decomposition trees:
the main branches are matched, and the children of a matched pair may be
matched among themselves as long as the attachment order of the start
vertices is preserved both ways (equal starts to equal starts, deeper starts
to deeper starts). Unmatched branches are deleted or inserted with their
whole subtrees. Intentionally brute force; capped at small trees.
"""

from __future__ import annotations

from .branches import build_bdt, enumerate_branch_decompositions
from .errors import SizeLimitError, _choice
from .metrics import MODE_NAMES, BaseMetric, dp_terms, finalize
from .trees import MergeTree, _preorder, require_valid


def oracle_distance(
    tree1: MergeTree | None,
    tree2: MergeTree | None,
    metric: BaseMetric,
    mode: str = "sum",
    max_leaves: int = 7,
) -> float:
    _choice("aggregation mode", mode, MODE_NAMES)
    if tree1 is None and tree2 is None:
        return 0.0
    if tree1 is None or tree2 is None:
        tree = tree1 if tree2 is None else tree2
        require_valid(tree)
        _check_cap(tree, max_leaves)
        _, dels, _ = _label_terms(tree, tree, metric, mode == "l2")
        best = min(
            sum(dels[b.start][tree.leaves.index(b.leaf)] for b in dec.branches)
            for dec in enumerate_branch_decompositions(tree, max_leaves)
        )
        return finalize(best, mode)

    require_valid(tree1)
    require_valid(tree2)
    _check_cap(tree1, max_leaves)
    _check_cap(tree2, max_leaves)
    pairs, dels1, dels2 = _label_terms(tree1, tree2, metric, mode == "l2")
    decs1 = enumerate_branch_decompositions(tree1, max_leaves)
    decs2 = enumerate_branch_decompositions(tree2, max_leaves)
    views2 = [_BdtView(tree2, d2, dels2) for d2 in decs2]
    best = float("inf")
    for d1 in decs1:
        b1 = _BdtView(tree1, d1, dels1)
        for b2 in views2:
            best = min(best, _best_mapping(b1, b2, pairs))
    return finalize(best, mode)


def _label_terms(tree1, tree2, metric, squared):
    """``(pairs, dels1, dels2)``: the :func:`dp_terms` of every branch that
    could be, ``dels[s][l]`` for the one from node s to the l-th of the
    tree's leaves, and of every pair of them, ``pairs[s1][l1][s2][l2]``;
    one call per form."""
    pair, deletion = dp_terms(metric, squared)
    label1, label2 = ((t.values[:, None], t.values[list(t.leaves)]) for t in (tree1, tree2))
    pairs = pair([x[..., None, None] for x in label1], label2).tolist()
    return pairs, deletion(label1).tolist(), deletion(label2).tolist()


def _check_cap(tree, max_leaves):
    n = len(tree.leaves)
    if n > max_leaves:
        raise SizeLimitError(f"tree has {n} leaves, oracle capped at {max_leaves}")


class _BdtView:
    __slots__ = ("ends", "children", "root", "subdel", "start_depth")

    def __init__(self, tree, dec, dels):
        bdt = build_bdt(dec)
        self.ends = [(b.start, tree.leaves.index(b.leaf)) for b in bdt.branches]
        self.children = bdt.children
        self.root = bdt.root
        self.start_depth = [tree.depths[b.start] for b in bdt.branches]
        self.subdel = subdel = [0.0] * len(bdt.branches)
        for i in reversed(_preorder(self.root, self.children)):
            s, leaf = self.ends[i]
            subdel[i] = dels[s][leaf] + sum(subdel[c] for c in self.children[i])


def _relation(view, i, j):
    """-1, 0, +1: is branch i's start above, equal to, or below branch j's."""
    if view.ends[i][0] == view.ends[j][0]:
        return 0
    return -1 if view.start_depth[i] < view.start_depth[j] else 1


def _best_mapping(b1: _BdtView, b2: _BdtView, pairs):
    memo = {}

    def match(i, j):
        key = (i, j)
        if key in memo:
            return memo[key]
        ca = b1.children[i]
        cb = b2.children[j]
        (s1, l1), (s2, l2) = b1.ends[i], b2.ends[j]
        base = pairs[s1][l1][s2][l2]
        best = [float("inf")]

        def rec(k, used, acc, chosen):
            if acc >= best[0]:
                return
            if k == len(ca):
                total = acc + sum(b2.subdel[cb[j2]] for j2 in range(len(cb)) if j2 not in used)
                best[0] = min(best[0], total)
                return
            c = ca[k]
            rec(k + 1, used, acc + b1.subdel[c], chosen)
            for j2, d in enumerate(cb):
                if j2 in used:
                    continue
                ok = True
                for cc, dd in chosen:
                    if _relation(b1, c, cc) != _relation(b2, d, dd):
                        ok = False
                        break
                if ok:
                    used.add(j2)
                    chosen.append((c, d))
                    rec(k + 1, used, acc + match(c, d), chosen)
                    chosen.pop()
                    used.remove(j2)

        rec(0, set(), 0.0, [])
        memo[key] = base + best[0]
        return memo[key]

    return match(b1.root, b2.root)
