"""The recursive baselines as they were before the iterative versions.

Kept verbatim (``_subtree_null``, ``one_degree_distance``,
``constrained_edit_distance``) as the reference for the equality tests in
``test_baselines.py``: memoised recursion over node pairs, which raises
``RecursionError`` on trees deeper than the interpreter's recursion limit.
"""

from __future__ import annotations

from mtdist.baselines import LabeledTree
from mtdist.matching import min_cost_matching
from mtdist.metrics import BaseMetric, dp_terms, finalize


def _subtree_null(t: LabeledTree, null):
    kids = t.children
    out = [0.0] * len(t)

    def rec(v):
        out[v] = null(t.labels[v]) + sum(rec(c) for c in kids[v])
        return out[v]

    rec(t.root)
    return out


def reference_one_degree_distance(
    t1: LabeledTree, t2: LabeledTree, metric: BaseMetric, mode: str = "sum"
) -> float:
    """Unordered one-degree edit distance: roots are matched, and each child
    subtree is either matched to a child subtree of the partner node or
    deleted/inserted as a whole."""
    squared = mode == "l2"
    pair, null = dp_terms(metric, squared)
    sub1 = _subtree_null(t1, null)
    sub2 = _subtree_null(t2, null)
    kids1, kids2 = t1.children, t2.children
    memo: dict[tuple[int, int], float] = {}

    def dist(i, j):
        key = (i, j)
        if key in memo:
            return memo[key]
        ca, cb = kids1[i], kids2[j]
        P = [[dist(c, d) for d in cb] for c in ca]
        side, _ = min_cost_matching(P, [sub1[c] for c in ca], [sub2[d] for d in cb])
        memo[key] = pair(t1.labels[i], t2.labels[j]) + side
        return memo[key]

    return finalize(dist(t1.root, t2.root), mode)


def reference_constrained_edit_distance(
    t1: LabeledTree, t2: LabeledTree, metric: BaseMetric, mode: str = "sum"
) -> float:
    """Constrained edit distance: disjoint subtrees map to disjoint subtrees.

    Per node pair the recursion takes the best of relabel-and-match-children
    (a min-cost matching over child subtrees), deleting the first tree's
    root (one child subtree carries on, the siblings are deleted), and the
    symmetric root insertion.
    """
    squared = mode == "l2"
    pair, null = dp_terms(metric, squared)
    sub1 = _subtree_null(t1, null)
    sub2 = _subtree_null(t2, null)
    kids1, kids2 = t1.children, t2.children
    memo: dict[tuple[int, int], float] = {}

    def dist(i, j):
        key = (i, j)
        if key in memo:
            return memo[key]
        ca, cb = kids1[i], kids2[j]
        P = [[dist(c, d) for d in cb] for c in ca]
        side, _ = min_cost_matching(P, [sub1[c] for c in ca], [sub2[d] for d in cb])
        best = pair(t1.labels[i], t2.labels[j]) + side
        if ca:
            del_rest = sum(sub1[c] for c in ca)
            best = min(
                best,
                null(t1.labels[i])
                + min(dist(c, j) + del_rest - sub1[c] for c in ca),
            )
        if cb:
            ins_rest = sum(sub2[d] for d in cb)
            best = min(
                best,
                null(t2.labels[j])
                + min(dist(i, d) + ins_rest - sub2[d] for d in cb),
            )
        memo[key] = best
        return best

    return finalize(dist(t1.root, t2.root), mode)
