"""Decomposition-dependent comparison distances on elder-rule inputs.

Two classic tree edit distances serve as baselines against the branch
mapping distance:

* the constrained edit distance on merge trees whose nodes carry the label
  of their containing elder-rule branch, and
* the one-degree edit distance on unordered elder-rule BDTs, where deleting
  a node deletes its entire subtree.

Both compare labels with the branch cost functions from :mod:`mtdist.metrics`
and support the sum and root-of-squared-sum aggregation modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .branches import build_bdt, elder_rule_decomposition
from .errors import PreconditionError
from .matching import min_cost_matching
from .metrics import BaseMetric, finalize
from .trees import MergeTree, require_valid


@dataclass(frozen=True)
class LabeledTree:
    """Rooted unordered tree with a (low, high) branch label per node."""

    parent: tuple[int, ...]
    labels: tuple[tuple[float, float], ...]
    root: int

    def __post_init__(self):
        for low, high in self.labels:
            if not high > low:
                raise PreconditionError(f"label ({low},{high}) violates high > low")

    @property
    def children(self):
        kids = [[] for _ in self.parent]
        for v, p in enumerate(self.parent):
            if p >= 0:
                kids[p].append(v)
        return tuple(tuple(k) for k in kids)

    def __len__(self):
        return len(self.parent)


def elder_labeled_inputs(tree: MergeTree, target: str) -> LabeledTree:
    """Labeled input for the baselines, derived from the elder decomposition.

    ``target='bdt'`` labels the decomposition's BDT nodes with their branch;
    ``target='merge-tree'`` keeps the merge tree's shape and labels every
    node with its containing branch.
    """
    require_valid(tree)
    dec = elder_rule_decomposition(tree)
    if target == "bdt":
        bdt = build_bdt(dec)
        return LabeledTree(
            parent=bdt.parent,
            labels=tuple(b.label for b in bdt.branches),
            root=bdt.root,
        )
    if target == "merge-tree":
        labels = tuple(dec.branch_through(v).label for v in range(len(tree)))
        return LabeledTree(
            parent=tuple(int(p) for p in tree.parent),
            labels=labels,
            root=tree.root,
        )
    raise ValueError(f"unknown target {target!r}, expected 'bdt' or 'merge-tree'")


def _costs(metric: BaseMetric, squared: bool):
    def pair(la, lb):
        c = metric.pair(la[0], la[1], lb[0], lb[1])
        return c * c if squared else c

    def null(la):
        c = metric.deletion(la[0], la[1])
        return c * c if squared else c

    return pair, null


def _postorder(root, kids):
    """Nodes reachable from ``root``, every child before its parent."""
    order = [root]
    for v in order:
        order.extend(kids[v])
    order.reverse()
    return order


def _subtree_null(t: LabeledTree, null):
    kids = t.children
    out = [0.0] * len(t)
    for v in _postorder(t.root, kids):
        out[v] = null(t.labels[v]) + sum(out[c] for c in kids[v])
    return out


def one_degree_distance(
    t1: LabeledTree, t2: LabeledTree, metric: BaseMetric, mode: str = "sum"
) -> float:
    """Unordered one-degree edit distance: roots are matched, and each child
    subtree is either matched to a child subtree of the partner node or
    deleted/inserted as a whole.

    The recurrence needs the root pair and, recursively, every pair of
    children of a needed pair; no other pair. These are listed from the root
    pair outward and evaluated in reverse, so every child pair is done
    before its parent pair.
    """
    squared = mode == "l2"
    pair, null = _costs(metric, squared)
    sub1 = _subtree_null(t1, null)
    sub2 = _subtree_null(t2, null)
    kids1, kids2 = t1.children, t2.children
    reached = [(t1.root, t2.root)]
    for i, j in reached:
        reached.extend(product(kids1[i], kids2[j]))
    dist: dict[tuple[int, int], float] = {}
    for key in reversed(reached):
        i, j = key
        ca, cb = kids1[i], kids2[j]
        P = [[dist[c, d] for d in cb] for c in ca]
        side, _ = min_cost_matching(P, [sub1[c] for c in ca], [sub2[d] for d in cb])
        dist[key] = pair(t1.labels[i], t2.labels[j]) + side

    return finalize(dist[t1.root, t2.root], mode)


def constrained_edit_distance(
    t1: LabeledTree, t2: LabeledTree, metric: BaseMetric, mode: str = "sum"
) -> float:
    """Constrained edit distance: disjoint subtrees map to disjoint subtrees.

    Per node pair the recurrence takes the best of relabel-and-match-children
    (a min-cost matching over child subtrees), deleting the first tree's
    root (one child subtree carries on, the siblings are deleted), and the
    symmetric root insertion. Every node pair is needed; the table is filled
    bottom-up over both post-orders, so each pair's children pairs, and the
    pairs of each node with the other node's children, are done first.
    """
    squared = mode == "l2"
    pair, null = _costs(metric, squared)
    sub1 = _subtree_null(t1, null)
    sub2 = _subtree_null(t2, null)
    kids1, kids2 = t1.children, t2.children
    post2 = _postorder(t2.root, kids2)
    dist = [[0.0] * len(t2) for _ in range(len(t1))]
    for i in _postorder(t1.root, kids1):
        ca = kids1[i]
        row = dist[i]
        for j in post2:
            cb = kids2[j]
            P = [[dist[c][d] for d in cb] for c in ca]
            side, _ = min_cost_matching(P, [sub1[c] for c in ca], [sub2[d] for d in cb])
            best = pair(t1.labels[i], t2.labels[j]) + side
            if ca:
                del_rest = sum(sub1[c] for c in ca)
                best = min(
                    best,
                    null(t1.labels[i])
                    + min(dist[c][j] + del_rest - sub1[c] for c in ca),
                )
            if cb:
                ins_rest = sum(sub2[d] for d in cb)
                best = min(
                    best,
                    null(t2.labels[j])
                    + min(row[d] + ins_rest - sub2[d] for d in cb),
                )
            row[j] = best

    return finalize(dist[t1.root][t2.root], mode)
