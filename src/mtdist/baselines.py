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
from itertools import groupby

import numpy as np

from .branches import build_bdt, elder_rule_decomposition
from .errors import PreconditionError, _choice
from .mapping import _check_table
from .matching import SMALL, matching_costs, small_matching_costs
from .metrics import MODE_NAMES, BaseMetric, dp_terms, finalize
from .trees import MergeTree, _children, _layout_order, _memoized, _preorder, require_valid


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
        return _children(self.parent)

    def __len__(self):
        return len(self.parent)


def elder_labeled_inputs(tree: MergeTree, target: str) -> LabeledTree:
    """Labeled input for the baselines, derived from the elder decomposition.

    ``target='bdt'`` labels the decomposition's BDT nodes with their branch;
    ``target='merge-tree'`` keeps the merge tree's shape and labels every
    node with its containing branch. Built once per tree and target while a
    driver's layout memo is open.
    """
    require_valid(tree)
    _choice("target", target, ("bdt", "merge-tree"))
    dec = elder_rule_decomposition(tree)
    return _memoized(tree, ("labeled", target), lambda: _labeled(tree, dec, target))


def _labeled(tree: MergeTree, dec, target: str) -> LabeledTree:
    if target == "bdt":
        bdt = build_bdt(dec)
        return LabeledTree(
            parent=bdt.parent,
            labels=tuple(b.label for b in bdt.branches),
            root=bdt.root,
        )
    return LabeledTree(
        parent=tuple(int(p) for p in tree.parent),
        labels=tuple(dec.branch_through(v).label for v in range(len(tree))),
        root=tree.root,
    )


class _Levels:
    """One tree's nodes laid out for :func:`_fill`.

    The nodes reachable from the root are numbered in (height, child count,
    id) order. ``levels[h]`` is ``(lo, mid, hi, small, top)``: height h
    takes the positions ``lo:hi``, of which ``lo:mid`` have at most
    ``SMALL`` children and ``mid:hi`` more; ``small`` and ``top`` are the
    largest child counts of the two ranges, and ``runs[h]`` lists the runs
    ``(start, stop, count)`` of one child count above the leaves. Per
    position: ``deg`` the child count; ``kids`` the children's positions,
    padded with ``n``; ``sub`` the cost of deleting the subtree (0 at the
    padding ``n``); ``rest`` that of deleting the children's subtrees;
    ``null`` that of deleting the node alone, by the :func:`dp_terms`
    ``deletion`` the layout is built with; and ``label[:, k]`` its label.
    As tree 2 of a pair, :func:`_fill` reads a :meth:`_group` per child
    count (``groups``; ``wide`` those above ``SMALL``) and one of all inner
    nodes with at most ``SMALL`` children (``small``), and per height above
    the leaves the insert terms (``inserts``). A driver's layout memo shares
    one layout between pairs, so its sequences are tuples and its arrays
    read-only.
    """

    __slots__ = (
        "n", "root", "levels", "runs", "deg", "kids", "sub", "rest", "null", "label", "groups", "wide",
        "small", "inserts",
    )

    def __init__(self, t: LabeledTree, null):
        kids = t.children
        post = _preorder(t.root, kids)[::-1]
        labels = np.array(t.labels, dtype=np.float64).T  # one label of two arrays
        nulls = null(labels).tolist()
        rest, sub = [0.0] * len(kids), [0.0] * len(kids)
        for v in post:
            if kids[v]:
                rest[v] = sum([sub[c] for c in kids[v]])
            sub[v] = nulls[v] + rest[v]
        height, order = _layout_order(post, kids)
        self.n = n = len(order)
        self.deg = deg = tuple(len(kids[v]) for v in order)
        runs = [[] for _ in range(height[t.root] + 1)]
        for (h, c), ks in groupby(range(n), key=lambda k: (height[order[k]], deg[k])):
            ks = list(ks)
            runs[h].append((ks[0], ks[-1] + 1, c))
        levels = []
        for rs in runs:
            lo, hi = rs[0][0], rs[-1][1]
            mid = next((i0 for i0, _, c in rs if c > SMALL), hi)
            levels.append((lo, mid, hi, deg[mid - 1] if mid > lo else 0, rs[-1][2]))
        self.levels = tuple(levels)
        self.runs = ((),) + tuple(map(tuple, runs[1:]))  # the leaves match nothing
        pos = [0] * len(kids)
        for k, v in enumerate(order):
            pos[v] = k
        self.root = pos[t.root]
        width = max(deg)
        self.kids = np.array(
            [[pos[c] for c in kids[v]] + [n] * (width - len(kids[v])) for v in order], dtype=np.intp
        ).reshape(n, width)
        self.sub = np.array([sub[v] for v in order] + [0.0])
        self.rest = np.array([rest[v] for v in order])
        self.null = np.array([nulls[v] for v in order])
        self.label = labels[:, order]
        for a in (self.kids, self.sub, self.rest, self.null, self.label):
            a.setflags(write=False)
        inner = range(levels[0][2], n)
        counts = sorted({deg[j] for j in inner})
        self.groups = tuple(self._group([j for j in inner if deg[j] == d]) for d in counts)
        self.wide = tuple(g for g in self.groups if g[0] > SMALL)
        self.small = self._group([j for j in inner if deg[j] <= SMALL])
        inserts = []
        for c0, _, c1, _, _ in levels[1:]:
            _, _, k2, sub2 = self._group(range(c0, c1))
            inserts.append((c0, c1, k2, sub2, self.rest[c0:c1, None], self.null[c0:c1]))
        self.inserts = tuple(inserts)

    def _group(self, js):
        """``(d, js, kids, sub)``: positions js, their children's positions
        padded to d, the most any of them has, and those children's ``sub``."""
        d = max([self.deg[j] for j in js], default=0)
        js = np.array(js, dtype=np.intp)
        kids = self.kids.take(js, axis=0)[:, :d]
        sub = self.sub.take(kids)
        for a in (js, kids, sub):
            a.setflags(write=False)
        return d, js, kids, sub


def _fill(t1: LabeledTree, t2: LabeledTree, metric: BaseMetric, mode: str, edits: bool) -> float:
    """The edit-distance table of every node pair, read at the root pair.

    ``dist[i, j]`` is, in its first option, the label cost of the pair plus
    the cheapest matching of the child subtrees, unmatched ones deleted or
    inserted whole. With ``edits`` two more options follow: deleting i (one
    child subtree carries on, the siblings are deleted) and, symmetrically,
    inserting j. A pair needs only pairs of lower tree-1 height, and pairs
    of the same row whose tree-2 node is lower. So the table is filled one
    tree-1 height at a time: the first two options for all of tree 2 at
    once, then the insert option one tree-2 height at a time, in increasing
    order.

    The matchings of one height go in one :func:`small_matching_costs`
    batch for all pairs with at most ``SMALL`` children on both sides,
    padded to the widest: a padding child comes last, costs nothing to
    leave unmatched and +inf to match, so every cost stays bit for bit that
    of the unpadded instance. The other pairs of the height go in one
    :func:`matching_costs` call per pair of child counts.
    """
    _choice("aggregation mode", mode, MODE_NAMES)
    squared = mode == "l2"
    # refused before any layout: a tracemalloc peak of 29.0-46.2 bytes per
    # node pair on grown trees of 800-1600 nodes and their BDTs
    _check_table("baseline table", len(t1) + 1, len(t2) + 1, 48)
    pair, null = dp_terms(metric, squared)
    key = ("levels", metric.kind, squared)
    a = _memoized(t1, key, lambda: _Levels(t1, null))
    b = _memoized(t2, key, lambda: _Levels(t2, null))
    L = pair(a.label[:, :, None], b.label)
    n2 = b.n
    dist = np.full((a.n + 1, n2 + 1), np.inf)  # the last row and column pad missing children
    flat = dist.reshape(-1)
    # all tree-2 groups if a tree-1 node has more than SMALL children
    groups = b.groups if a.kids.shape[1] > SMALL else b.wide
    _, small, k2, inss = b.small
    k2x, Ls = k2[None, :, None, :], L.take(small, axis=1)
    for h, (lo, mid, hi, cs, top) in enumerate(a.levels):
        best = L[lo:hi] + (b.rest if h == 0 else a.rest[lo:hi, None])
        if h and cs and len(small):
            k1 = a.kids[lo:mid, :cs]
            P = flat.take((k1 * (n2 + 1))[:, None, :, None] + k2x)
            best[:mid - lo, small] = Ls[lo:mid] + small_matching_costs(P, a.sub.take(k1)[:, None], inss)
        for i0, i1, c in (r for r in a.runs[h] if b.wide or r[2] > SMALL):
            k1 = a.kids[i0:i1, :c]
            for _, js, k2, sub2 in b.wide if c <= SMALL else groups:
                P = flat.take((k1 * (n2 + 1))[:, None, :, None] + k2[None, :, None, :])
                best[i0 - lo:i1 - lo, js] = L[i0:i1, js] + matching_costs(P, a.sub.take(k1)[:, None], sub2)
        if edits and h:
            k1 = a.kids[lo:hi, :top]
            X = dist.take(k1, axis=0)[:, :, :n2] + a.rest[lo:hi, None, None] - a.sub.take(k1)[:, :, None]
            np.minimum(best, a.null[lo:hi, None] + np.minimum.reduce(X, axis=1), out=best)
        dist[lo:hi, :n2] = best
        for c0, c1, k2, sub, rest, nul in b.inserts if edits else ():
            Y = dist[lo:hi].take(k2, axis=1) + rest - sub
            np.minimum(best[:, c0:c1], nul + np.minimum.reduce(Y, axis=2), out=dist[lo:hi, c0:c1])
    return finalize(dist[a.root, b.root], mode)


def one_degree_distance(
    t1: LabeledTree, t2: LabeledTree, metric: BaseMetric, mode: str = "sum"
) -> float:
    """Unordered one-degree edit distance: roots are matched, and each child
    subtree is either matched to a child subtree of the partner node or
    deleted/inserted as a whole.

    A node pair's value needs only its children's pairs, so the table of
    :func:`_fill` without the delete and insert options holds it at the
    root pair.
    """
    return _fill(t1, t2, metric, mode, edits=False)


def constrained_edit_distance(
    t1: LabeledTree, t2: LabeledTree, metric: BaseMetric, mode: str = "sum"
) -> float:
    """Constrained edit distance: disjoint subtrees map to disjoint subtrees.

    Per node pair the recurrence takes the best of relabel-and-match-children
    (a min-cost matching over child subtrees), deleting the first tree's
    root (one child subtree carries on, the siblings are deleted), and the
    symmetric root insertion; :func:`_fill` evaluates it over every node
    pair.
    """
    return _fill(t1, t2, metric, mode, edits=True)
