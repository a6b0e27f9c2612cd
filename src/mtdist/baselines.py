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

from .branches import _elder_of, build_bdt, elder_rule_decomposition
from .errors import PreconditionError, _choice
from .mapping import _block_entry, _check_table
from .matching import matching_costs
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


def _label(tree: MergeTree, target: str) -> LabeledTree:
    """:func:`elder_labeled_inputs` of a known target, without its target
    check (an invalid tree still raises, from :func:`branches._elder_of`):
    how a driver reaches the memoized input of a tree without a call of the
    public functions."""
    return _memoized(tree, ("labeled", target), lambda: _labeled(tree, _elder_of(tree), target))


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
    """One tree's nodes, or a forest's, laid out for :func:`_fill`.

    The nodes reachable from the root are numbered in (height, child count,
    id) order. Per position: ``deg`` the child count and ``height`` the
    height; ``kids`` the children's positions, padded with ``n``; ``sub``
    the cost of deleting the subtree (0 at the padding ``n``); ``rest`` that
    of deleting the children's subtrees; ``null`` that of deleting the node
    alone, by the :func:`dp_terms` ``deletion`` the layout is built with;
    and ``label[:, k]`` its label. :meth:`_index` derives the rest from
    these: ``levels[h]`` is ``(lo, hi, top)``, where height h takes the
    positions ``lo:hi`` and ``top`` is their largest child count;
    ``runs[h]`` lists the runs ``(start, stop, count)`` of one child count
    above the leaves. As tree 2 of a pair, :func:`_fill` reads a
    :meth:`_group` per child count of its inner nodes (``groups``) and, per
    height above the leaves, the insert terms (``inserts``). :func:`_join`
    lays several trees' layouts out as one, whose ``root`` is the tuple of
    the members' roots. A driver's layout memo shares one layout between
    pairs, so its sequences are tuples and its arrays read-only.
    """

    __slots__ = (
        "n", "root", "levels", "runs", "deg", "height", "kids", "sub", "rest", "null", "label", "groups", "inserts",
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
        self.height = tuple(height[v] for v in order)
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
        self._index()

    def _index(self):
        """Freeze the per-position arrays and derive the per-height ranges
        and the tree-2 groups from them."""
        n, deg, height = self.n, self.deg, self.height
        for a in (self.kids, self.sub, self.rest, self.null, self.label):
            a.setflags(write=False)
        runs = [[] for _ in range(height[-1] + 1)]  # the last position is the highest
        for (h, c), ks in groupby(range(n), key=lambda k: (height[k], deg[k])):
            ks = list(ks)
            runs[h].append((ks[0], ks[-1] + 1, c))
        self.levels = levels = tuple((rs[0][0], rs[-1][1], rs[-1][2]) for rs in runs)
        self.runs = ((),) + tuple(map(tuple, runs[1:]))  # the leaves match nothing
        inner = range(levels[0][1], n)
        counts = sorted({deg[j] for j in inner})
        self.groups = tuple(self._group([j for j in inner if deg[j] == d]) for d in counts)
        inserts = []
        for c0, c1, _ in levels[1:]:
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


def _join(levels):
    """The layouts ``levels`` of several trees as one layout for
    :func:`_fill`, either tree of a table, a forest whose ``root`` is the
    tuple of the members' roots.

    The forest's positions are ordered by (height, child count, member,
    position in the member's layout), so each height stays contiguous. A
    member's children are remapped onto the joined positions, its padding
    onto the forest's padding ``n``: each member's rows or columns of a
    table read only its own and the padding, so a pair of members' entries
    are those of its own table, bit for bit. The forest is built from the
    members' layouts, as an object of their class, without building a
    layout of its own.
    """
    forest = object.__new__(type(levels[0]))
    base = np.cumsum([0] + [f.n for f in levels])
    n = int(base[-1])
    height = np.concatenate([f.height for f in levels])
    deg = np.concatenate([f.deg for f in levels])
    order = np.lexsort((deg, height))  # stable: member and position break ties
    where = np.empty(n, dtype=np.intp)  # a member position's joined position
    where[order] = np.arange(n)
    kids = np.full((n, max(f.kids.shape[1] for f in levels)), n, dtype=np.intp)
    for f, b in zip(levels, base.tolist()):
        kids[b:b + f.n, :f.kids.shape[1]] = np.r_[where[b:b + f.n], n].take(f.kids)
    forest.n = n
    forest.root = tuple(where[base[:-1] + [f.root for f in levels]].tolist())
    forest.deg, forest.height = tuple(deg[order].tolist()), tuple(height[order].tolist())
    forest.kids = kids.take(order, axis=0)
    forest.sub = np.r_[np.concatenate([f.sub[:f.n] for f in levels])[order], 0.0]
    forest.rest = np.concatenate([f.rest for f in levels])[order]
    forest.null = np.concatenate([f.null for f in levels])[order]
    forest.label = np.concatenate([f.label for f in levels], axis=1)[:, order]
    forest._index()
    return forest


# The bytes per node pair a _fill call takes, for _check_table: a tracemalloc
# peak of 29.0-46.2 bytes per node pair on grown trees of 800-1600 nodes and
# their BDTs
_ENTRY_BYTES = 48


def _fill(t1: LabeledTree, t2: LabeledTree, metric: BaseMetric, mode: str, edits: bool) -> float:
    """The edit distance of ``t1`` and ``t2`` from the table of every node
    pair of :func:`_table`, read at the root pair.

    While the calling thread's open block (:func:`mapping._forest`) has
    ``t1`` as a row and ``t2`` as a partner, the entry is read, through
    :func:`mapping._block_entry`, from the one table of the block's joined
    rows against their joined partners (:func:`_join`), made by the block's
    first call and equal at the two members' roots to the pair's own table,
    bit for bit; otherwise the pair fills its own table.
    """
    _choice("aggregation mode", mode, MODE_NAMES)
    squared = mode == "l2"
    # refused before any layout or forest is read
    _check_table("baseline table", len(t1) + 1, len(t2) + 1, _ENTRY_BYTES)
    pair, null = dp_terms(metric, squared)
    key = ("levels", metric.kind, squared)

    def layout(t):
        return _memoized(t, key, lambda: _Levels(t, null))

    def fill(rows, partners):
        a, b = _join(rows), _join(partners)
        return a, b, _table(a, b, pair, edits)

    hit = _block_entry(t1, t2, (key, edits), layout, fill)
    if hit is None:
        a, b = layout(t1), layout(t2)
        return finalize(_table(a, b, pair, edits)[a.root, b.root], mode)
    (a, b, dist), i, j = hit
    return finalize(dist[a.root[i], b.root[j]], mode)


def _table(a: _Levels, b: _Levels, pair, edits: bool):
    """The edit-distance table of every node pair of the layouts a and b.

    ``dist[i, j]`` is, in its first option, the label cost of the pair plus
    the cheapest matching of the child subtrees, unmatched ones deleted or
    inserted whole. With ``edits`` two more options follow: deleting i (one
    child subtree carries on, the siblings are deleted) and, symmetrically,
    inserting j. A pair needs only pairs of lower tree-1 height, and pairs
    of the same row whose tree-2 node is lower. So the table is filled one
    tree-1 height at a time: the first two options for all of tree 2 at
    once, then the insert option one tree-2 height at a time, in increasing
    order.

    The matchings of one height go in one :func:`matching_costs` call per
    pair of child counts: each tree-1 run of one child count against each
    tree-2 group of one.
    """
    L = pair(a.label[:, :, None], b.label)
    n2 = b.n
    dist = np.full((a.n + 1, n2 + 1), np.inf)  # the last row and column pad missing children
    flat = dist.reshape(-1)
    for h, (lo, hi, top) in enumerate(a.levels):
        best = L[lo:hi] + (b.rest if h == 0 else a.rest[lo:hi, None])
        for i0, i1, c in a.runs[h]:
            k1 = a.kids[i0:i1, :c]
            for _, js, k2, sub2 in b.groups:
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
    return dist


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
