"""Branches, branch decompositions, and branch decomposition trees (BDTs).

A branch is a monotone root-to-leaf-directed path that ends in a leaf; it is
stored as its two endpoints (start node, leaf node) since the connecting path
is unique in a tree. A branch decomposition partitions the tree's edges into
branches; it is represented compactly by a *continuation* map that picks, at
every non-leaf node, the child through which the incoming branch continues.
Every other child starts a new branch there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SizeLimitError
from .trees import MergeTree, _children, _memoized, require_valid


@dataclass(frozen=True, order=True, slots=True)
class Branch:
    """A root-to-leaf-directed path identified by its endpoints.

    ``low``/``high`` are the scalar values at the start node and the leaf;
    ``high - low`` is the branch persistence.
    """

    start: int
    leaf: int
    low: float
    high: float

    @property
    def persistence(self):
        return self.high - self.low

    @property
    def label(self):
        return (self.low, self.high)

    def vertex_sequence(self, tree: MergeTree):
        """Materialize the path start..leaf (root-to-leaf direction)."""
        seq = [self.leaf]
        v = self.leaf
        while v != self.start:
            v = int(tree.parent[v])
            if v == -1:
                raise PreconditionError(
                    f"node {self.start} is not an ancestor of leaf {self.leaf}"
                )
            seq.append(v)
        seq.reverse()
        return seq

    def edges(self, tree: MergeTree):
        seq = self.vertex_sequence(tree)
        return [(seq[i + 1], seq[i]) for i in range(len(seq) - 1)]


class BranchDecomposition:
    """A set of branches whose edge sets partition the tree's edges.

    Built in two sweeps of the tree's preorder: parents first, each node
    gets the start of the branch through it; children first, the leaf that
    branch runs to. Every leaf ends exactly one branch.
    """

    __slots__ = ("tree", "continuation", "branches", "main", "_by_leaf", "_tips")

    def __init__(self, tree: MergeTree, continuation: dict[int, int]):
        self.tree = tree
        self.continuation = cont = dict(continuation)
        children = tree.children
        # starts[v]: the start of the branch through v; the root starts the main branch
        starts = list(range(len(tree)))
        ints = (int, np.integer)
        for v in tree.preorder:
            cs = children[v]
            if cs:
                k = cont.get(v)
                if k not in cs or not isinstance(k, ints):
                    raise PreconditionError(
                        f"continuation at node {v} is {k!r}, expected one of its children {cs}"
                    )
                for c in cs:
                    starts[c] = v
                starts[k] = starts[v]
        # tips[v]: the leaf that the branch through v runs to
        tips = list(range(len(tree)))
        for v in reversed(tree.preorder):
            if children[v]:
                tips[v] = tips[cont[v]]
        values = tree.values.tolist()
        self._by_leaf = by_leaf = {
            leaf: Branch(starts[leaf], leaf, values[starts[leaf]], values[leaf])
            for leaf in tree.leaves
        }
        self.branches = tuple(sorted(by_leaf.values()))
        self._tips = tips
        self.main = by_leaf[tips[tree.root]]

    def __len__(self):
        return len(self.branches)

    def __iter__(self):
        return iter(self.branches)

    def __eq__(self, other):
        if not isinstance(other, BranchDecomposition):
            return NotImplemented
        return self.tree == other.tree and self.branches == other.branches

    def __hash__(self):
        return hash((self.tree, self.branches))

    def __repr__(self):
        labels = ", ".join(f"({b.low:g},{b.high:g})" for b in self.branches)
        return f"BranchDecomposition[{labels}]"

    def branch_of_leaf(self, leaf: int) -> Branch:
        return self._by_leaf[leaf]

    def branch_through(self, v: int) -> Branch:
        """The branch whose path contains ``v`` as a non-start vertex.

        For the root this is the main branch (the root is only ever a start
        vertex, but it belongs to the main branch's path).
        """
        return self._by_leaf[self._tips[v]]

    def parent_branch(self, b: Branch) -> Branch | None:
        if b == self.main:
            return None
        return self.branch_through(b.start)


def elder_rule_decomposition(tree: MergeTree) -> BranchDecomposition:
    """The canonical decomposition preferring the most persistent branches.

    At every non-leaf node the incoming branch continues toward the child
    whose subtree contains the highest-valued leaf; value ties are broken by
    the smallest child node-id. Built once per tree while a driver's layout
    memo is open, so every call of that driver gets the same object.
    """
    require_valid(tree)
    return _elder_of(tree)


def _elder_of(tree: MergeTree) -> BranchDecomposition:
    """:func:`elder_rule_decomposition` of a valid tree, without its check."""
    return _memoized(tree, "elder", lambda: _elder(tree))


def _elder(tree: MergeTree) -> BranchDecomposition:
    submax = _submax(tree)
    return BranchDecomposition(tree, {v: _elder_child(cs, submax) for v, cs in enumerate(tree.children) if cs})


def _submax(tree: MergeTree) -> list[float]:
    """``out[v]``: the highest value of a leaf under ``v`` (its own at a leaf)."""
    submax = tree.values.tolist()
    for v in reversed(tree.preorder):
        if tree.children[v]:
            submax[v] = max(submax[c] for c in tree.children[v])
    return submax


def _elder_child(children, submax) -> int:
    """The elder rule's choice among ``children``: the one whose subtree
    reaches highest by ``submax``, the smallest id on ties."""
    return min(children, key=lambda c: (-submax[c], c))


def count_branch_decompositions(tree: MergeTree) -> int:
    return math.prod(len(cs) for cs in tree.children if cs)


def enumerate_branch_decompositions(tree: MergeTree, max_leaves: int = 10):
    """Every branch decomposition of ``tree``, the last inner node's choice
    varying fastest. Exponential; small trees only."""
    require_valid(tree)
    n_leaves = len(tree.leaves)
    if n_leaves > max_leaves:
        raise SizeLimitError(
            f"tree has {n_leaves} leaves, enumeration capped at {max_leaves}"
        )
    inner = [v for v, cs in enumerate(tree.children) if cs]
    return [
        BranchDecomposition(tree, dict(zip(inner, choice)))
        for choice in itertools.product(*(tree.children[v] for v in inner))
    ]


@dataclass(frozen=True)
class BranchDecompTree:
    """Tree over the branches of a decomposition under the parent relation."""

    branches: tuple[Branch, ...]
    parent: tuple[int, ...]  # index into branches, -1 for the main branch
    root: int

    @property
    def children(self):
        return _children(self.parent)

    def __len__(self):
        return len(self.branches)


def build_bdt(decomposition: BranchDecomposition) -> BranchDecompTree:
    branches = decomposition.branches
    index = {b: i for i, b in enumerate(branches)}
    parent = []
    root = None
    for i, b in enumerate(branches):
        pb = decomposition.parent_branch(b)
        if pb is None:
            parent.append(-1)
            root = i
        else:
            parent.append(index[pb])
    return BranchDecompTree(branches=branches, parent=tuple(parent), root=root)
