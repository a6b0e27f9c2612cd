"""Benchmark-owned input generators.

Every generator is a deterministic function of a numpy ``Generator`` seeded
from the workload seed. Inputs are written to disk before any timing starts;
the measured program only ever sees the files.
"""

from __future__ import annotations

import numpy as np

from mtdist.fields import ScalarField2D
from mtdist.trees import MergeTree

CANDIDATES = 9  # grown trees per typical_tree draw


def grow_merge_tree(rng, n_nodes, extra_child_prob):
    """A random valid merge tree with approximately ``n_nodes`` nodes.

    Grows by turning a random leaf into a saddle with two leaf children and,
    with probability ``extra_child_prob``, attaching one more child to an
    existing saddle instead. ``extra_child_prob`` is the saddle-degree knob:
    0 gives binary trees, larger values give more saddles of degree >= 3.
    """
    values = [0.0, 1.0]
    parent = [-1, 0]
    children = {0: [1], 1: []}
    leaves = [1]
    while len(values) < n_nodes - 1:
        if rng.random() < extra_child_prob:
            saddles = [v for v, cs in children.items() if len(cs) >= 2]
            if saddles:
                s = int(rng.choice(saddles))
                vid = len(values)
                values.append(values[s] + float(rng.uniform(0.1, 5.0)))
                parent.append(s)
                children[s].append(vid)
                children[vid] = []
                leaves.append(vid)
                continue
        leaf = leaves.pop(int(rng.integers(0, len(leaves))))
        for _ in range(2):
            vid = len(values)
            values.append(values[leaf] + float(rng.uniform(0.1, 5.0)))
            parent.append(leaf)
            children[leaf].append(vid)
            children[vid] = []
            leaves.append(vid)
    return MergeTree(values, parent)


def ancestor_count(tree: MergeTree) -> int:
    """Sum over all nodes of their number of strict ancestors.

    The free DP materializes one state per (ancestor of v, ancestor of w)
    for every node pair, so a pair's state count is roughly the product of
    the two trees' ancestor counts.
    """
    depth = np.zeros(len(tree), dtype=np.int64)
    for v in tree.subtree_nodes(tree.root):
        p = int(tree.parent[v])
        if p >= 0:
            depth[v] = depth[p] + 1
    return int(depth.sum())


def typical_tree(rng, n_nodes, extra_child_prob):
    """The grown tree with the median ancestor count among ``CANDIDATES`` draws.

    A pair's cost follows its state count, which varies a lot between single
    draws of the grower; the median draw has a typical cost for its size.
    """
    trees = [grow_merge_tree(rng, n_nodes, extra_child_prob) for _ in range(CANDIDATES)]
    trees.sort(key=ancestor_count)
    return trees[CANDIDATES // 2]


def revalue(tree, rng):
    """The same shape with fresh values under the grower's rule.

    Every node exceeds its parent by a draw from uniform(0.1, 5.0).
    """
    values = np.zeros(len(tree))
    for v in tree.subtree_nodes(tree.root):
        p = int(tree.parent[v])
        if p >= 0:
            values[v] = values[p] + float(rng.uniform(0.1, 5.0))
    return MergeTree(values, tree.parent)


def add_noise(fields, noise, rng):
    """Fields with i.i.d. Gaussian noise of standard deviation ``noise`` added."""
    return [
        ScalarField2D(
            rows=f.rows,
            cols=f.cols,
            values=f.values + noise * rng.standard_normal(f.values.shape),
            connectivity=f.connectivity,
        )
        for f in fields
    ]
