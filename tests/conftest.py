import numpy as np
import pytest

from mtdist import MergeTree


def nested_tree(spec):
    """Build a tree from nested (value, [children...]) tuples, ids in preorder."""
    values = []
    parent = []

    def add(node, par):
        val, kids = node
        vid = len(values)
        values.append(float(val))
        parent.append(par)
        for k in kids:
            add(k, vid)

    add(spec, -1)
    return MergeTree(values, parent)


@pytest.fixture
def fig5a():
    # root 0 - saddle 3 - leaves 10 and 6
    return MergeTree([0.0, 3.0, 10.0, 6.0], [-1, 0, 1, 1])


@pytest.fixture
def fig5b():
    return MergeTree([0.0, 5.0, 10.0, 8.0], [-1, 0, 1, 1])


@pytest.fixture
def fig5c():
    return MergeTree([0.0, 6.0, 11.0, 8.0], [-1, 0, 1, 1])


@pytest.fixture
def two_peak_asymmetric():
    # root 0 - saddle 3 - { leaf 12, saddle 9 - { leaf 12, leaf 11 } }
    return MergeTree([0.0, 3.0, 12.0, 9.0, 12.0, 11.0], [-1, 0, 1, 1, 3, 3])


@pytest.fixture
def two_peak_flat():
    # root 0 - saddle 3 - { leaf 12, leaf 12 }
    return MergeTree([0.0, 3.0, 12.0, 12.0], [-1, 0, 1, 1])


def random_merge_tree(rng, max_leaves=7, max_children=3, integer=False):
    """A random valid merge tree with 1..max_leaves leaves.

    Topology is drawn by recursively splitting the leaf budget; values grow
    strictly away from the root.
    """
    n_leaves = int(rng.integers(1, max_leaves + 1))

    values = []
    parent = []

    def increment():
        if integer:
            return float(rng.integers(1, 10))
        return float(rng.uniform(0.1, 10.0))

    def build(budget, par, base):
        vid = len(values)
        val = base + increment()
        values.append(val)
        parent.append(par)
        if budget == 1:
            return
        k = int(rng.integers(2, min(max_children, budget) + 1))
        cuts = sorted(rng.choice(np.arange(1, budget), size=k - 1, replace=False).tolist())
        sizes = np.diff([0] + cuts + [budget])
        for size in sizes:
            build(int(size), vid, val)

    root_val = float(rng.integers(0, 5)) if integer else float(rng.uniform(0.0, 5.0))
    values.append(root_val)
    parent.append(-1)
    build(n_leaves, 0, root_val)
    return MergeTree(values, parent)


def grow_merge_tree(rng, n_nodes, extra_child_prob=0.1):
    """A random valid merge tree with approximately n_nodes nodes.

    Grows by turning random leaves into saddles with two leaf children and
    occasionally attaching an extra child to an existing saddle, which keeps
    the degree bounded and the depth logarithmic-ish.
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
        i = int(rng.integers(0, len(leaves)))
        leaf = leaves.pop(i)
        for _ in range(2):
            vid = len(values)
            values.append(values[leaf] + float(rng.uniform(0.1, 5.0)))
            parent.append(leaf)
            children[leaf].append(vid)
            children[vid] = []
            leaves.append(vid)
    return MergeTree(values, parent)


def caterpillar():
    """Root, a spine of 1500 saddles with one leaf each, two leaves at the
    bottom: 3002 nodes, depth 1501, deeper than the recursion limit."""
    values, parent = [0.0], [-1]
    spine = 0
    for k in range(1500):
        values += [1.0 + k, 5000.0 + k]
        parent += [spine, len(values) - 2]
        spine = len(values) - 2
    values.append(9000.0)
    parent.append(spine)
    return MergeTree(values, parent)
