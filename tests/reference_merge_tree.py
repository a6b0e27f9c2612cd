"""The per-vertex union-find sweep that ``compute_merge_tree`` replaced.

Kept verbatim as the reference of the equality property test in
``test_fields.py``.
"""

import numpy as np

from mtdist.fields import _EPS, ScalarField2D
from mtdist.trees import MergeTree, require_valid


def reference_compute_merge_tree(f: ScalarField2D, direction: str = "max") -> MergeTree:
    """Union-find sweep in decreasing value order.

    A vertex with no processed neighbor opens a component (a leaf node); a
    vertex joining k >= 2 components becomes their common saddle; the last
    vertex is appended as the degree-one root.
    """
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    work = f.values if direction == "max" else -f.values
    n = len(work)
    order = np.lexsort((np.arange(n), -work))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    def node_value(idx):
        # sweep-rank-scaled offset keeps node values strictly ordered like
        # the sweep itself, including across plateaus
        return float(work[idx]) + _EPS * (n - 1 - int(rank[idx])) / n

    parent_uf = np.full(n, -1, dtype=np.int64)

    def find(x):
        root = x
        while parent_uf[root] != root:
            root = parent_uf[root]
        while parent_uf[x] != root:
            parent_uf[x], x = root, parent_uf[x]
        return root

    processed = np.zeros(n, dtype=bool)
    comp_node = {}
    values: list[float] = []
    parent: list[int] = []

    def new_node(val, par):
        values.append(val)
        parent.append(par)
        return len(values) - 1

    for idx in order:
        idx = int(idx)
        roots = []
        for nb in f.neighbors(idx):
            if processed[nb]:
                root = find(nb)
                if root not in roots:
                    roots.append(root)
        processed[idx] = True
        parent_uf[idx] = idx
        if not roots:
            comp_node[idx] = new_node(node_value(idx), -2)
            continue
        if len(roots) == 1:
            parent_uf[idx] = roots[0]
            continue
        saddle = new_node(node_value(idx), -2)
        for root in roots:
            node = comp_node.pop(root)
            parent[node] = saddle
            parent_uf[root] = idx
        comp_node[idx] = saddle

    last = int(order[-1])
    (top_node,) = comp_node.values()
    root_val = node_value(last)
    if values and root_val >= min(values):
        # the last vertex already became a node (all-merging saddle)
        root_val = min(values) - _EPS / n
    root = new_node(root_val, -1)
    parent[top_node] = root

    # reindex so that ids are dense in creation order with the root last
    tree = MergeTree(values, parent)
    return require_valid(tree)
