"""Persistence simplification as it was before the event-driven version.

Kept verbatim as the reference for the equality property test in
``test_simplify.py``: every greedy step recomputes ``submax`` over the whole
tree and rescans every leaf in id order, so one removal costs O(n log n).
"""

from __future__ import annotations

from mtdist.trees import MergeTree, require_valid


def reference_simplify(tree: MergeTree, threshold: float) -> MergeTree:
    """Iteratively remove sub-threshold leaf branches.

    Repeatedly removes the lowest-persistence leaf whose span to its saddle
    is below the threshold, never removing the saddle's highest-reaching
    child (elder tie-breaking: the smallest node-id survives). Saddles left
    with a single child are spliced out. The result is a valid tree whose
    non-main elder branches all have persistence >= threshold.
    """
    require_valid(tree)
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    values = {v: float(tree.values[v]) for v in range(len(tree))}
    parent = {v: int(tree.parent[v]) for v in range(len(tree))}
    children = {v: list(tree.children[v]) for v in range(len(tree))}
    root = tree.root

    submax: dict[int, float] = {}

    def refresh_submax():
        submax.clear()
        order = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(children[v])
        for v in reversed(order):
            if children[v]:
                submax[v] = max(submax[c] for c in children[v])
            else:
                submax[v] = values[v]

    def preferred(s):
        return min(children[s], key=lambda c: (-submax[c], c))

    while True:
        refresh_submax()
        candidate = None
        for v in sorted(parent):
            if children[v] or v == root:
                continue
            s = parent[v]
            if s == root:
                continue
            if preferred(s) == v:
                continue
            pers = values[v] - values[s]
            if pers < threshold:
                if candidate is None or (pers, v) < candidate[:2]:
                    candidate = (pers, v, s)
        if candidate is None:
            break
        _, v, s = candidate
        children[s].remove(v)
        del values[v], parent[v], children[v]
        if len(children[s]) == 1 and s != root:
            (only,) = children[s]
            p = parent[s]
            children[p][children[p].index(s)] = only
            parent[only] = p
            del values[s], parent[s], children[s]

    keep = sorted(values)
    index = {v: i for i, v in enumerate(keep)}
    new_values = [values[v] for v in keep]
    new_parent = [index[parent[v]] if parent[v] != -1 else -1 for v in keep]
    return require_valid(MergeTree(new_values, new_parent))
