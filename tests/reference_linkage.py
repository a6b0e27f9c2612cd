"""Single-linkage order as it was before the one-matrix version.

Kept verbatim as the reference of the equality test in ``test_matrix.py``:
the distances of active cluster pairs live in a dict keyed by (i, j), i < j,
and every merge scans all of them.
"""

from __future__ import annotations

import numpy as np


def reference_single_linkage_order(values: np.ndarray):
    """Leaf order of a single-linkage agglomerative clustering.

    Deterministic: merges the closest active cluster pair, breaking ties by
    the smallest (i, j); a merged cluster concatenates the member lists of
    its parts. The result is the dendrogram's left-to-right leaf order.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    clusters: dict[int, list[int]] = {i: [i] for i in range(n)}
    dist = {
        (i, j): float(values[i, j]) for i in range(n) for j in range(i + 1, n)
    }
    while len(clusters) > 1:
        best = min(dist.items(), key=lambda kv: (kv[1], kv[0]))
        (a, b), _ = best
        merged = clusters[a] + clusters[b]
        del clusters[b]
        clusters[a] = merged
        del dist[(a, b)]
        for c in list(clusters):
            if c == a:
                continue
            ka = (min(a, c), max(a, c))
            kb = (min(b, c), max(b, c))
            dist[ka] = min(dist[ka], dist.pop(kb))
    (_, order), = clusters.items()
    return order
