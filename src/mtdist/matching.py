"""Min-cost matching with per-item deletion and insertion slack.

Used wherever unordered children have to be paired optimally: the branch
mapping recursion and both baseline edit distances. The dynamic programs
cost their many small instances, of at most ``SMALL`` rows and columns, in
batches with :func:`small_matching_costs`, which enumerates every partial
matching once per shape and takes the first cheapest. Larger instances go
one by one through :func:`min_cost_matching`: closed forms for the trivial
shapes, the Hungarian method on the standard padded square matrix beyond
``SMALL``. :func:`brute_force_matching` is the exhaustive reference; it
also gives the matched pairs of small instances when a mapping is
reconstructed.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np
from scipy.optimize import linear_sum_assignment

SMALL = 3  # largest row and column count of the batched kernel
_CHUNK_VALUES = 1 << 16


def min_cost_matching(P, dels, inss, want_pairs=False):
    """Cheapest partial matching of r rows against s columns.

    A row may match a column at ``P[i][j]`` or stay unmatched at ``dels[i]``;
    unmatched columns cost ``inss[j]``. Returns ``(cost, matched pairs)``;
    the pair list is only populated when ``want_pairs`` is set or comes for
    free.
    """
    r, s = len(dels), len(inss)
    if r == 0:
        return float(sum(inss)), []
    if s == 0:
        return float(sum(dels)), []
    if r == 1 and s == 1:
        m = P[0][0]
        d = dels[0] + inss[0]
        if m <= d:
            return float(m), [(0, 0)]
        return float(d), []
    if r <= SMALL and s <= SMALL:
        return brute_force_matching(P, dels, inss)
    big = np.full((r + s, s + r), np.inf)
    big[:r, :s] = P
    big[np.arange(r), s + np.arange(r)] = dels
    big[r + np.arange(s), np.arange(s)] = inss
    big[r:, s:] = 0.0
    ri, ci = linear_sum_assignment(big)
    cost = float(big[ri, ci].sum())
    if not want_pairs:
        return cost, []
    pairs = [(int(i), int(j)) for i, j in zip(ri, ci) if i < r and j < s]
    return cost, pairs


def brute_force_matching(P, dels, inss):
    """Exhaustive reference over all injective partial matchings."""
    best = [math.inf, []]
    _search(P, dels, inss, 0, set(), 0.0, [], best)
    return float(best[0]), best[1]


def _search(P, dels, inss, i, used, acc, chosen, best):
    """Depth-first step of :func:`brute_force_matching` at row ``i``.

    Row i first stays unmatched, then takes each free column in turn;
    branches already as expensive as ``best[0]`` are cut. ``best`` holds the
    cheapest total found so far and its pairs.
    """
    if acc >= best[0]:
        return
    if i == len(dels):
        total = acc + sum(inss[j] for j in range(len(inss)) if j not in used)
        if total < best[0]:
            best[0] = total
            best[1] = list(chosen)
        return
    _search(P, dels, inss, i + 1, used, acc + dels[i], chosen, best)
    for j in range(len(inss)):
        if j not in used:
            used.add(j)
            chosen.append((i, j))
            _search(P, dels, inss, i + 1, used, acc + P[i][j], chosen, best)
            chosen.pop()
            used.remove(j)


@cache
def small_matching_patterns(r, s):
    """Every partial matching of r rows into s columns, in the order
    :func:`_search` visits them: ``m[i]`` is row i's column, -1 if
    unmatched, and each row first stays unmatched, then takes each free
    column in ascending order."""
    patterns = [()]
    for _ in range(r):
        patterns = [m + (j,) for m in patterns for j in range(-1, s) if j < 0 or j not in m]
    return tuple(patterns)


@cache
def _pattern_tables(r, s):
    """Gather indices of every pattern's terms, and the number of patterns.

    An instance is laid out as its r x s costs ``P`` row by row, then
    ``dels``, then ``inss``, then 0.0. ``index[t * K + k]`` picks the t-th
    term of pattern k: first one term per row, row i's match or deletion
    cost; then pattern k's free columns in ascending order, padded with the
    0.0. With no rows or no columns that part is the single 0.0.
    """
    patterns = small_matching_patterns(r, s)
    zero = r * s + r + s
    terms = []
    for m in patterns:
        row = [i * s + j if j >= 0 else r * s + i for i, j in enumerate(m)] or [zero]
        free = [r * s + r + j for j in range(s) if j not in m]
        terms.append(row + free + [zero] * (max(s, 1) - len(free)))
    index = np.array(terms, dtype=np.intp).T.reshape(-1)
    index.setflags(write=False)
    return index, len(patterns)


def small_matching_costs(P, dels, inss, first=False):
    """Costs of many matching instances of at most ``SMALL`` x ``SMALL`` at once.

    ``P`` has shape ``(..., r, s)``; ``dels`` and ``inss``, of last axes r
    and s, broadcast against its leading axes. Returns the costs, and with
    ``first`` also, per instance, the index into
    :func:`small_matching_patterns` of the first cheapest pattern.

    Every pattern is summed as :func:`_search` sums it, the rows' terms in
    row order and then the free columns' insertions in column order, and
    the first minimum wins. For non-negative costs this gives the costs of
    :func:`min_cost_matching` and the pairs of :func:`brute_force_matching`
    exactly: a branch ``_search`` cuts can never hold a strictly cheaper one.
    """
    P = np.asarray(P, dtype=np.float64)
    *lead, r, s = P.shape
    index, K = _pattern_tables(r, s)
    n, rs = math.prod(lead), r * s
    X = np.zeros(lead + [rs + r + s + 1])
    X[..., :rs] = P.reshape(lead + [rs])
    X[..., rs:rs + r] = dels
    X[..., rs + r:rs + r + s] = inss
    X = X.reshape(n, -1)
    costs = np.empty(n)
    best = np.empty(n, dtype=np.intp) if first else None
    nrow = max(r, 1)
    terms = nrow + max(s, 1)
    # in pieces of about _CHUNK_VALUES gathered terms, which stay in cache
    step = max(1, _CHUNK_VALUES // (K * terms))
    for a in range(0, n, step):
        G = X[a:a + step].take(index, axis=1)
        acc = G[:, :K]
        for t in range(1, nrow):
            acc = acc + G[:, t * K:(t + 1) * K]
        ins = G[:, nrow * K:(nrow + 1) * K]
        for t in range(nrow + 1, terms):
            ins = ins + G[:, t * K:(t + 1) * K]
        total = acc + ins
        np.minimum.reduce(total, axis=1, out=costs[a:a + step])
        if first:
            total.argmin(axis=1, out=best[a:a + step])
    if not first:
        return costs.reshape(lead)
    return costs.reshape(lead), best.reshape(lead)


def matching_costs(P, dels, inss):
    """Costs of many matching instances of one shape, as :func:`min_cost_matching`
    gives them: in one :func:`small_matching_costs` batch up to ``SMALL`` x
    ``SMALL``, one call per instance beyond. Shapes as there."""
    P = np.asarray(P, dtype=np.float64)
    *lead, r, s = P.shape
    if r <= SMALL and s <= SMALL:
        return small_matching_costs(P, dels, inss)
    dels = np.broadcast_to(dels, lead + [r])
    inss = np.broadcast_to(inss, lead + [s])
    out = np.empty(lead)
    for k in np.ndindex(*lead):
        out[k] = min_cost_matching(P[k].tolist(), dels[k].tolist(), inss[k].tolist())[0]
    return out
