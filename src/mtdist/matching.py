"""Min-cost matching with per-item deletion and insertion slack.

Used wherever unordered children have to be paired optimally: the branch
mapping recursion and both baseline edit distances. Small instances are
solved by closed forms or exhaustive search; larger ones by the Hungarian
method on the standard padded square matrix.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment


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
    if r <= 3 and s <= 3:
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
