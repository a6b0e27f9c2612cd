"""Exhaustive reference for min-cost matching with deletion and insertion
slack: a depth-first search over every injective partial matching, the
test oracle that ``mtdist.matching``'s kernels are compared against.

It sums a matching's rows' terms in row order, then the free columns'
insertions in column order, and keeps the first cheapest it meets; rows
first stay unmatched, then take each free column in ascending order,
the order of ``mtdist.matching.small_matching_patterns``.
"""

import math
from functools import reduce
from operator import add


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
        total = acc + reduce(add, (inss[j] for j in range(len(inss)) if j not in used), 0.0)
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
