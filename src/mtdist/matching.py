"""Min-cost matching with per-item deletion and insertion slack.

Used wherever unordered children have to be paired optimally: the branch
mapping recursion and both baseline edit distances. The dynamic programs
cost their many instances in batches through :func:`matching_costs`:

* a 1 x 1 instance costs the cheaper of its match and its deletion plus
  insertion, as :func:`min_cost_matching` costs it;
* up to ``SMALL`` rows and columns, :func:`small_matching_costs`
  enumerates every partial matching once per shape and takes the first
  cheapest;
* beyond that, with at most ``WIDE`` columns, :func:`mask_matching_costs`
  runs an exact dynamic program over the sets of columns already matched;
  its tables depend on the column count only.

Both sum every matching as :func:`brute_force_matching` does, the rows'
terms in row order and then the free columns' insertions in column order,
so up to ``WIDE`` columns every cost equals the exhaustive reference's bit
for bit. Only instances of more than ``WIDE`` columns go, one by one, to the
Hungarian method on the standard padded square matrix, whose sums may
differ in the last bits; from 7 columns on the mask kernel is no faster
than that even in batches. :func:`min_cost_matching` costs one instance
through the same paths, so batched and single costs agree bit for bit, and
also gives its matched pairs.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from operator import add

import numpy as np

SMALL = 3  # largest row and column count of the enumeration kernel
WIDE = 6  # largest column count of the mask kernel
_CHUNK_VALUES = 1 << 16


def linear_sum_assignment(cost):
    """scipy's Hungarian method, imported on first use: loading
    ``scipy.optimize`` is most of the time of ``import mtdist``, and only
    instances of more than ``WIDE`` columns need it."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def min_cost_matching(P, dels, inss, want_pairs=False):
    """Cheapest partial matching of r rows against s columns.

    A row may match a column at ``P[i][j]`` or stay unmatched at ``dels[i]``;
    unmatched columns cost ``inss[j]``. Returns ``(cost, matched pairs)``;
    the pair list is only populated when ``want_pairs`` is set or comes for
    free. Up to ``WIDE`` columns the cost is :func:`brute_force_matching`'s
    bit for bit, and the pairs sum to it in its order; wider instances go to
    the Hungarian method.
    """
    r, s = len(dels), len(inss)
    # added left to right, as the kernels add; from Python 3.12 on the
    # builtin sum compensates, also in _search
    if r == 0:
        return float(reduce(add, inss, 0.0)), []
    if s == 0:
        return float(reduce(add, dels, 0.0)), []
    if r == 1 and s == 1:
        m = P[0][0]
        d = dels[0] + inss[0]
        if m <= d:
            return float(m), [(0, 0)]
        return float(d), []
    if r <= SMALL and s <= SMALL:
        return brute_force_matching(P, dels, inss)
    if s <= WIDE:
        return _mask_matching(P, dels, inss, want_pairs)
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


@cache
def _mask_order(s):
    """The used-column masks of s columns by number of columns, then value,
    and each mask's position in that order. The masks i rows can reach,
    those of at most i columns, come first."""
    order = sorted(range(1 << s), key=lambda m: (m.bit_count(), m))
    return order, {m: x for x, m in enumerate(order)}


@cache
def _mask_tables(s):
    """Moves and insertion terms of the mask dynamic program over s columns.

    Masks are positions in :func:`_mask_order`. ``moves[min(i, s)]`` is
    ``(src, col, starts)`` for row i: the edges into each mask m that i + 1
    rows can reach are the row staying unmatched (from m itself, if i rows
    reach m) and then the row taking each column j of m (from m without j),
    ascending; edge e comes from mask ``src[e]`` and adds the row's term
    ``col[e]``, its match cost of that column or, at s, its deletion;
    ``starts`` gives each mask's first edge. ``free[t, x]`` is the t-th free
    column of mask x, or s past its last one.
    """
    order, pos = _mask_order(s)
    moves = []
    for i in range(s + 1):
        src, col, starts = [], [], []
        for m in order:
            if m.bit_count() > i + 1:
                break
            starts.append(len(src))
            if m.bit_count() <= i:
                src.append(pos[m])
                col.append(s)
            for j in range(s):
                if m >> j & 1:
                    src.append(pos[m ^ 1 << j])
                    col.append(j)
        moves.append(tuple(np.array(a, dtype=np.intp) for a in (src, col, starts)))
    free = [[j for j in range(s) if not m >> j & 1] + [s] * m.bit_count() for m in order]
    free = np.array(free, dtype=np.intp).T.reshape(s, 1 << s)
    for a in (free, *[x for move in moves for x in move]):
        a.setflags(write=False)
    return tuple(moves), free


def _mask_dp(X, I, keep=False):
    """The mask dynamic program over instances ``X[i, :, k]``, row i's s
    match costs and then its deletion, with insertions ``I[:, k]`` and a
    trailing 0.0.

    Returns the cheapest sum, in row order, of all rows' terms of instance
    k that uses exactly the columns of mask x, plus the insertions of the
    columns it leaves free, summed in column order, at ``[x, k]``; with
    ``keep`` also the list of the row sums after 0, 1, ... rows. Floating-
    point addition is monotone, so the minimum over x is the cheapest
    matching summed as :func:`_search` sums it.
    """
    r, w, n = X.shape
    s = w - 1
    moves, free = _mask_tables(s)
    acc = np.zeros((1, n))
    rows = [acc]
    for i in range(r):
        src, col, starts = moves[min(i, s)]
        cand = acc.take(src, axis=0)
        cand += X[i].take(col, axis=0)
        acc = np.minimum.reduceat(cand, starts, axis=0)
        if keep:
            rows.append(acc)
    ins = np.zeros_like(acc)
    for term in I.take(free[:, :len(acc)], axis=0):
        ins += term
    ins += acc
    return (ins, rows) if keep else ins


def _mask_instances(P, dels, inss):
    """The instances of ``P[..., r, s]``, leading axes flattened and last,
    laid out for :func:`_mask_dp`."""
    *lead, r, s = P.shape
    k, n = len(lead), math.prod(lead)
    X = np.empty([r, s + 1] + lead)
    X[:, :s] = P.transpose(k, k + 1, *range(k))
    X[:, s] = _last_first(dels, k)
    I = np.zeros([s + 1] + lead)
    I[:s] = _last_first(inss, k)
    return X.reshape(r, s + 1, n), I.reshape(s + 1, n)


def _last_first(a, k):
    """``a``, broadcast from the left to k leading axes and one last axis,
    with that last axis moved first."""
    a = np.asarray(a, dtype=np.float64)
    return a.reshape((1,) * (k + 1 - a.ndim) + a.shape).transpose(k, *range(k))


def mask_matching_costs(P, dels, inss):
    """Costs of many matching instances of at most ``WIDE`` columns at once.

    Shapes as in :func:`small_matching_costs`. An exact dynamic program goes
    through the rows in order; its state is the set of columns already
    matched. The costs equal :func:`brute_force_matching`'s bit for bit.
    """
    P = np.asarray(P, dtype=np.float64)
    *lead, r, s = P.shape
    X, I = _mask_instances(P, dels, inss)
    n = X.shape[2]
    costs = np.empty(n)
    # in pieces of about _CHUNK_VALUES edge values per row
    step = max(1, _CHUNK_VALUES // len(_mask_tables(s)[0][-1][0]))
    for a in range(0, n, step):
        np.minimum.reduce(_mask_dp(X[..., a:a + step], I[:, a:a + step]), axis=0, out=costs[a:a + step])
    return costs.reshape(lead)


def _mask_matching(P, dels, inss, want_pairs):
    """:func:`min_cost_matching` through the mask dynamic program.

    The pairs come from backtracking its rows: at each row, the first edge
    whose sum reproduces the minimum, so they sum to the returned cost.
    """
    r, s = len(dels), len(inss)
    total, rows = _mask_dp(*_mask_instances(np.asarray(P, dtype=np.float64), dels, inss), keep=True)
    x = int(total[:, 0].argmin())
    if not want_pairs:
        return float(total[x, 0]), []
    order, pos = _mask_order(s)
    m, pairs = order[x], []
    for i in range(r - 1, -1, -1):
        A, want = rows[i][:, 0], rows[i + 1][pos[m], 0]
        if pos[m] >= len(A) or A[pos[m]] + dels[i] != want:
            j = next(j for j in range(s) if m >> j & 1 and A[pos[m ^ 1 << j]] + P[i][j] == want)
            pairs.append((i, j))
            m ^= 1 << j
    pairs.reverse()
    return float(total[x, 0]), pairs


def matching_costs(P, dels, inss):
    """Costs of many matching instances of one shape, as :func:`min_cost_matching`
    gives them: at 1 x 1 the cheaper of the match and the deletion plus the
    insertion, in one :func:`small_matching_costs` batch up to ``SMALL`` x
    ``SMALL``, in one :func:`mask_matching_costs` batch up to ``WIDE``
    columns, one call per instance beyond. Shapes as there."""
    P = np.asarray(P, dtype=np.float64)
    *lead, r, s = P.shape
    if r == s == 1:
        return np.minimum(P[..., 0, 0], np.add(dels, inss)[..., 0])
    if r <= SMALL and s <= SMALL:
        return small_matching_costs(P, dels, inss)
    if s <= WIDE:
        return mask_matching_costs(P, dels, inss)
    dels = np.broadcast_to(dels, lead + [r])
    inss = np.broadcast_to(inss, lead + [s])
    out = np.empty(lead)
    for k in np.ndindex(*lead):
        out[k] = min_cost_matching(P[k].tolist(), dels[k].tolist(), inss[k].tolist())[0]
    return out
