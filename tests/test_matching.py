import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtdist.matching as matching_module
from mtdist.matching import (
    SMALL,
    WIDE,
    brute_force_matching,
    matching_costs,
    min_cost_matching,
    small_matching_costs,
    small_matching_patterns,
)


def matching_cost(P, dels, inss, pairs):
    used_r = {i for i, _ in pairs}
    used_c = {j for _, j in pairs}
    total = sum(P[i][j] for i, j in pairs)
    total += sum(d for i, d in enumerate(dels) if i not in used_r)
    total += sum(c for j, c in enumerate(inss) if j not in used_c)
    return total


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(300):
        r = int(rng.integers(0, 5))
        s = int(rng.integers(0, 5))
        P = rng.uniform(0, 10, (r, s)).tolist()
        dels = rng.uniform(0, 10, r).tolist()
        inss = rng.uniform(0, 10, s).tolist()
        fast, fast_pairs = min_cost_matching(P, dels, inss, want_pairs=True)
        brute, _ = brute_force_matching(P, dels, inss)
        assert abs(fast - brute) < 1e-9
        # the reported matching realizes the reported cost
        assert abs(matching_cost(P, dels, inss, fast_pairs) - fast) < 1e-9


def test_degenerate_sides():
    assert min_cost_matching([], [], [1.0, 2.0])[0] == 3.0
    assert min_cost_matching([], [4.0], [])[0] == 4.0


def test_single_pair_prefers_cheaper_side():
    cost, pairs = min_cost_matching([[5.0]], [1.0], [1.0])
    assert cost == 2.0 and pairs == []
    cost, pairs = min_cost_matching([[1.5]], [1.0], [1.0])
    assert cost == 1.5 and pairs == [(0, 0)]


def test_large_instance_uses_solver():
    rng = np.random.default_rng(4)
    r, s = 7, 6
    P = rng.uniform(0, 10, (r, s)).tolist()
    dels = rng.uniform(0, 10, r).tolist()
    inss = rng.uniform(0, 10, s).tolist()
    fast, pairs = min_cost_matching(P, dels, inss, want_pairs=True)
    brute, _ = brute_force_matching(P, dels, inss)
    assert abs(fast - brute) < 1e-9


def _instance(draw, r, s, values):
    P = [[draw(values) for _ in range(s)] for _ in range(r)]
    return P, [draw(values) for _ in range(r)], [draw(values) for _ in range(s)]


# integer costs, halves from a tiny range (many ties), and arbitrary floats
COSTS = st.sampled_from([
    st.integers(0, 9).map(float),
    st.integers(0, 3).map(lambda k: k / 2),
    st.floats(0.0, 10.0, allow_nan=False),
])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data(), st.integers(0, SMALL), st.integers(0, SMALL), st.integers(1, 6), COSTS)
def test_small_kernel_equals_search(data, r, s, n, values):
    """Costs equal both solvers bit for bit; the first cheapest pattern is
    brute force's matching, ties included; padding a row or a column that
    costs nothing unmatched and +inf matched leaves every cost as it is."""
    batch = [_instance(data.draw, r, s, values) for _ in range(n)]
    P = np.array([b[0] for b in batch]).reshape(n, r, s)
    dels = np.array([b[1] for b in batch]).reshape(n, r)
    inss = np.array([b[2] for b in batch]).reshape(n, s)
    costs, first = small_matching_costs(P, dels, inss, first=True)
    patterns = small_matching_patterns(r, s)
    for k, (p, d, i) in enumerate(batch):
        brute, pairs = brute_force_matching(p, d, i)
        assert costs[k] == brute == min_cost_matching(p, d, i)[0]
        assert [(row, col) for row, col in enumerate(patterns[first[k]]) if col >= 0] == pairs
    assert np.array_equal(matching_costs(P, dels, inss), costs)
    padded = np.full((n, SMALL, SMALL), np.inf)
    padded[:, :r, :s] = P
    pad_dels, pad_inss = np.zeros((n, SMALL)), np.zeros((n, SMALL))
    pad_dels[:, :r], pad_inss[:, :s] = dels, inss
    assert np.array_equal(small_matching_costs(padded, pad_dels, pad_inss), costs)


def test_small_kernel_broadcasts_leading_axes():
    rng = np.random.default_rng(8)
    P = rng.integers(0, 4, (3, 4, 2, 3)).astype(float)
    dels = rng.integers(0, 4, (3, 1, 2)).astype(float)
    inss = rng.integers(0, 4, (4, 3)).astype(float)
    costs = small_matching_costs(P, dels, inss)
    assert costs.shape == (3, 4)
    for x in range(3):
        for y in range(4):
            want = min_cost_matching(P[x, y].tolist(), dels[x, 0].tolist(), inss[y].tolist())[0]
            assert costs[x, y] == want


def test_pattern_order_is_search_order():
    assert small_matching_patterns(0, 2) == ((),)
    assert small_matching_patterns(2, 1) == ((-1, -1), (-1, 0), (0, -1))
    assert [len(small_matching_patterns(r, r)) for r in range(4)] == [1, 2, 7, 34]


def test_matching_costs_beyond_small_calls_solver():
    rng = np.random.default_rng(5)
    P = rng.uniform(0, 10, (2, 3, SMALL + 2, 2))
    dels = rng.uniform(0, 10, (2, 1, SMALL + 2))
    inss = rng.uniform(0, 10, (3, 2))
    costs = matching_costs(P, dels, inss)
    for x in range(2):
        for y in range(3):
            want = min_cost_matching(P[x, y].tolist(), dels[x, 0].tolist(), inss[y].tolist())[0]
            assert costs[x, y] == want


def search_order_sum(P, dels, inss, pairs):
    """A matching's cost summed as the exhaustive search sums it: the rows'
    terms in row order, then the free columns' insertions in column order."""
    col = dict(pairs)
    acc = 0.0
    for i, d in enumerate(dels):
        acc = acc + (P[i][col[i]] if i in col else d)
    return acc + sum(inss[j] for j in range(len(inss)) if j not in col.values())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data(), st.integers(0, 6), st.integers(0, WIDE), st.integers(1, 3), COSTS)
def test_mask_kernel_equals_search(data, r, s, n, values):
    """Up to WIDE columns, batched costs equal single costs and brute force
    bit for bit; the single call's pairs sum to its cost in the search's
    order; a padding row, and a padding column below WIDE, that cost nothing
    unmatched and +inf matched leave every cost as it is."""
    batch = [_instance(data.draw, r, s, values) for _ in range(n)]
    P = np.array([b[0] for b in batch]).reshape(n, r, s)
    dels = np.array([b[1] for b in batch]).reshape(n, r)
    inss = np.array([b[2] for b in batch]).reshape(n, s)
    costs = matching_costs(P, dels, inss)
    for k, (p, d, i) in enumerate(batch):
        cost, pairs = min_cost_matching(p, d, i, want_pairs=True)
        assert costs[k] == cost == brute_force_matching(p, d, i)[0]
        if r and s:
            assert len({j for _, j in pairs}) == len(pairs)
            assert search_order_sum(p, d, i, pairs) == cost
    cols = s + (s < WIDE)
    padded = np.full((n, r + 1, cols), np.inf)
    padded[:, :r, :s] = P
    pad_dels, pad_inss = np.zeros((n, r + 1)), np.zeros((n, cols))
    pad_dels[:, :r], pad_inss[:, :s] = dels, inss
    assert np.array_equal(matching_costs(padded, pad_dels, pad_inss), costs)


def test_hungarian_only_beyond_wide(monkeypatch):
    calls = []

    def counted(cost):
        calls.append(cost.shape)
        return linear_sum_assignment(cost)

    linear_sum_assignment = matching_module.linear_sum_assignment
    monkeypatch.setattr(matching_module, "linear_sum_assignment", counted)
    rng = np.random.default_rng(9)
    for s in (WIDE, WIDE + 1):
        P = rng.uniform(0, 10, (3, 2, s))
        dels = rng.uniform(0, 10, (3, 2))
        inss = rng.uniform(0, 10, (3, s))
        costs = matching_costs(P, dels, inss)
        for k in range(3):
            cost, pairs = min_cost_matching(P[k].tolist(), dels[k].tolist(), inss[k].tolist(), want_pairs=True)
            assert costs[k] == cost
            assert abs(matching_cost(P[k], dels[k], inss[k], pairs) - cost) < 1e-9
    # three batched and three single instances of WIDE + 1 columns, none of WIDE
    assert calls == [(WIDE + 3, WIDE + 3)] * 6


def test_tall_instance_within_wide():
    """Two hundred rows of WIDE columns: the mask kernel's tables depend on
    the column count only, and its cost is the optimum, which integer costs
    let the Hungarian method give exactly."""
    rng = np.random.default_rng(11)
    r, s = 200, WIDE
    P = rng.integers(0, 50, (2, r, s)).astype(float)
    dels = rng.integers(0, 50, (2, r)).astype(float)
    inss = rng.integers(0, 50, (2, s)).astype(float)
    costs = matching_costs(P, dels, inss)
    for k in range(2):
        cost, pairs = min_cost_matching(P[k].tolist(), dels[k].tolist(), inss[k].tolist(), want_pairs=True)
        assert costs[k] == cost == matching_cost(P[k], dels[k], inss[k], pairs)
        big = np.full((r + s, s + r), np.inf)
        big[:r, :s] = P[k]
        big[np.arange(r), s + np.arange(r)] = dels[k]
        big[r + np.arange(s), np.arange(s)] = inss[k]
        big[r:, s:] = 0.0
        rows, cols = matching_module.linear_sum_assignment(big)
        assert cost == big[rows, cols].sum()
    assert matching_module._mask_tables.cache_info().currsize <= WIDE + 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1, 1), (1, 3), (3, 3), (4, 2), (3, WIDE), (2, WIDE + 1), (WIDE + 1, WIDE + 2)]),
    st.sampled_from(["integers", "halves", "floats"]),
)
def test_batch_equals_each_sub_batch(seed, shape, kind):
    """The free engine's fill costs the saddle pairs of a rectangle in one
    (x, y, i, j) batch, and its walk re-derives one pair's options from that
    pair's (x, y) sub-batch: the batch equals each sub-batch, and each single
    instance, bit for bit, on every route (1 x 1, enumeration, mask and
    Hungarian)."""
    rng = np.random.default_rng(seed)
    r, s = shape

    def draw(*size):
        if kind == "integers":
            return rng.integers(0, 10, size).astype(float)
        if kind == "halves":
            return rng.integers(0, 4, size) / 2
        return rng.uniform(0.0, 10.0, size)

    nx, ny, ni, nj = 3, 2, 2, 3
    # one deletion cost per row of node x and slot i, one insertion per column of y and j
    P, dels, inss = draw(nx, ny, ni, nj, r, s), draw(nx, 1, ni, 1, r), draw(1, ny, 1, nj, s)
    batch = matching_costs(P, dels, inss)
    assert batch.shape == (nx, ny, ni, nj)
    for x in range(nx):
        for y in range(ny):
            assert np.array_equal(matching_costs(P[x, y], dels[x, 0], inss[0, y]), batch[x, y])
            for i in range(ni):
                for j in range(nj):
                    single, _ = min_cost_matching(
                        P[x, y, i, j].tolist(), dels[x, 0, i, 0].tolist(), inss[0, y, 0, j].tolist()
                    )
                    assert single == batch[x, y, i, j]


@pytest.mark.parametrize("r", [0, 1])
def test_single_costs_add_left_to_right(monkeypatch, r):
    # From Python 3.12 on the builtin sum compensates Python floats, while
    # the kernels add left to right; fsum in its place shows the difference
    # on any Python. A 1 x 3 row here can never match.
    monkeypatch.setattr(matching_module, "sum", math.fsum, raising=False)
    rng = np.random.default_rng(21)
    bad = 0
    for _ in range(2000):
        dels = (rng.uniform(0, 1, r) * 10.0 ** rng.uniform(-4, 4, r)).tolist()
        inss = (rng.uniform(0, 1, 3) * 10.0 ** rng.uniform(-4, 4, 3)).tolist()
        P = np.full((r, 3), np.inf)
        bad += min_cost_matching(P.tolist(), dels, inss)[0] != matching_costs(P, dels, inss)
    assert bad == 0
