"""The event-driven ``simplify`` against the rescanning reference.

``reference_simplify.py`` keeps the earlier greedy verbatim. Both pick the
same leaf at every step, so the simplified trees must be equal, ties in
persistence and in the id tie-break included.
"""

import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mtdist import MergeTree
from mtdist.fields import ScalarField2D, compute_merge_tree, simplify
from mtdist.generators import generate_ensemble, outlier_spec
from reference_simplify import reference_simplify

MAX_DEGREE = 5
THRESHOLDS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 1e9)


@st.composite
def tie_heavy_trees(draw, max_nodes=60):
    """Valid merge trees of up to ``max_nodes`` nodes, saddles of degree
    2..MAX_DEGREE, integer value steps of 1..3 (so leaf values repeat and
    persistences equal the integer thresholds) and permuted node ids."""
    parent = [-1, 0]
    children = [[1], []]
    grows = draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(2, MAX_DEGREE)), max_size=30))
    for pick, k in grows:
        grow = [v for v in range(1, len(parent)) if len(children[v]) < MAX_DEGREE]
        v = grow[pick % len(grow)]
        add = k if not children[v] else 1
        if len(parent) + add > max_nodes:
            continue
        for _ in range(add):
            children[v].append(len(parent))
            children.append([])
            parent.append(v)
    steps = draw(st.lists(st.integers(1, 3), min_size=len(parent), max_size=len(parent)))
    values = [0.0]
    for v in range(1, len(parent)):
        values.append(values[parent[v]] + steps[v])
    perm = draw(st.permutations(range(len(parent))))
    new_values = [0.0] * len(parent)
    new_parent = [-1] * len(parent)
    for v, p in enumerate(parent):
        new_values[perm[v]] = values[v]
        new_parent[perm[v]] = -1 if p == -1 else perm[p]
    return MergeTree(new_values, new_parent)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tie_heavy_trees())
def test_equal_to_reference(tree):
    for tau in THRESHOLDS:
        assert simplify(tree, tau) == reference_simplify(tree, tau)


def test_equal_to_reference_on_noisy_fields():
    rng = np.random.default_rng(11)
    for _ in range(8):
        base = np.sin(np.arange(12 * 16) / 7.0)
        values = base + rng.normal(0.0, 0.05, 12 * 16)
        # a coarse grid of values makes equal leaf values and equal
        # persistences common
        values = np.round(values, 1)
        f = ScalarField2D(rows=12, cols=16, values=values)
        for direction in ("max", "min"):
            tree = compute_merge_tree(f, direction)
            for tau in (0.0, 0.05, 0.1, 0.2, 0.5, 1e9):
                assert simplify(tree, tau) == reference_simplify(tree, tau)


def test_noisy_256_field_is_fast():
    # 9,085 nodes; the rescanning reference takes about 40 s on this tree
    # (2-core Xeon), so the bound fails it by a wide margin
    f = generate_ensemble(outlier_spec(members=1, outlier_index=0, rows=256, cols=256, noise=0.01))[0]
    tree = compute_merge_tree(f)
    assert len(tree) == 9085
    start = time.perf_counter()
    s = simplify(tree, 0.02)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"simplify took {elapsed:.2f}s"
    assert len(s.leaves) < len(tree.leaves)
    assert simplify(s, 0.02) == s
