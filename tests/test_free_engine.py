"""The free-mode wavefront engine against the per-node-pair reference DP.

``reference_free_dp.py`` keeps the earlier engine verbatim. Both evaluate
the same options in the same order on the same float64 values, so distances
must be equal exactly and the mappings identical, ties included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtdist.mapping as mapping_module
from mtdist import MergeTree, branch_mapping_distance, delete_tree_cost, validate_branch_mapping
from mtdist.metrics import METRIC_NAMES, MODE_NAMES, BaseMetric
from conftest import grow_merge_tree, random_merge_tree
from reference_free_dp import reference_delete_cost, reference_free_mapping

MAX_DEGREE = 5


@st.composite
def merge_trees(draw, max_nodes=40):
    """Valid merge trees of up to ``max_nodes`` nodes with saddles of degree
    2..MAX_DEGREE and small integer value steps, so values repeat."""
    parent = [-1, 0]
    children = [[1], []]
    grows = draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(2, MAX_DEGREE)), max_size=20))
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
    values = [float(draw(st.integers(0, 2)))]
    for v in range(1, len(parent)):
        values.append(values[parent[v]] + steps[v])
    return MergeTree(values, parent)


def assert_same_as_reference(t1, t2, metric, mode):
    d, mapping = branch_mapping_distance(t1, t2, metric, mode)
    ref_d, ref_pairs, ref_dels, ref_inss = reference_free_mapping(t1, t2, metric, mode)
    assert d == ref_d
    assert mapping.pairs == ref_pairs
    assert mapping.deletions == ref_dels
    assert mapping.insertions == ref_inss
    assert validate_branch_mapping(mapping).ok


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(merge_trees(), merge_trees())
def test_equal_to_reference_engine(t1, t2):
    for kind in METRIC_NAMES:
        metric = BaseMetric(kind)
        for mode in MODE_NAMES:
            assert_same_as_reference(t1, t2, metric, mode)
            assert delete_tree_cost(t1, metric, mode) == reference_delete_cost(t1, metric, mode)
            _, deleted = branch_mapping_distance(t1, None, metric, mode)
            _, inserted = branch_mapping_distance(None, t2, metric, mode)
            for mapping, dec, branches in (
                (deleted, deleted.decomposition1, deleted.deletions),
                (inserted, inserted.decomposition2, inserted.insertions),
            ):
                assert validate_branch_mapping(mapping).ok
                assert dec.branches == branches


@pytest.mark.parametrize(
    "slice_states, chunk_values",
    [(1, 64), (10**9, 1 << 18)],
    ids=["all-slices-small-chunks", "all-flat"],
)
def test_both_fill_paths_equal_reference(monkeypatch, slice_states, chunk_values):
    monkeypatch.setattr(mapping_module, "_SLICE_STATES", slice_states)
    monkeypatch.setattr(mapping_module, "_CHUNK_VALUES", chunk_values)
    rng = np.random.default_rng(31)
    metric = BaseMetric("euclidean")
    for _ in range(6):
        t1 = grow_merge_tree(rng, int(rng.integers(20, 50)), extra_child_prob=0.3)
        t2 = random_merge_tree(rng, max_leaves=10, max_children=4, integer=True)
        for mode in MODE_NAMES:
            assert_same_as_reference(t1, t2, metric, mode)
            assert_same_as_reference(t2, t1, metric, mode)


def wide_tree(width, entry, shift):
    """Root 0, then a saddle at ``entry`` with ``width`` children: the first a
    saddle with two leaves, the last the highest leaf (value 20)."""
    values = [0.0, entry]
    parent = [-1, 0]
    for k in range(width):
        values.append(20.0 if k == width - 1 else entry + 1.0 + (3 * k + shift) % 7)
        parent.append(1)
    values += [values[2] + 1.0, values[2] + 2.5]
    parent += [2, 2]
    return MergeTree(values, parent)


def test_degree_16_saddles_need_wide_option_codes():
    # 16 + 16 + 16 * 16 option codes do not fit in uint8. The saddles sit at
    # different heights, so the cheapest mapping pairs the two value-20 leaves
    # on the main branches, through the last child slots: code 287.
    t1, t2 = wide_tree(16, 1.0, 0), wide_tree(16, 3.0, 3)
    for mode in MODE_NAMES:
        assert_same_as_reference(t1, t2, BaseMetric("birth-persistence"), mode)
        _, mapping = branch_mapping_distance(t1, t2, BaseMetric("birth-persistence"), mode)
        assert mapping.pairs[-1][0].label == (0.0, 20.0)
        assert mapping.pairs[-1][1].label == (0.0, 20.0)


def test_option_codes_are_built_once_per_shape():
    # tree-1 slots 0-2, tree-2 slots NC + 0..1, then NC + ND + i * ND + j
    codes = mapping_module._codes(4, 3, 3, 2, np.dtype(np.uint8))
    assert codes.tolist() == [0, 1, 2, 4, 5, 7, 8, 10, 11, 13, 14]
    assert codes is mapping_module._codes(4, 3, 3, 2, np.dtype(np.uint8))
    assert not codes.flags.writeable
