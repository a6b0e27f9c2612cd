"""The free-mode wavefront engine against the per-node-pair reference DP.

``reference_free_dp.py`` keeps the earlier engine verbatim. Both evaluate
the same options in the same order on the same float64 values, so distances
must be equal exactly and the mappings identical, ties included.
"""

import tracemalloc

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


def test_peak_memory_is_the_table_and_a_few_chunks(monkeypatch):
    # Beside the pair table and the two trees' layouts (measured here), the
    # call keeps no per-state record of the winning options, and row chunks
    # bound its per-state temporaries: wave 0's grid and each slice chunk's
    # options take a few chunk-sized buffers at a time. Saddle sides are
    # costed once per node pair of a rectangle, unchunked (about 20 KB on
    # these trees); only their spread over the states is chunked. Every
    # rectangle takes the chunked slice path here.
    monkeypatch.setattr(mapping_module, "_SLICE_STATES", 1)
    monkeypatch.setattr(mapping_module, "_CHUNK_VALUES", 1 << 14)
    rng = np.random.default_rng(5)
    t1, t2 = grow_merge_tree(rng, 150, 0.05), grow_merge_tree(rng, 150, 0.05)
    metric = BaseMetric("euclidean")
    table = (sum(t1.depths) + 1) * (sum(t2.depths) + 1) * 8
    tracemalloc.start()
    try:
        layouts = [mapping_module._Flat(t, metric, True) for t in (t1, t2)]
        layout_bytes = tracemalloc.get_traced_memory()[0]
        del layouts
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        branch_mapping_distance(t1, t2, metric, "l2")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    chunk = 8 * (1 << 14)  # bytes of one row chunk's values
    assert table > 7 * 2**20
    assert peak <= table + layout_bytes + 8 * chunk


def bushy_tree(rng, degrees):
    """Root, entry, then one saddle per entry of ``degrees``, each grown at a
    random leaf with that many children; integer value steps, so values
    repeat across the two trees of a pair."""
    values, parent, leaves = [0.0, 1.0], [-1, 0], [1]
    for k in degrees:
        leaf = leaves.pop(int(rng.integers(len(leaves))))
        for _ in range(k):
            leaves.append(len(values))
            values.append(values[leaf] + float(rng.integers(1, 4)))
            parent.append(leaf)
    return MergeTree(values, parent)


@pytest.mark.parametrize("slice_states", [1, 10**9], ids=["all-slices", "all-flat"])
def test_wide_saddles_on_both_fill_paths_equal_reference(monkeypatch, slice_states):
    # Saddles of 4-8 children: their sides are costed per pair of nodes and,
    # on the slice path, spread over row chunks of one row each; the walk
    # re-derives the matched options through all three matching routes,
    # (c - 1) x (d - 1) instances of at most 3 x 3, at most WIDE columns and
    # wider.
    monkeypatch.setattr(mapping_module, "_SLICE_STATES", slice_states)
    monkeypatch.setattr(mapping_module, "_CHUNK_VALUES", 64)
    rng = np.random.default_rng(17)
    metric = BaseMetric("birth-persistence")
    for degrees in ([8, 2, 4], [5, 2, 6], [4, 7, 2, 3]):
        t1 = bushy_tree(rng, degrees)
        t2 = bushy_tree(rng, degrees[::-1] + [2])
        assert max(map(len, t1.children)) >= 4 and max(map(len, t2.children)) >= 4
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


def test_degree_16_saddles_take_the_last_of_all_options():
    # 16 + 16 + 16 * 16 options per state, the last 256 matching 15 x 15
    # children by the Hungarian method. The saddles sit at different heights,
    # so the cheapest mapping pairs the two value-20 leaves on the main
    # branches, through the last child slots, the last of all options.
    t1, t2 = wide_tree(16, 1.0, 0), wide_tree(16, 3.0, 3)
    for mode in MODE_NAMES:
        assert_same_as_reference(t1, t2, BaseMetric("birth-persistence"), mode)
        _, mapping = branch_mapping_distance(t1, t2, BaseMetric("birth-persistence"), mode)
        assert mapping.pairs[-1][0].label == (0.0, 20.0)
        assert mapping.pairs[-1][1].label == (0.0, 20.0)
