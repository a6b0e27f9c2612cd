"""Fixed-mode mappings against the per-node-pair reference DP.

``reference_fixed_dp.py`` keeps the earlier fixed-mode code verbatim, with
its own recursive reconstruction. The fill evaluates the same options in
the same order on the same float64 values, so two-sided distances must be
equal exactly and the mappings identical, ties included.

A one-sided total is now the delete table's entry, which sums subtree by
subtree where the reference summed the branches in sorted order. The sums
are exact, so equal, except under the euclidean metric, whose deletion cost
``p / sqrt(2)`` is rounded; there the two orders may differ by the rounding
of a float64 sum of n non-negative terms, at most ``2 n eps`` of it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import mtdist.mapping as mapping_module
from mtdist import MergeTree, branch_mapping_distance, validate_branch_mapping
from mtdist.branches import (
    count_branch_decompositions,
    elder_rule_decomposition,
    enumerate_branch_decompositions,
)
from mtdist.metrics import METRIC_NAMES, MODE_NAMES, BaseMetric
from mtdist.trees import _layout_memo
from reference_fixed_dp import reference_fixed_mapping
from test_free_engine import merge_trees

# trees with at most this many decompositions also draw a random one
MAX_ENUMERATED = 64


@st.composite
def decomposed_trees(draw):
    """A tree and one of its decompositions: the elder-rule one, or on small
    trees one drawn from ``enumerate_branch_decompositions``."""
    tree = draw(merge_trees())
    if count_branch_decompositions(tree) > MAX_ENUMERATED or draw(st.booleans()):
        return tree, elder_rule_decomposition(tree)
    decs = enumerate_branch_decompositions(tree, max_leaves=len(tree))
    return tree, decs[draw(st.integers(0, len(decs) - 1))]


def assert_same_as_reference(t1, t2, metric, mode, fixed):
    d, mapping = branch_mapping_distance(t1, t2, metric, mode, fixed=fixed)
    ref_d, ref = reference_fixed_mapping(t1, t2, metric, mode, fixed)
    assert validate_branch_mapping(mapping).ok
    assert mapping.pairs == ref.pairs
    assert mapping.pair_costs == ref.pair_costs
    assert mapping.deletions == ref.deletions
    assert mapping.insertions == ref.insertions
    assert mapping.decomposition1 is ref.decomposition1
    assert mapping.decomposition2 is ref.decomposition2
    if t1 is not None and t2 is not None:
        assert d == ref_d
        assert mapping.stats == ref.stats
        return
    tree = t1 if t2 is None else t2
    if metric.kind == "euclidean":
        assert abs(d - ref_d) <= 2 * len(tree) * np.finfo(float).eps * ref_d
    else:
        assert d == ref_d
    # one state per non-root node, as in two-sided fixed mode
    assert (mapping.stats.keys, mapping.stats.bound) == (0, 0)
    assert mapping.stats.null_keys == len(tree) - 1


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(decomposed_trees(), decomposed_trees())
def test_equal_to_reference_fixed_dp(a, b):
    (t1, dec1), (t2, dec2) = a, b
    for kind in METRIC_NAMES:
        metric = BaseMetric(kind)
        for mode in MODE_NAMES:
            assert_same_as_reference(t1, t2, metric, mode, (dec1, dec2))
            assert_same_as_reference(t1, None, metric, mode, (dec1, dec2))
            assert_same_as_reference(None, t2, metric, mode, (dec1, dec2))


def test_memo_keeps_one_fixed_layout_per_decomposition(monkeypatch):
    """An open layout memo keys fixed-mode layouts by decomposition object:
    several decompositions of one tree each get their own, built once."""
    # two saddles of two children, and one saddle of three: 4 and 3 decompositions
    t1 = MergeTree([0.0, 1.0, 5.0, 2.0, 6.0, 4.0], [-1, 0, 1, 1, 3, 3])
    t2 = MergeTree([0.0, 2.0, 7.0, 5.0, 3.0], [-1, 0, 1, 1, 1])
    decs1 = enumerate_branch_decompositions(t1)
    decs2 = enumerate_branch_decompositions(t2)
    assert (len(decs1), len(decs2)) == (4, 3)
    metric = BaseMetric("euclidean")
    pairs = [(a, b) for a in decs1 for b in decs2]
    want = [branch_mapping_distance(t1, t2, metric, "l2", fixed=fixed) for fixed in pairs]
    built = []
    build = mapping_module._Flat

    def counting(tree, metric, squared, dec=None):
        built.append(dec)
        return build(tree, metric, squared, dec)

    monkeypatch.setattr(mapping_module, "_Flat", counting)
    with _layout_memo():
        for _ in range(2):
            got = [branch_mapping_distance(t1, t2, metric, "l2", fixed=fixed) for fixed in pairs]
            assert got == want
    assert len(built) == len({id(d) for d in built}) == len(decs1) + len(decs2)
