import sys

import numpy as np
import pytest

import mtdist.baselines as baselines_module
from mtdist import MergeTree, branch_mapping_distance, elder_rule_decomposition
from mtdist.baselines import (
    LabeledTree,
    constrained_edit_distance,
    elder_labeled_inputs,
    one_degree_distance,
)
from mtdist.errors import PreconditionError
from mtdist.metrics import BaseMetric
from mtdist.metrics import METRIC_NAMES, MODE_NAMES
from mtdist.trees import _layout_memo
from conftest import grow_merge_tree, random_merge_tree
from reference_baselines import reference_constrained_edit_distance, reference_one_degree_distance

BP = BaseMetric("birth-persistence")


class TestElderLabeledInputs:
    def test_fig5a_bdt(self, fig5a):
        t = elder_labeled_inputs(fig5a, "bdt")
        assert t.labels[t.root] == (0.0, 10.0)
        (child,) = [i for i in range(len(t)) if i != t.root]
        assert t.labels[child] == (3.0, 6.0)

    def test_single_branch(self):
        tree = MergeTree([0.0, 10.0], [-1, 0])
        t = elder_labeled_inputs(tree, "bdt")
        assert len(t) == 1

    def test_four_leaf_bdt_size(self):
        rng = np.random.default_rng(2)
        t = random_merge_tree(rng, max_leaves=4)
        while len(t.leaves) != 4:
            t = random_merge_tree(rng, max_leaves=4)
        assert len(elder_labeled_inputs(t, "bdt")) == 4

    def test_merge_tree_labels(self, fig5a):
        t = elder_labeled_inputs(fig5a, "merge-tree")
        # nodes on the main path carry the main label, the side leaf its own
        assert t.labels[0] == (0.0, 10.0)
        assert t.labels[1] == (0.0, 10.0)
        assert t.labels[2] == (0.0, 10.0)
        assert t.labels[3] == (3.0, 6.0)

    def test_label_invariant(self):
        with pytest.raises(PreconditionError):
            LabeledTree(parent=(-1,), labels=((2.0, 1.0),), root=0)

    def test_unknown_target(self, fig5a):
        with pytest.raises(ValueError):
            elder_labeled_inputs(fig5a, "graph")

    def test_unknown_target_memoizes_nothing(self, fig5a):
        memo = {}
        with _layout_memo(memo), pytest.raises(ValueError):
            elder_labeled_inputs(fig5a, "graph")
        assert memo == {}


@pytest.mark.parametrize("distance", [constrained_edit_distance, one_degree_distance])
def test_unknown_mode_rejected_before_any_table(monkeypatch, fig5a, distance):
    def no_table(*args):
        raise AssertionError("a table was built for an unknown mode")

    monkeypatch.setattr(baselines_module, "_Levels", no_table)
    t = elder_labeled_inputs(fig5a, "merge-tree")
    with pytest.raises(PreconditionError, match="unknown aggregation mode 'l3'"):
        distance(t, t, BP, "l3")


class TestOneDegree:
    def test_identical_bdts(self, fig5b):
        t = elder_labeled_inputs(fig5b, "bdt")
        assert one_degree_distance(t, t, BP, "sum") == 0.0

    def test_fig5_bc_hand_value(self, fig5b, fig5c):
        b = elder_labeled_inputs(fig5b, "bdt")
        c = elder_labeled_inputs(fig5c, "bdt")
        # roots (0,10)-(0,11): 1; children (5,8)-(6,8): 2
        assert one_degree_distance(b, c, BP, "sum") == pytest.approx(3.0)

    def test_fig5_ac_hand_value(self, fig5a, fig5c):
        a = elder_labeled_inputs(fig5a, "bdt")
        c = elder_labeled_inputs(fig5c, "bdt")
        assert one_degree_distance(a, c, BP, "sum") == pytest.approx(5.0)

    def test_fixed_penalty_vs_free(self, fig5b, fig5c):
        free = branch_mapping_distance(fig5b, fig5c, BP, "sum")[0]
        b = elder_labeled_inputs(fig5b, "bdt")
        c = elder_labeled_inputs(fig5c, "bdt")
        assert one_degree_distance(b, c, BP, "sum") == pytest.approx(3.0)
        assert free == pytest.approx(1.0)


class TestConstrained:
    def test_identical(self, fig5a):
        t = elder_labeled_inputs(fig5a, "merge-tree")
        assert constrained_edit_distance(t, t, BP, "sum") == 0.0

    def test_single_node_relabel(self):
        a = LabeledTree(parent=(-1,), labels=((3.0, 6.0),), root=0)
        b = LabeledTree(parent=(-1,), labels=((5.0, 8.0),), root=0)
        assert constrained_edit_distance(a, b, BP, "sum") == pytest.approx(2.0)

    def test_hierarchy_on_bdts_random(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            t1 = random_merge_tree(rng, max_leaves=6)
            t2 = random_merge_tree(rng, max_leaves=6)
            a1 = elder_labeled_inputs(t1, "bdt")
            a2 = elder_labeled_inputs(t2, "bdt")
            for kind in ("persistence", "euclidean"):
                m = BaseMetric(kind)
                dc = constrained_edit_distance(a1, a2, m, "sum")
                d1 = one_degree_distance(a1, a2, m, "sum")
                assert dc <= d1 + 1e-9


class TestSymmetryAndZero:
    @pytest.mark.parametrize("fn", [constrained_edit_distance, one_degree_distance])
    def test_symmetric_and_zero_on_identical(self, fn):
        rng = np.random.default_rng(44)
        for _ in range(25):
            t1 = random_merge_tree(rng, max_leaves=5, integer=True)
            t2 = random_merge_tree(rng, max_leaves=5, integer=True)
            a1 = elder_labeled_inputs(t1, "bdt")
            a2 = elder_labeled_inputs(t2, "bdt")
            assert fn(a1, a2, BP, "sum") == fn(a2, a1, BP, "sum")
            assert fn(a1, a1, BP, "sum") == 0.0


class TestAgainstBranchFixed:
    def test_two_branch_trees_agree(self):
        # on two-branch trees, the one-degree BDT recursion and the fixed
        # branch mapping DP explore the same two options
        rng = np.random.default_rng(55)
        done = 0
        while done < 20:
            t1 = random_merge_tree(rng, max_leaves=2)
            t2 = random_merge_tree(rng, max_leaves=2)
            if len(t1.leaves) != 2 or len(t2.leaves) != 2:
                continue
            done += 1
            d_fixed = branch_mapping_distance(
                t1, t2, BP, "sum",
                fixed=(elder_rule_decomposition(t1), elder_rule_decomposition(t2)),
            )[0]
            d1 = one_degree_distance(
                elder_labeled_inputs(t1, "bdt"), elder_labeled_inputs(t2, "bdt"), BP, "sum"
            )
            assert d_fixed == pytest.approx(d1, abs=1e-9)


BASELINES = [
    (constrained_edit_distance, reference_constrained_edit_distance),
    (one_degree_distance, reference_one_degree_distance),
]


def random_labeled_tree(rng, n):
    """A random rooted tree on ``n`` nodes with permuted ids and integer
    labels drawn from a small range, so costs tie often."""
    perm = rng.permutation(n)
    parent = [-1] * n
    labels = [None] * n
    for v in range(n):
        p = -1 if v == 0 else int(perm[int(rng.integers(0, v))])
        low = int(rng.integers(0, 4))
        parent[perm[v]] = p
        labels[perm[v]] = (float(low), float(low + rng.integers(1, 4)))
    return LabeledTree(parent=tuple(parent), labels=tuple(labels), root=int(perm[0]))


class TestAgainstReference:
    @pytest.mark.parametrize("fn, ref", BASELINES, ids=["constrained", "one-degree"])
    def test_random_labeled_trees(self, fn, ref):
        rng = np.random.default_rng(66)
        for _ in range(40):
            a = random_labeled_tree(rng, int(rng.integers(1, 16)))
            b = random_labeled_tree(rng, int(rng.integers(1, 16)))
            for kind in METRIC_NAMES:
                for mode in MODE_NAMES:
                    m = BaseMetric(kind)
                    assert fn(a, b, m, mode) == ref(a, b, m, mode)

    @pytest.mark.parametrize("fn, ref", BASELINES, ids=["constrained", "one-degree"])
    def test_elder_labeled_merge_trees(self, fn, ref):
        rng = np.random.default_rng(77)
        for _ in range(10):
            t1 = grow_merge_tree(rng, int(rng.integers(10, 40)), extra_child_prob=0.3)
            t2 = random_merge_tree(rng, max_leaves=8, max_children=4, integer=True)
            for target in ("bdt", "merge-tree"):
                a, b = elder_labeled_inputs(t1, target), elder_labeled_inputs(t2, target)
                for mode in MODE_NAMES:
                    assert fn(a, b, BP, mode) == ref(a, b, BP, mode)
                    assert fn(b, a, BP, mode) == ref(b, a, BP, mode)


def caterpillar(spine):
    """Root, ``spine`` saddles with one leaf each, two leaves at the bottom."""
    values, parent = [0.0], [-1]
    last = 0
    for k in range(spine):
        values += [1.0 + k, 5000.0 + k]
        parent += [last, len(values) - 2]
        last = len(values) - 2
    values.append(9000.0)
    parent.append(last)
    return MergeTree(values, parent)


@pytest.mark.parametrize("fn, ref", BASELINES, ids=["constrained", "one-degree"])
def test_deep_caterpillar(fn, ref, fig5a):
    # depth 601 is deeper than the default recursion limit allows the
    # recursive reference to go
    deep = elder_labeled_inputs(caterpillar(600), "merge-tree")
    small = elder_labeled_inputs(fig5a, "merge-tree")
    d12, d21 = fn(deep, small, BP, "sum"), fn(small, deep, BP, "l2")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        assert d12 == ref(deep, small, BP, "sum")
        assert d21 == ref(small, deep, BP, "l2")
    finally:
        sys.setrecursionlimit(limit)


def wide_labeled_tree(rng, n, hubs):
    """A random tree on ``n`` nodes whose first ``hubs`` nodes take 5 to 7
    children and every other inner node 1 to 3, with integer labels."""
    want = [int(rng.integers(5, 8)) if v < hubs else int(rng.integers(1, 4)) for v in range(n)]
    parent, free = [-1], [0]
    while len(parent) < n:
        p = free[int(rng.integers(0, min(len(free), hubs + 1)))]
        parent.append(p)
        free.append(len(parent) - 1)
        if sum(q == p for q in parent) == want[p]:
            free.remove(p)
    labels = []
    for _ in range(n):
        low = int(rng.integers(0, 4))
        labels.append((float(low), float(low + rng.integers(1, 4))))
    return LabeledTree(parent=tuple(parent), labels=tuple(labels), root=0)


@pytest.mark.parametrize("fn, ref", BASELINES, ids=["constrained", "one-degree"])
def test_wide_saddles_mix_batched_and_single_matchings(fn, ref):
    # saddles of 5-7 children next to ones of 1-3: one fill batches the
    # small matchings and solves the wider ones one by one
    rng = np.random.default_rng(88)
    for _ in range(12):
        a = wide_labeled_tree(rng, int(rng.integers(12, 30)), hubs=2)
        b = wide_labeled_tree(rng, int(rng.integers(12, 30)), hubs=1)
        degrees = [len(k) for k in a.children + b.children]
        assert max(degrees) >= 5 and 2 in degrees
        for kind in METRIC_NAMES:
            m = BaseMetric(kind)
            for mode in MODE_NAMES:
                assert fn(a, b, m, mode) == ref(a, b, m, mode)
                assert fn(b, a, m, mode) == ref(b, a, m, mode)
