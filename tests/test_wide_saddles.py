"""Every DP fill against its reference copy on saddles of WIDE to WIDE + 3 children.

Matchings of at most ``WIDE`` columns are costed by the batched mask kernel
in the fills and one at a time in the references; wider ones go to the
Hungarian method in both. The trees here give instances on both sides of
that boundary, and every result must still equal its reference exactly.
"""

import numpy as np
import pytest

import mtdist.mapping as mapping_module
import mtdist.matching as matching_module
from mtdist import MergeTree
from mtdist.baselines import constrained_edit_distance, elder_labeled_inputs, one_degree_distance
from mtdist.branches import elder_rule_decomposition
from mtdist.matching import WIDE
from mtdist.metrics import METRIC_NAMES, MODE_NAMES, BaseMetric
from reference_baselines import reference_constrained_edit_distance, reference_one_degree_distance
from test_fixed_mode import assert_same_as_reference as assert_same_as_fixed_reference
from test_free_engine import assert_same_as_reference


def wide_saddle_tree(rng, degrees):
    """Root, then a chain of saddles with ``degrees`` children each, the
    next saddle being the first child of the previous one. About a third
    of the other children are binary saddles. Values grow by 1 to 3, so
    they tie often."""
    values, parent = [0.0], [-1]

    def add(p):
        values.append(values[p] + float(rng.integers(1, 4)))
        parent.append(p)
        return len(values) - 1

    at = add(0)
    for deg in degrees:
        kids = [add(at) for _ in range(deg)]
        for c in kids[1:]:
            if rng.random() < 0.3:
                add(c), add(c)
        at = kids[0]
    return MergeTree(values, parent)


def pairs():
    """Tree 1 with saddles of WIDE to WIDE + 2 children, tree 2 with WIDE + 1
    to WIDE + 3, so that the free and fixed fills, whose instances leave one
    child of each saddle out, and the baselines, which match all of them,
    all meet instances of WIDE and WIDE + 1 columns."""
    rng = np.random.default_rng(2024)
    for _ in range(2):
        t1 = wide_saddle_tree(rng, rng.permutation([WIDE, WIDE + 1, WIDE + 2]).tolist())
        t2 = wide_saddle_tree(rng, rng.permutation([WIDE + 1, WIDE + 2, WIDE + 3]).tolist())
        yield t1, t2


@pytest.fixture
def columns(monkeypatch):
    """Column counts of the instances costed by the mask kernel and by the
    Hungarian method, recorded as they happen."""
    seen = {"mask": set(), "hungarian": set()}
    mask_dp, single = matching_module._mask_dp, matching_module.min_cost_matching

    def spy_mask_dp(X, I, keep=False):
        seen["mask"].add(X.shape[1] - 1)
        return mask_dp(X, I, keep)

    def spy_single(P, dels, inss, want_pairs=False):
        if len(inss) > WIDE:
            seen["hungarian"].add(len(inss))
        return single(P, dels, inss, want_pairs)

    monkeypatch.setattr(matching_module, "_mask_dp", spy_mask_dp)
    monkeypatch.setattr(matching_module, "min_cost_matching", spy_single)
    monkeypatch.setattr(mapping_module, "_assignment", spy_single)
    return seen


def assert_both_sides_of_wide(columns):
    assert WIDE in columns["mask"] and max(columns["mask"]) == WIDE
    assert WIDE + 1 in columns["hungarian"]


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_free_engine(columns, mode):
    for t1, t2 in pairs():
        for kind in METRIC_NAMES:
            assert_same_as_reference(t1, t2, BaseMetric(kind), mode)
            assert_same_as_reference(t2, t1, BaseMetric(kind), mode)
    assert_both_sides_of_wide(columns)


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_fixed_mode(columns, mode):
    for t1, t2 in pairs():
        for a, b in ((t1, t2), (t2, t1)):
            fixed = (elder_rule_decomposition(a), elder_rule_decomposition(b))
            for kind in METRIC_NAMES:
                assert_same_as_fixed_reference(a, b, BaseMetric(kind), mode, fixed)
    assert_both_sides_of_wide(columns)


@pytest.mark.parametrize(
    "fn, ref",
    [
        (constrained_edit_distance, reference_constrained_edit_distance),
        (one_degree_distance, reference_one_degree_distance),
    ],
    ids=["constrained", "one-degree"],
)
def test_baselines(columns, fn, ref):
    for t1, t2 in pairs():
        for target in ("merge-tree", "bdt"):
            a, b = elder_labeled_inputs(t1, target), elder_labeled_inputs(t2, target)
            for kind in METRIC_NAMES:
                for mode in MODE_NAMES:
                    m = BaseMetric(kind)
                    assert fn(a, b, m, mode) == ref(a, b, m, mode)
                    assert fn(b, a, m, mode) == ref(b, a, m, mode)
    assert_both_sides_of_wide(columns)
