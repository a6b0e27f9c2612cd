import numpy as np
import pytest

from mtdist import SizeLimitError, branch_mapping_distance, oracle_distance
from mtdist.metrics import BaseMetric
from conftest import random_merge_tree

BP = BaseMetric("birth-persistence")


def test_fig5_ac(fig5a, fig5c):
    assert oracle_distance(fig5a, fig5c, BP, "sum") == pytest.approx(5.0, abs=1e-9)


def test_self_distance(fig5b):
    assert oracle_distance(fig5b, fig5b, BP, "sum") == 0.0


def test_empty_sides(fig5a):
    pers = BaseMetric("persistence")
    assert oracle_distance(fig5a, None, pers, "sum") == pytest.approx(13.0)
    assert oracle_distance(None, fig5a, pers, "sum") == pytest.approx(13.0)
    assert oracle_distance(None, None, pers, "sum") == 0.0


def test_size_cap():
    rng = np.random.default_rng(1)
    t = random_merge_tree(rng, max_leaves=5)
    while len(t.leaves) < 3:
        t = random_merge_tree(rng, max_leaves=5)
    with pytest.raises(SizeLimitError):
        oracle_distance(t, t, BP, "sum", max_leaves=2)


def test_matches_dp_on_nonbinary_trees():
    # degree-3 saddles exercise the same-attachment ordering rules
    rng = np.random.default_rng(19)
    for _ in range(25):
        t1 = random_merge_tree(rng, max_leaves=5, max_children=3)
        t2 = random_merge_tree(rng, max_leaves=5, max_children=3)
        for mode in ("sum", "l2"):
            d = branch_mapping_distance(t1, t2, BP, mode)[0]
            o = oracle_distance(t1, t2, BP, mode)
            assert d == pytest.approx(o, abs=1e-9)


def test_fixed_mode_matches_per_decomposition_enumeration():
    from mtdist import enumerate_branch_decompositions
    from mtdist.oracle import _BdtView, _best_mapping, _label_terms

    rng = np.random.default_rng(29)
    for _ in range(20):
        t1 = random_merge_tree(rng, max_leaves=5, max_children=3)
        t2 = random_merge_tree(rng, max_leaves=5, max_children=3)
        decs1 = enumerate_branch_decompositions(t1)
        decs2 = enumerate_branch_decompositions(t2)
        d1 = decs1[int(rng.integers(0, len(decs1)))]
        d2 = decs2[int(rng.integers(0, len(decs2)))]
        fixed = branch_mapping_distance(t1, t2, BP, "sum", fixed=(d1, d2))[0]

        pairs, dels1, dels2 = _label_terms(t1, t2, BP, False)
        enumerated = _best_mapping(_BdtView(t1, d1, dels1), _BdtView(t2, d2, dels2), pairs)
        assert fixed == pytest.approx(enumerated, abs=1e-9)
