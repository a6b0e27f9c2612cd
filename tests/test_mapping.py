import dataclasses
import gc
import json
import re
import tracemalloc

import numpy as np
import pytest

import mtdist.mapping as mapping_module
from mtdist import (
    MergeTree,
    PreconditionError,
    SizeLimitError,
    branch_mapping_distance,
    constrained_edit_distance,
    delete_tree_cost,
    elder_labeled_inputs,
    elder_rule_decomposition,
    enumerate_branch_decompositions,
    induced_node_mapping,
    validate_branch_mapping,
)
from mtdist.mapping import BranchMapping, MemoStats
from mtdist.metrics import BaseMetric, aggregate
from conftest import caterpillar, grow_merge_tree, nested_tree, random_merge_tree
from reference_validation import reference_validate_branch_mapping

BP = BaseMetric("birth-persistence")
PERS = BaseMetric("persistence")


def pair_labels(mapping):
    return sorted((a.label, b.label) for a, b in mapping.pairs)


class TestFig5:
    def test_distances_and_pairs(self, fig5a, fig5b, fig5c):
        d_ab, m_ab = branch_mapping_distance(fig5a, fig5b, BP, "sum")
        d_bc, m_bc = branch_mapping_distance(fig5b, fig5c, BP, "sum")
        d_ac, m_ac = branch_mapping_distance(fig5a, fig5c, BP, "sum")
        assert d_ab == pytest.approx(2.0, abs=1e-9)
        assert d_bc == pytest.approx(1.0, abs=1e-9)
        assert d_ac == pytest.approx(5.0, abs=1e-9)
        assert pair_labels(m_ab) == [((0.0, 10.0), (0.0, 10.0)), ((3.0, 6.0), (5.0, 8.0))]
        assert pair_labels(m_bc) == [((0.0, 8.0), (0.0, 8.0)), ((5.0, 10.0), (6.0, 11.0))]
        assert pair_labels(m_ac) == [((0.0, 10.0), (0.0, 11.0)), ((3.0, 6.0), (6.0, 8.0))]

    def test_triangle_violation_witness(self, fig5a, fig5b, fig5c):
        d_ab = branch_mapping_distance(fig5a, fig5b, BP, "sum")[0]
        d_bc = branch_mapping_distance(fig5b, fig5c, BP, "sum")[0]
        d_ac = branch_mapping_distance(fig5a, fig5c, BP, "sum")[0]
        assert d_ac > d_ab + d_bc

    def test_self_distance_zero(self, fig5a):
        d, mapping = branch_mapping_distance(fig5a, fig5a, BP, "sum")
        assert d == 0.0
        assert not mapping.deletions and not mapping.insertions


class TestFig3:
    def test_branch_based_cost_is_two(self, two_peak_asymmetric, two_peak_flat):
        d, mapping = branch_mapping_distance(two_peak_asymmetric, two_peak_flat, PERS, "sum")
        assert d == pytest.approx(2.0, abs=1e-9)
        deleted = [b.label for b in mapping.deletions]
        assert deleted == [(9.0, 11.0)]


class TestDeleteTree:
    def test_single_branch(self):
        tree = MergeTree([0.0, 10.0], [-1, 0])
        assert delete_tree_cost(tree, PERS, "sum") == 10.0

    def test_fig5a(self, fig5a):
        assert delete_tree_cost(fig5a, PERS, "sum") == pytest.approx(13.0)

    def test_empty(self):
        assert delete_tree_cost(None, PERS, "sum") == 0.0

    def test_matches_one_sided_mapping(self, fig5c):
        d, mapping = branch_mapping_distance(fig5c, None, PERS, "sum")
        assert d == delete_tree_cost(fig5c, PERS, "sum")
        assert validate_branch_mapping(mapping).ok
        assert not mapping.pairs and not mapping.insertions

    def test_invariance_across_decompositions(self):
        # total persistence does not depend on the decomposition
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = random_merge_tree(rng, max_leaves=6)
            want = delete_tree_cost(t, PERS, "sum")
            for dec in enumerate_branch_decompositions(t):
                total = sum(b.persistence for b in dec.branches)
                assert total == pytest.approx(want, abs=1e-9)

    def test_deep_caterpillar(self):
        tree = caterpillar()
        values, parent = tree.values.tolist(), tree.parent.tolist()
        assert (len(tree), tree.depth) == (3002, 1501)
        edges = sum(values[v] - values[parent[v]] for v in range(1, len(values)))
        assert delete_tree_cost(tree, PERS, "sum") == pytest.approx(edges)
        d, mapping = branch_mapping_distance(None, tree, PERS, "l2")
        assert validate_branch_mapping(mapping).ok
        assert len(mapping.insertions) == len(tree.leaves)
        assert d == pytest.approx(np.sqrt(sum(b.persistence ** 2 for b in mapping.insertions)))

    def test_deep_caterpillar_fixed(self):
        tree = caterpillar()
        small = MergeTree([0.0, 3.0, 7.0, 5.0], [-1, 0, 1, 1])
        fixed = (elder_rule_decomposition(tree), elder_rule_decomposition(small))
        d, mapping = branch_mapping_distance(tree, small, PERS, "sum", fixed=fixed)
        assert validate_branch_mapping(mapping).ok
        assert mapping.decomposition1 is fixed[0]
        assert len(mapping.pairs) + len(mapping.deletions) == len(tree.leaves)
        d, mapping = branch_mapping_distance(tree, None, PERS, "l2", fixed=fixed)
        assert validate_branch_mapping(mapping).ok
        assert mapping.deletions == fixed[0].branches
        assert d == pytest.approx(np.sqrt(sum(b.persistence ** 2 for b in fixed[0].branches)))


class TestBranchIdentity:
    """A mapping's branches are its decompositions' own objects, so a kept
    mapping holds no second copy of them."""

    @staticmethod
    def assert_shared(mapping):
        decs = (mapping.decomposition1, mapping.decomposition2)
        for a, b in mapping.pairs:
            assert a is decs[0].branch_of_leaf(a.leaf)
            assert b is decs[1].branch_of_leaf(b.leaf)
        for dec, branches in zip(decs, (mapping.deletions, mapping.insertions)):
            for b in branches:
                assert b is dec.branch_of_leaf(b.leaf)

    def test_free_fixed_and_one_sided(self):
        rng = np.random.default_rng(21)
        t1 = grow_merge_tree(rng, 40, extra_child_prob=0.3)
        t2 = grow_merge_tree(rng, 30, extra_child_prob=0.3)
        fixed = (elder_rule_decomposition(t1), elder_rule_decomposition(t2))
        mappings = [
            branch_mapping_distance(t1, t2, BP, "sum")[1],
            branch_mapping_distance(t1, t2, BP, "sum", fixed=fixed)[1],
            branch_mapping_distance(t1, None, BP, "sum")[1],
            branch_mapping_distance(None, t2, BP, "sum", fixed=fixed)[1],
        ]
        assert mappings[0].pairs and mappings[0].deletions and mappings[0].insertions
        assert mappings[1].decomposition1 is fixed[0] and mappings[1].pairs
        assert mappings[2].deletions and mappings[3].insertions
        for mapping in mappings:
            self.assert_shared(mapping)


class TestReferenceCycles:
    def test_free_call_leaves_no_garbage(self):
        rng = np.random.default_rng(3)
        t1 = grow_merge_tree(rng, 60, extra_child_prob=0.3)
        t2 = grow_merge_tree(rng, 60, extra_child_prob=0.3)
        assert max(map(len, t1.children)) >= 3 and max(map(len, t2.children)) >= 3
        gc.collect()
        gc.disable()
        try:
            branch_mapping_distance(t1, t2, BaseMetric("euclidean"), "l2")
            branch_mapping_distance(t1, None, BaseMetric("euclidean"), "l2")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_fixed_call_leaves_no_garbage(self):
        rng = np.random.default_rng(3)
        t1 = grow_merge_tree(rng, 60, extra_child_prob=0.3)
        t2 = grow_merge_tree(rng, 60, extra_child_prob=0.3)
        fixed = (elder_rule_decomposition(t1), elder_rule_decomposition(t2))
        gc.collect()
        gc.disable()
        try:
            branch_mapping_distance(t1, t2, BaseMetric("euclidean"), "l2", fixed=fixed)
            branch_mapping_distance(None, t2, BaseMetric("euclidean"), "l2", fixed=fixed)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestValidate:
    def test_dp_output_validates(self, fig5a, fig5b):
        _, mapping = branch_mapping_distance(fig5a, fig5b, BP, "sum")
        assert validate_branch_mapping(mapping).ok

    def test_missing_main_pair(self, fig5a, fig5b):
        _, good = branch_mapping_distance(fig5a, fig5b, BP, "sum")
        side_pair = next(
            (a, b) for a, b in good.pairs if a != good.decomposition1.main
        )
        costs = [BP.pair(*side_pair[0].label, *side_pair[1].label),
                 BP.deletion(*good.decomposition1.main.label),
                 BP.deletion(*good.decomposition2.main.label)]
        broken = BranchMapping(
            tree1=good.tree1,
            tree2=good.tree2,
            decomposition1=good.decomposition1,
            decomposition2=good.decomposition2,
            pairs=(side_pair,),
            pair_costs=(costs[0],),
            deletions=(good.decomposition1.main,),
            insertions=(good.decomposition2.main,),
            total_cost=aggregate(costs, "sum"),
            metric=BP,
            mode="sum",
            stats=good.stats,
        )
        report = validate_branch_mapping(broken)
        assert not report.ok
        assert any("condition 2" in v for v in report.violations)

    def test_crossed_attachment_order(self):
        # three siblings attached at distinct saddles of the main branch
        t1 = nested_tree((0, [(1, [(2, [(3, [(20, []), (12, [])]), (11, [])]), (10, [])])]))
        t2 = nested_tree((0, [(1, [(2, [(3, [(20, []), (12, [])]), (11, [])]), (10, [])])]))
        d, good = branch_mapping_distance(t1, t2, BP, "sum")
        assert d == 0.0

        dec1 = good.decomposition1
        dec2 = good.decomposition2
        by_label1 = {b.label: b for b in dec1.branches}
        by_label2 = {b.label: b for b in dec2.branches}
        crossed = []
        for a, b in good.pairs:
            if a.label == (1.0, 10.0):
                crossed.append((a, by_label2[(3.0, 12.0)]))
            elif a.label == (3.0, 12.0):
                crossed.append((a, by_label2[(1.0, 10.0)]))
            else:
                crossed.append((a, b))
        costs = [BP.pair(*a.label, *b.label) for a, b in crossed]
        broken = BranchMapping(
            tree1=t1,
            tree2=t2,
            decomposition1=dec1,
            decomposition2=dec2,
            pairs=tuple(crossed),
            pair_costs=tuple(costs),
            deletions=(),
            insertions=(),
            total_cost=aggregate(costs, "sum"),
            metric=BP,
            mode="sum",
            stats=good.stats,
        )
        report = validate_branch_mapping(broken)
        assert not report.ok
        assert any("condition 4" in v for v in report.violations)


class TestValidateAgainstReference:
    """Condition 4 by preorder intervals against the parent-chain walks of
    ``reference_validation.py``: the same violations in the same order."""

    @staticmethod
    def swap_tree2_sides(mapping, i, j):
        pairs = list(mapping.pairs)
        (a, b), (a2, b2) = pairs[i], pairs[j]
        pairs[i], pairs[j] = (a, b2), (a2, b)
        costs = tuple(mapping.metric.pair(*x.label, *y.label) for x, y in pairs)
        broken = dataclasses.replace(mapping, pairs=tuple(pairs), pair_costs=costs)
        return dataclasses.replace(broken, total_cost=aggregate(broken.edit_costs(), broken.mode))

    def test_same_reports_as_reference(self):
        rng = np.random.default_rng(23)
        crossed = 0
        for _ in range(30):
            t1 = grow_merge_tree(rng, int(rng.integers(4, 40)))
            t2 = grow_merge_tree(rng, int(rng.integers(4, 40)))
            for metric, fixed in ((BP, None), (PERS, None), (BP, "elder")):
                dec = None
                if fixed:
                    dec = (elder_rule_decomposition(t1), elder_rule_decomposition(t2))
                _, good = branch_mapping_distance(t1, t2, metric, "sum", fixed=dec)
                report = validate_branch_mapping(good)
                assert report.ok
                assert report == reference_validate_branch_mapping(good)
                k = len(good.pairs)
                for _ in range(4 if k > 1 else 0):
                    i, j = sorted(rng.choice(k, 2, replace=False))
                    broken = self.swap_tree2_sides(good, i, j)
                    report = validate_branch_mapping(broken)
                    assert report == reference_validate_branch_mapping(broken)
                    crossed += any("condition 4" in v for v in report.violations)
        assert crossed > 20


class TestTamperedMappings:
    """The violations the dynamic program never produces, on tampered copies
    of one of its mappings: reported as ``reference_validation.py`` reports
    them, and refused by ``induced_node_mapping``."""

    TAMPER = {
        "condition 1 (one-to-one) violated": lambda m: dataclasses.replace(
            m, pairs=m.pairs + m.pairs[-1:], pair_costs=m.pair_costs + m.pair_costs[-1:]
        ),
        "mapping lacks its decompositions": lambda m: dataclasses.replace(m, decomposition1=None),
        "pairs plus deletions do not cover decomposition 1": lambda m: dataclasses.replace(
            m, deletions=m.deletions[1:]
        ),
        "pairs plus insertions do not cover decomposition 2": lambda m: dataclasses.replace(
            m, insertions=m.insertions[1:]
        ),
        "total cost does not match the aggregated edit costs": lambda m: dataclasses.replace(
            m, total_cost=m.total_cost + 0.5
        ),
    }

    @pytest.mark.parametrize("violation", list(TAMPER))
    def test_violation_is_reported_and_refused(self, violation):
        rng = np.random.default_rng(5)
        t1, t2 = grow_merge_tree(rng, 9), grow_merge_tree(rng, 9)
        _, good = branch_mapping_distance(t1, t2, BP, "sum")
        assert good.deletions and good.insertions
        broken = self.TAMPER[violation](good)
        report = validate_branch_mapping(broken)
        assert violation in report.violations
        assert report == reference_validate_branch_mapping(broken)
        with pytest.raises(PreconditionError, match="^mapping fails validation: .*" + re.escape(violation)):
            induced_node_mapping(broken)


class TestInducedNodeMapping:
    def test_fig5_ac_endpoints(self, fig5a, fig5c):
        _, mapping = branch_mapping_distance(fig5a, fig5c, BP, "sum")
        nodes = set(induced_node_mapping(mapping))
        # (0,10)<->(0,11): roots and top leaves; (3,6)<->(6,8): saddles and leaves
        assert nodes == {(0, 0), (2, 2), (1, 1), (3, 3)}

    def test_identity(self, two_peak_asymmetric):
        _, mapping = branch_mapping_distance(
            two_peak_asymmetric, two_peak_asymmetric, BP, "sum"
        )
        nodes = induced_node_mapping(mapping)
        assert all(a == b for a, b in nodes)

    def test_deletions_contribute_nothing(self, two_peak_asymmetric, two_peak_flat):
        _, mapping = branch_mapping_distance(two_peak_asymmetric, two_peak_flat, PERS, "sum")
        nodes = induced_node_mapping(mapping)
        mapped_t1 = {a for a, _ in nodes}
        deleted_leaf = mapping.deletions[0].leaf
        assert deleted_leaf not in mapped_t1

    def test_one_to_one_and_ancestor_preserving_random(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            t1 = random_merge_tree(rng, max_leaves=6)
            t2 = random_merge_tree(rng, max_leaves=6)
            _, mapping = branch_mapping_distance(t1, t2, BP, "sum")
            nodes = induced_node_mapping(mapping)
            firsts = [a for a, _ in nodes]
            seconds = [b for _, b in nodes]
            assert len(set(firsts)) == len(firsts)
            assert len(set(seconds)) == len(seconds)
            anc1 = {v: set(t1.ancestors(v)) for v in firsts}
            for (a, b) in nodes:
                for (a2, b2) in nodes:
                    if a2 in anc1[a]:
                        assert b2 in t2.ancestors(b)


class TestModesAndFixed:
    def test_l2_runs_on_squared_costs(self, fig5a, fig5c):
        d, mapping = branch_mapping_distance(fig5a, fig5c, BP, "l2")
        # under squared costs, deleting (3,6) and inserting (6,8) beats the
        # sum-optimal relabel: 3^2 + 2^2 < 4^2
        assert d == pytest.approx(np.sqrt(1.0 + 9.0 + 4.0), abs=1e-9)
        assert [b.label for b in mapping.deletions] == [(3.0, 6.0)]
        assert [b.label for b in mapping.insertions] == [(6.0, 8.0)]
        assert aggregate(mapping.edit_costs(), "l2") == pytest.approx(d, abs=1e-9)

    def test_fixed_equals_free_on_unique_decompositions(self):
        t1 = MergeTree([0.0, 10.0], [-1, 0])
        t2 = MergeTree([2.0, 7.0], [-1, 0])
        free = branch_mapping_distance(t1, t2, BP, "sum")[0]
        fixed = branch_mapping_distance(
            t1, t2, BP, "sum",
            fixed=(elder_rule_decomposition(t1), elder_rule_decomposition(t2)),
        )[0]
        assert free == fixed

    def test_free_never_exceeds_fixed(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            t1 = random_merge_tree(rng, max_leaves=6)
            t2 = random_merge_tree(rng, max_leaves=6)
            free = branch_mapping_distance(t1, t2, BP, "sum")[0]
            for d1 in enumerate_branch_decompositions(t1)[:3]:
                for d2 in enumerate_branch_decompositions(t2)[:3]:
                    fixed = branch_mapping_distance(t1, t2, BP, "sum", fixed=(d1, d2))[0]
                    assert free <= fixed + 1e-9

    def test_fixed_mapping_respects_decomposition(self, fig5a, fig5c):
        dec1 = elder_rule_decomposition(fig5a)
        dec2 = elder_rule_decomposition(fig5c)
        d, mapping = branch_mapping_distance(fig5a, fig5c, BP, "sum", fixed=(dec1, dec2))
        assert mapping.decomposition1 is dec1
        assert mapping.decomposition2 is dec2
        assert validate_branch_mapping(mapping).ok

    @pytest.mark.parametrize("fixed", [False, True])
    def test_unknown_mode_rejected_before_any_table(self, monkeypatch, fig5a, fixed):
        def no_table(*args):
            raise AssertionError("a table was built for an unknown mode")

        monkeypatch.setattr(mapping_module, "_Flat", no_table)
        monkeypatch.setattr(mapping_module, "_Fixed", no_table)
        decs = (elder_rule_decomposition(fig5a),) * 2 if fixed else None
        with pytest.raises(PreconditionError, match="unknown aggregation mode 'l3'"):
            branch_mapping_distance(fig5a, fig5a, BP, "l3", fixed=decs)

    def test_fixed_accepts_decomposition_of_an_equal_tree(self, fig5a):
        twin = MergeTree(fig5a.values, fig5a.parent)
        dec = elder_rule_decomposition(twin)
        d, mapping = branch_mapping_distance(fig5a, twin, BP, "sum", fixed=(dec, dec))
        assert d == 0.0
        assert mapping.decomposition1 is dec

    def test_fixed_rejects_foreign_decomposition(self, fig5a, fig5b, fig5c):
        dec_b = elder_rule_decomposition(fig5b)
        dec_c = elder_rule_decomposition(fig5c)
        with pytest.raises(PreconditionError):
            branch_mapping_distance(fig5a, fig5c, BP, "sum", fixed=(dec_b, dec_c))

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            t1 = random_merge_tree(rng, max_leaves=6, integer=True)
            t2 = random_merge_tree(rng, max_leaves=6, integer=True)
            for kind in ("persistence", "birth-persistence", "linf"):
                m = BaseMetric(kind)
                assert (
                    branch_mapping_distance(t1, t2, m, "sum")[0]
                    == branch_mapping_distance(t2, t1, m, "sum")[0]
                )
            m = BaseMetric("euclidean")
            assert branch_mapping_distance(t1, t2, m, "sum")[0] == pytest.approx(
                branch_mapping_distance(t2, t1, m, "sum")[0], abs=1e-12
            )


class TestCostDecomposition:
    """Restriction of an optimal mapping to a matched subtree pair accounts
    for exactly its share of the total cost (sum aggregation)."""

    def test_split_additivity_random(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 15:
            t1 = random_merge_tree(rng, max_leaves=6)
            t2 = random_merge_tree(rng, max_leaves=6)
            d, mapping = branch_mapping_distance(t1, t2, BP, "sum")
            non_main = [
                (a, b)
                for a, b in mapping.pairs
                if a != mapping.decomposition1.main
            ]
            if not non_main:
                continue
            checked += 1
            a0, b0 = non_main[0]
            inside1 = set(t1.subtree_nodes(a0.vertex_sequence(t1)[1]))
            inside2 = set(t2.subtree_nodes(b0.vertex_sequence(t2)[1]))
            part = 0.0
            rest = 0.0
            for (a, b), c in zip(mapping.pairs, mapping.pair_costs):
                if a.leaf in inside1:
                    assert b.leaf in inside2  # no straddling
                    part += c
                else:
                    assert b.leaf not in inside2
                    rest += c
            for b in mapping.deletions:
                if b.leaf in inside1:
                    part += BP.deletion(*b.label)
                else:
                    rest += BP.deletion(*b.label)
            for b in mapping.insertions:
                if b.leaf in inside2:
                    part += BP.deletion(*b.label)
                else:
                    rest += BP.deletion(*b.label)
            assert part + rest == pytest.approx(d, abs=1e-9)


class TestMemoStats:
    def test_key_bound(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            t1 = random_merge_tree(rng, max_leaves=7)
            t2 = random_merge_tree(rng, max_leaves=7)
            _, mapping = branch_mapping_distance(t1, t2, BP, "sum")
            assert mapping.stats.keys <= mapping.stats.bound

    def test_fixed_mode_counts_one_state_per_node(self):
        rng = np.random.default_rng(14)
        t1 = random_merge_tree(rng, max_leaves=7)
        t2 = random_merge_tree(rng, max_leaves=7)
        fixed = (elder_rule_decomposition(t1), elder_rule_decomposition(t2))
        _, mapping = branch_mapping_distance(t1, t2, BP, "sum", fixed=fixed)
        assert mapping.stats.keys == (len(t1) - 1) * (len(t2) - 1)
        assert mapping.stats.null_keys == len(t1) + len(t2) - 2
        _, mapping = branch_mapping_distance(t1, None, BP, "sum", fixed=fixed)
        assert mapping.stats == MemoStats(keys=0, null_keys=len(t1) - 1, bound=0)
        tree = caterpillar()
        fixed = (None, elder_rule_decomposition(tree))
        _, mapping = branch_mapping_distance(None, tree, BP, "sum", fixed=fixed)
        assert mapping.stats.null_keys == 3001


class TestExport:
    def test_json_schema(self, fig5a, fig5c):
        _, mapping = branch_mapping_distance(fig5a, fig5c, BP, "sum")
        doc = mapping.to_json_dict()
        assert set(doc) == {"metric", "mode", "totalCost", "pairs", "deletions", "insertions"}
        assert doc["totalCost"] == 5.0
        assert {p["t1Start"] for p in doc["pairs"]} <= set(range(len(fig5a)))
        text = json.dumps(doc)
        assert json.loads(text) == doc


class TestTableLimit:
    """A free table over the limit is refused before any layout or table."""

    @staticmethod
    def table_bytes(t1, t2):
        return (sum(t1.depths) + 1) * (sum(t2.depths) + 1) * 8

    def test_caterpillar_pair_is_refused(self):
        if mapping_module._TABLE_LIMIT is None:
            pytest.skip("os.sysconf cannot tell the physical memory here")
        tree = caterpillar()
        assert self.table_bytes(tree, tree) > mapping_module._TABLE_LIMIT  # about 37 TiB
        with pytest.raises(SizeLimitError, match="half the physical memory"):
            branch_mapping_distance(tree, tree, BP, "sum")

    def test_refusal_comes_before_any_table(self, monkeypatch):
        rng = np.random.default_rng(5)
        t1, t2 = grow_merge_tree(rng, 150), grow_merge_tree(rng, 150)
        need = self.table_bytes(t1, t2)
        monkeypatch.setattr(mapping_module, "_TABLE_LIMIT", need // 100)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError):
                branch_mapping_distance(t1, t2, BP, "sum")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert need > 5_000_000 and peak < need / 100

    def test_pair_at_the_limit_runs(self, monkeypatch):
        rng = np.random.default_rng(6)
        t1, t2 = random_merge_tree(rng), random_merge_tree(rng)
        fixed = (elder_rule_decomposition(t1), elder_rule_decomposition(t2))
        a, b = (elder_labeled_inputs(t, "merge-tree") for t in (t1, t2))
        # each table is held to its own estimate: the free table's, one per
        # node pair in fixed mode, and the baseline's with its pad row and column
        runs = [
            (self.table_bytes(t1, t2), lambda: branch_mapping_distance(t1, t2, BP, "sum")[0]),
            (len(t1) * len(t2) * 40, lambda: branch_mapping_distance(t1, t2, BP, "sum", fixed=fixed)[0]),
            ((len(a) + 1) * (len(b) + 1) * 48, lambda: constrained_edit_distance(a, b, BP, "sum")),
        ]
        for limit, run in runs:
            want = run()
            monkeypatch.setattr(mapping_module, "_TABLE_LIMIT", limit)
            assert run() == want
            monkeypatch.undo()

    @pytest.mark.parametrize("distance", ["branch-fixed", "constrained"])
    def test_fixed_and_baseline_tables_refused_before_any_table(self, monkeypatch, distance):
        rng = np.random.default_rng(7)
        t1, t2 = grow_merge_tree(rng, 400), grow_merge_tree(rng, 400)
        if distance == "branch-fixed":
            fixed = (elder_rule_decomposition(t1), elder_rule_decomposition(t2))
            need = len(t1) * len(t2) * 40
            run = lambda: branch_mapping_distance(t1, t2, BP, "sum", fixed=fixed)  # noqa: E731
        else:
            a, b = (elder_labeled_inputs(t, "merge-tree") for t in (t1, t2))
            need = (len(a) + 1) * (len(b) + 1) * 48
            run = lambda: constrained_edit_distance(a, b, BP, "sum")  # noqa: E731
        monkeypatch.setattr(mapping_module, "_TABLE_LIMIT", need // 100)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="half the physical memory"):
                run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert need > 5_000_000 and peak < need / 100


@pytest.mark.parametrize("kind", ["persistence", "birth-persistence", "euclidean", "linf"])
def test_pair_costs_equal_scalar_calls(kind):
    # one broadcast call per mapping, the same bits as one scalar call per pair
    metric = BaseMetric(kind)
    rng = np.random.default_rng(41)
    for n1, n2 in ((2, 30), (40, 60), (90, 90)):
        for fixed in (False, True):
            t1, t2 = grow_merge_tree(rng, n1, 0.2), grow_merge_tree(rng, n2, 0.2)
            decs = (elder_rule_decomposition(t1), elder_rule_decomposition(t2)) if fixed else None
            _, mapping = branch_mapping_distance(t1, t2, metric, "sum", fixed=decs)
            scalar = tuple(metric.pair(a.low, a.high, b.low, b.high) for a, b in mapping.pairs)
            assert mapping.pair_costs == scalar
            assert all(type(c) is float for c in mapping.pair_costs)
            assert len(mapping.pair_costs) == len(mapping.pairs) >= 1
