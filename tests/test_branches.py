import numpy as np
import pytest

from mtdist import (
    BranchDecomposition,
    MergeTree,
    PreconditionError,
    SizeLimitError,
    build_bdt,
    count_branch_decompositions,
    elder_rule_decomposition,
    enumerate_branch_decompositions,
)
from conftest import nested_tree, random_merge_tree


def branch_labels(dec):
    return sorted(b.label for b in dec.branches)


def edges_of(dec):
    out = []
    for b in dec.branches:
        out.extend(b.edges(dec.tree))
    return out


class TestEnumerate:
    def test_single_branch(self):
        tree = MergeTree([0.0, 10.0], [-1, 0])
        decs = enumerate_branch_decompositions(tree)
        assert len(decs) == 1
        assert branch_labels(decs[0]) == [(0.0, 10.0)]

    def test_fig5a_two_decompositions(self, fig5a):
        decs = enumerate_branch_decompositions(fig5a)
        assert len(decs) == 2
        labels = sorted(branch_labels(d) for d in decs)
        assert labels == [
            [(0.0, 6.0), (3.0, 10.0)],
            [(0.0, 10.0), (3.0, 6.0)],
        ]

    def test_binary_three_inner_gives_eight(self):
        tree = nested_tree(
            (0, [(1, [(2, [(5, []), (6, [])]), (3, [(7, []), (8, [])])])])
        )
        assert count_branch_decompositions(tree) == 8
        assert len(enumerate_branch_decompositions(tree)) == 8

    def test_count_matches_product(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = random_merge_tree(rng, max_leaves=6)
            decs = enumerate_branch_decompositions(t)
            assert len(decs) == count_branch_decompositions(t)
            # all distinct
            assert len({d.branches for d in decs}) == len(decs)

    def test_cap(self):
        rng = np.random.default_rng(5)
        t = random_merge_tree(rng, max_leaves=6)
        while len(t.leaves) < 3:
            t = random_merge_tree(rng, max_leaves=6)
        with pytest.raises(SizeLimitError):
            enumerate_branch_decompositions(t, max_leaves=2)

    def test_partition_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            t = random_merge_tree(rng, max_leaves=6)
            for dec in enumerate_branch_decompositions(t):
                edges = edges_of(dec)
                assert len(edges) == len(set(edges)) == len(t) - 1


class TestElderRule:
    def test_fig5a(self, fig5a):
        dec = elder_rule_decomposition(fig5a)
        assert dec.main.label == (0.0, 10.0)
        assert branch_labels(dec) == [(0.0, 10.0), (3.0, 6.0)]

    def test_single_branch(self):
        tree = MergeTree([0.0, 10.0], [-1, 0])
        dec = elder_rule_decomposition(tree)
        assert dec.main.label == (0.0, 10.0)

    def test_fig5c_highest_leaf_continues(self, fig5c):
        dec = elder_rule_decomposition(fig5c)
        assert branch_labels(dec) == [(0.0, 11.0), (6.0, 8.0)]
        # cross-check: elder equals the max-persistence-main choice among all
        decs = enumerate_branch_decompositions(fig5c)
        best = max(decs, key=lambda d: d.main.persistence)
        assert dec.branches == best.branches

    def test_elder_among_enumerated(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            t = random_merge_tree(rng, max_leaves=6)
            elder = elder_rule_decomposition(t)
            all_sets = {d.branches for d in enumerate_branch_decompositions(t)}
            assert elder.branches in all_sets

    def test_tie_breaks_to_smallest_id(self, two_peak_flat):
        dec = elder_rule_decomposition(two_peak_flat)
        # leaves 2 and 3 share value 12; node 2 wins the main branch
        assert dec.main.leaf == 2


class TestBDT:
    def test_fig5a_bdt(self, fig5a):
        dec = elder_rule_decomposition(fig5a)
        bdt = build_bdt(dec)
        assert len(bdt) == 2
        root_branch = bdt.branches[bdt.root]
        assert root_branch.label == (0.0, 10.0)
        (child,) = [i for i in range(len(bdt)) if i != bdt.root]
        assert bdt.parent[child] == bdt.root

    def test_single_vertex_bdt(self):
        tree = MergeTree([0.0, 10.0], [-1, 0])
        bdt = build_bdt(elder_rule_decomposition(tree))
        assert len(bdt) == 1
        assert bdt.parent == (-1,)

    def test_four_leaf_binary(self):
        tree = nested_tree(
            (0, [(1, [(2, [(5, []), (6, [])]), (3, [(7, []), (8, [])])])])
        )
        bdt = build_bdt(elder_rule_decomposition(tree))
        assert len(bdt) == 4
        # shape invariant: |B| vertices, |B|-1 edges, connected via parents
        assert sum(1 for p in bdt.parent if p >= 0) == 3
        seen = set()
        for i in range(len(bdt)):
            v = i
            while v != bdt.root:
                v = bdt.parent[v]
            seen.add(i)
        assert len(seen) == 4

    def test_parent_relation_random(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            t = random_merge_tree(rng, max_leaves=6)
            dec = elder_rule_decomposition(t)
            bdt = build_bdt(dec)
            for i, b in enumerate(bdt.branches):
                p = bdt.parent[i]
                if p == -1:
                    assert b == dec.main
                else:
                    # attachment vertex is interior to the parent branch path
                    seq = bdt.branches[p].vertex_sequence(t)
                    assert b.start in seq[1:-1] or b.start == seq[0] == t.root


class TestBranchThrough:
    def test_equals_a_walk_along_the_continuation(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            t = random_merge_tree(rng, max_leaves=6)
            for dec in enumerate_branch_decompositions(t):
                for v in range(len(t)):
                    tip = v
                    while not t.is_leaf(tip):
                        tip = dec.continuation[tip]
                    assert dec.branch_through(v) == dec.branch_of_leaf(tip)
                assert dec.branch_through(t.root) == dec.main


def nested_loop_continuations(tree):
    """Every continuation map, the inner nodes in id order and the last one's
    choice varying fastest, counted like an odometer."""
    inner = [v for v in range(len(tree)) if not tree.is_leaf(v)]
    choice = [0] * len(inner)
    out = []
    while True:
        out.append([(v, tree.children[v][choice[i]]) for i, v in enumerate(inner)])
        i = len(inner) - 1
        while i >= 0 and choice[i] == len(tree.children[inner[i]]) - 1:
            choice[i] = 0
            i -= 1
        if i < 0:
            return out
        choice[i] += 1


class TestEnumerationOrder:
    def test_same_sequence_as_nested_loops(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            t = random_merge_tree(rng, max_leaves=6)
            decs = enumerate_branch_decompositions(t)
            assert [list(d.continuation.items()) for d in decs] == nested_loop_continuations(t)


class TestContinuationCheck:
    """Every inner node needs one of its own children as its continuation."""

    # root 0 - saddle 1 - { leaf 2, saddle 3 - { leaf 4, leaf 5 } }
    VALID = {0: 1, 1: 2, 3: 4}

    @pytest.mark.parametrize(
        "node, choice",
        [
            (3, None),  # missing
            (1, -1),
            (1, 6),  # the tree has 6 nodes
            (1, 99),
            (1, 4),  # grandchild
            (0, 3),  # the root's grandchild
            (3, 2),  # a child of another node
            (1, 2.0),
            (1, 2.5),
            (1, "2"),
        ],
    )
    def test_invalid_choice_names_the_node(self, two_peak_asymmetric, node, choice):
        cont = dict(self.VALID)
        if choice is None:
            del cont[node]
        else:
            cont[node] = choice
        with pytest.raises(PreconditionError, match=f"at node {node} "):
            BranchDecomposition(two_peak_asymmetric, cont)

    def test_minus_one_on_a_two_leaf_tree(self, fig5a):
        # -1 must not be read as the last node, 3, which is a child of 1
        with pytest.raises(PreconditionError, match="at node 1 "):
            BranchDecomposition(fig5a, {0: 1, 1: -1})

    def test_numpy_integers_accepted(self, two_peak_asymmetric):
        cont = {v: np.int64(c) for v, c in self.VALID.items()}
        dec = BranchDecomposition(two_peak_asymmetric, cont)
        assert dec == BranchDecomposition(two_peak_asymmetric, self.VALID)
        assert [b.label for b in dec.branches] == [(0.0, 12.0), (3.0, 12.0), (9.0, 11.0)]
