import concurrent.futures
import gc
import json
import os
import pickle
import sys
import weakref

import numpy as np
import pytest

import mtdist.baselines as baselines_module
import mtdist.branches as branches_module
import mtdist.mapping as mapping_module
import mtdist.matrix as matrix_module
import mtdist.trees as trees_module
from mtdist import branch_mapping_distance, elder_rule_decomposition, induced_node_mapping
from mtdist.cli import main
from mtdist.errors import InvalidTreeError, MTDistError, PreconditionError, SizeLimitError
from mtdist.matrix import (
    DISTANCE_NAMES,
    DistanceMatrix,
    DistanceOptions,
    branch_mapping,
    compute_matrix,
    format_csv,
    pairwise_distance,
    single_linkage_order,
    write_pgm,
)
from mtdist.metrics import BaseMetric
from mtdist.tracking import build_tracks, step_leaf_pairs
from mtdist.trees import MergeTree, write_merge_tree
from conftest import grow_merge_tree, random_merge_tree
from reference_linkage import reference_single_linkage_order


def make_trees(n, seed=0):
    rng = np.random.default_rng(seed)
    return [random_merge_tree(rng, max_leaves=5) for _ in range(n)]


def exiting_worker(segments):
    """A pool task that ends its worker process, as an out-of-memory kill would."""
    os._exit(9)


class TestDistanceMatrix:
    def test_invariants_enforced(self):
        with pytest.raises(MTDistError):
            DistanceMatrix(labels=("a", "b"), values=np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(MTDistError):
            DistanceMatrix(labels=("a", "b"), values=np.array([[0.5, 1.0], [1.0, 0.0]]))
        with pytest.raises(MTDistError):
            DistanceMatrix(labels=("a", "b"), values=np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("distance", ["branch", "branch-fixed", "constrained", "one-degree"])
    def test_symmetry_and_zero_diagonal(self, distance):
        trees = make_trees(5, seed=3)
        opts = DistanceOptions(distance=distance, metric="euclidean", mode="l2")
        m = compute_matrix(trees, [f"t{i}" for i in range(5)], opts, jobs=1)
        assert np.array_equal(m.values, m.values.T)
        assert np.all(np.diagonal(m.values) == 0.0)

    def test_entry_matches_pairwise_bitwise(self):
        # the matrix shares each tree's layouts between pairs; a lone call builds its own
        trees = make_trees(4, seed=5)
        for distance in DISTANCE_NAMES:
            for mode in ("sum", "l2"):
                opts = DistanceOptions(distance=distance, mode=mode)
                m = compute_matrix(trees, "abcd", opts, jobs=1)
                for i in range(4):
                    for j in range(i + 1, 4):
                        assert m.values[i, j] == pairwise_distance(trees[i], trees[j], opts)

    def test_parallel_equals_serial(self):
        trees = make_trees(6, seed=8)
        opts = DistanceOptions(metric="euclidean", mode="l2")
        serial = compute_matrix(trees, "abcdef", opts, jobs=1)
        parallel = compute_matrix(trees, "abcdef", opts, jobs=2)
        assert np.array_equal(serial.values, parallel.values)

    def test_pool_has_no_more_workers_than_pairs(self, monkeypatch):
        seen = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                seen.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(matrix_module, "_WORKER_CTX", {})
        trees = make_trees(3, seed=4)
        pooled = compute_matrix(trees, "abc", DistanceOptions(), jobs=64)
        assert seen == [3]
        assert np.array_equal(pooled.values, compute_matrix(trees, "abc", DistanceOptions(), jobs=1).values)

    def test_dead_worker_is_a_typed_error(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(matrix_module, "_task_worker", exiting_worker)
        trees = make_trees(4, seed=6)
        with pytest.raises(MTDistError, match="worker process .* ended abruptly"):
            compute_matrix(trees, "abcd", DistanceOptions(), jobs=2)
        for k, t in enumerate(trees):
            write_merge_tree(tmp_path / f"{k}.mt", t)
        capsys.readouterr()
        rc = main(["matrix", *(str(tmp_path / f"{k}.mt") for k in range(4)), "--out", str(tmp_path / "m.csv"),
                   "--jobs", "2"])
        assert rc == 2
        assert "ended abruptly" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_identical_members_give_zero_matrix(self):
        trees = make_trees(1, seed=2) * 3
        m = compute_matrix(trees, "xyz", DistanceOptions(), jobs=1)
        assert np.all(m.values == 0.0)

    def test_needs_two_members(self):
        trees = make_trees(1)
        with pytest.raises(MTDistError):
            compute_matrix(trees, "a", DistanceOptions(), jobs=1)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(MTDistError, match="jobs must be at least 1"):
            compute_matrix(make_trees(2), "ab", DistanceOptions(), jobs=jobs)

    @pytest.mark.parametrize("jobs", [2.0, "2", 1.5])
    def test_jobs_must_be_an_integer(self, jobs):
        with pytest.raises(MTDistError, match="jobs must be at least 1 and an integer"):
            compute_matrix(make_trees(2), "ab", DistanceOptions(), jobs=jobs)

    def test_unknown_distance_rejected(self):
        with pytest.raises(MTDistError):
            DistanceOptions(distance="hausdorff")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(distance="constrained", metric="euclidean", mode="l3"), "unknown mode 'l3'"),
            (dict(distance="one-degree", mode="max"), "unknown mode 'max'"),
            (dict(distance="branch", metric="nope"), "unknown metric 'nope'"),
        ],
    )
    def test_unknown_metric_or_mode_rejected_as_data_error(self, kwargs, message):
        with pytest.raises(MTDistError, match=message):
            DistanceOptions(**kwargs)


def count_builds(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records its first argument."""
    built = []
    build = getattr(module, name)

    def counting(*args):
        built.append(args[0])
        return build(*args)

    monkeypatch.setattr(module, name, counting)
    return built


class TestLayoutMemo:
    """``compute_matrix`` and ``build_tracks`` prepare each tree's layouts
    once per call and keep none of them after it."""

    @pytest.mark.parametrize(
        "distance, module, name",
        [
            ("branch", mapping_module, "_Flat"),
            ("branch-fixed", mapping_module, "_Flat"),
            ("branch-fixed", branches_module, "_elder"),
            ("constrained", baselines_module, "_labeled"),
            ("constrained", baselines_module, "_Levels"),
            ("one-degree", branches_module, "_elder"),
            ("one-degree", baselines_module, "_Levels"),
        ],
    )
    def test_each_tree_prepared_once_per_call(self, monkeypatch, distance, module, name):
        trees = make_trees(5, seed=11)
        built = count_builds(monkeypatch, module, name)
        opts = DistanceOptions(distance=distance, metric="euclidean", mode="l2")
        first = compute_matrix(trees, "abcde", opts, jobs=1)
        assert len(built) == len({id(x) for x in built}) == 5
        # nothing carries over to the next call
        assert np.array_equal(compute_matrix(trees, "abcde", opts, jobs=1).values, first.values)
        assert len(built) == 10

    def test_track_prepares_each_tree_at_most_once(self, monkeypatch):
        trees = make_trees(5, seed=12)
        built = count_builds(monkeypatch, mapping_module, "_Flat")
        build_tracks(trees, DistanceOptions())
        assert sorted(map(id, built)) == sorted(map(id, trees))

    def test_no_memo_after_return_or_raise(self, monkeypatch):
        trees = make_trees(4, seed=13)
        compute_matrix(trees, "abcd", DistanceOptions(), jobs=1)
        build_tracks(trees, DistanceOptions())
        assert trees_module._MEMO.get() is None
        fill = mapping_module._pair_table
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise MTDistError("pair failed")
            return fill(*args)

        monkeypatch.setattr(mapping_module, "_pair_table", failing)
        with pytest.raises(MTDistError, match="pair failed"):
            compute_matrix(trees, "abcd", DistanceOptions(), jobs=1)
        assert trees_module._MEMO.get() is None
        calls.clear()
        with pytest.raises(MTDistError, match="pair failed"):
            build_tracks(trees, DistanceOptions())
        assert trees_module._MEMO.get() is None

    def test_pickled_tree_carries_no_memo(self, monkeypatch):
        trees = make_trees(3, seed=14)
        outside = [pickle.dumps(t) for t in trees]
        inside, sizes = [], []
        pair = matrix_module.pairwise_distance

        def pickling(t1, t2, opts):
            sizes.append(len(trees_module._MEMO.get()))
            inside.append(pickle.dumps(t1))
            return pair(t1, t2, opts)

        monkeypatch.setattr(matrix_module, "pairwise_distance", pickling)
        compute_matrix(trees, "abc", DistanceOptions(), jobs=1)
        assert max(sizes) > 0  # layouts were memoized while the trees were pickled
        assert all(blob in outside for blob in inside)

    def test_threads_sharing_trees_get_identical_matrices(self):
        # each thread has its own memo; frequent switches would expose a shared one
        trees = make_trees(6, seed=15)
        opts = [DistanceOptions(distance=d, metric="euclidean", mode="l2") for d in DISTANCE_NAMES]
        want = [compute_matrix(trees, "abcdef", o, jobs=1).values for o in opts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(compute_matrix, trees, "abcdef", o, jobs=1) for o in opts * 2]
                got = [f.result(timeout=60).values for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for w, g in zip(want * 2, got):
            assert np.array_equal(w, g)

    def test_shared_layouts_are_read_only(self):
        tree = make_trees(1, seed=16)[0]
        metric = BaseMetric("euclidean")
        labeled = baselines_module.elder_labeled_inputs(tree, "merge-tree")
        layouts = [
            mapping_module._Flat(tree, metric, False),
            mapping_module._Flat(tree, metric, False, elder_rule_decomposition(tree)),
            baselines_module._Levels(labeled, lambda label: metric.deletion(*label)),
        ]
        forest, views = mapping_module._join([layouts[0], layouts[0]])
        layouts += [forest, *views]
        for layout in layouts:
            for slot in type(layout).__slots__:
                value = getattr(layout, slot)
                assert not isinstance(value, (list, dict, set)), slot
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable, slot


def mixed_trees(seed):
    """Small trees, wide saddles and one deep tree, so rows have partners
    of unequal heights."""
    rng = np.random.default_rng(seed)
    trees = [random_merge_tree(rng, max_leaves=5) for _ in range(4)]
    trees += [grow_merge_tree(rng, n, 0.4) for n in (12, 25)] + [grow_merge_tree(rng, 45, 0.05)]
    return trees


def recorded(monkeypatch, module, name, record):
    """Wrap ``module.name`` so that every call's arguments go to ``record``
    first."""
    call = getattr(module, name)

    def recording(*args):
        record(*args)
        return call(*args)

    monkeypatch.setattr(module, name, recording)


# a branch distance -> a tree's states, one side of its table less the pad row
BRANCH_STATES = {"branch": lambda t: sum(t.depths), "branch-fixed": lambda t: len(t) - 1}


class TestForestRows:
    """Under ``branch`` and ``branch-fixed``, ``compute_matrix`` fills each
    row's tree against groups of its partners as one table, and every entry
    and mapping stays the pair's own."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matrix_equals_a_loop_of_pair_calls(self, jobs):
        trees = mixed_trees(61)
        for distance in BRANCH_STATES:
            for metric, mode in (("euclidean", "l2"), ("birth-persistence", "sum")):
                opts = DistanceOptions(distance, metric, mode)
                m = compute_matrix(trees, "abcdefg", opts, jobs=jobs)
                for i in range(7):
                    for j in range(i + 1, 7):
                        assert m.values[i, j] == branch_mapping(trees[i], trees[j], opts)[0]

    def test_every_mapping_from_a_forest_equals_its_own(self, monkeypatch):
        trees = mixed_trees(62)
        tables = []
        recorded(monkeypatch, mapping_module, "_pair_table", lambda f1, f2, pair: tables.append(f2))
        for distance, states in BRANCH_STATES.items():
            opts = DistanceOptions(distance, "euclidean", "l2")
            # a free forest is held by its trees, a fixed one by their decompositions
            held = (lambda t: t) if distance == "branch" else elder_rule_decomposition
            tables.clear()
            groups = 0
            with trees_module._layout_memo():
                got = {}
                for i, t in enumerate(trees):
                    partners = trees[i + 1:]
                    for group in mapping_module._row_groups(t, partners, states):
                        groups += 1
                        with mapping_module._forest(held(t), [held(partners[k]) for k in group]):
                            for k in group:
                                got[i, i + 1 + k] = branch_mapping(t, partners[k], opts)
            assert len(tables) == groups < len(got)  # one table per group, and some groups of several
            assert any(f2.children is None for f2 in tables)  # joined layouts
            for (i, j), (d, mapping) in got.items():
                want_d, want = branch_mapping(trees[i], trees[j], opts)
                assert d == want_d
                assert mapping == want
                assert mapping.decomposition1.continuation == want.decomposition1.continuation
                assert mapping.decomposition2.continuation == want.decomposition2.continuation
                assert mapping.stats.keys == states(trees[i]) * states(trees[j])

    def test_small_group_bound_splits_rows(self, monkeypatch):
        trees = mixed_trees(63)
        joined, tables = [], []
        recorded(monkeypatch, mapping_module, "_join", lambda flats: joined.append(len(flats)))
        recorded(
            monkeypatch, mapping_module, "_pair_table",
            lambda f1, f2, pair: tables.append((f2.children is None, (f1.S + 1) * (f2.S + 1))),
        )
        default = mapping_module._FOREST_ENTRIES
        for distance, states in BRANCH_STATES.items():
            monkeypatch.setattr(mapping_module, "_FOREST_ENTRIES", default)
            opts = DistanceOptions(distance, "euclidean", "l2")
            joined.clear()
            tables.clear()
            want = compute_matrix(trees, "abcdefg", opts, jobs=1).values
            assert joined == [6, 5, 4, 3, 2] and len(tables) == 6  # one table per row
            joined.clear()
            tables.clear()
            bound = 60 * (states(trees[0]) + 1)
            monkeypatch.setattr(mapping_module, "_FOREST_ENTRIES", bound)
            assert np.array_equal(compute_matrix(trees, "abcdefg", opts, jobs=1).values, want)
            assert len(tables) > 6 and joined and max(joined) < 6  # the rows were split
            assert all(entries <= bound for forest, entries in tables if forest)

    def test_each_group_table_dropped_when_its_group_ends(self, monkeypatch):
        trees = mixed_trees(66)
        monkeypatch.setattr(mapping_module, "_FOREST_ENTRIES", 40 * (sum(trees[0].depths) + 1))
        fill = mapping_module._pair_table
        alive = []

        def filling(f1, f2, pair):
            gc.collect()
            assert all(table() is None for table in alive)  # the last group's table is gone
            T = fill(f1, f2, pair)
            alive.append(weakref.ref(T))
            return T

        monkeypatch.setattr(mapping_module, "_pair_table", filling)
        compute_matrix(trees, "abcdefg", DistanceOptions(), jobs=1)
        gc.collect()
        assert len(alive) > 6 and all(table() is None for table in alive)

    def test_repeated_tree_objects(self, monkeypatch):
        a, b, c = make_trees(3, seed=64)
        trees = [a, b, a, c, b, a, c]
        opts = DistanceOptions("branch", "euclidean", "sum")
        forests = []
        recorded(monkeypatch, matrix_module, "_forest", lambda t, partners: forests.append((t, partners)))
        m = compute_matrix(trees, "abcdefg", opts, jobs=1)
        for i in range(7):
            for j in range(i + 1, 7):
                assert m.values[i, j] == pairwise_distance(trees[i], trees[j], opts)
        assert any(len(partners) > 1 for _, partners in forests)
        for t, partners in forests:
            assert len({id(u) for u in partners}) == len(partners)
            assert t not in partners or partners == [t]  # the row's own tree runs alone

    def test_pair_over_the_table_limit_refused_before_its_table(self, monkeypatch):
        rng = np.random.default_rng(65)
        small = [grow_merge_tree(rng, 12, 0.1) for _ in range(4)]
        big = grow_merge_tree(rng, 80, 0.05)
        trees = [small[0], small[1], small[2], big, small[3]]
        rows = sum(small[0].depths) + 1
        limit = 8 * rows * (sum(big.depths) + 1) - 1  # only the pairs with the big tree are over
        assert 8 * rows * (sum(sum(t.depths) for t in small) + 1) < limit
        monkeypatch.setattr(mapping_module, "_TABLE_LIMIT", limit)
        tables = []
        recorded(monkeypatch, mapping_module, "_pair_table", lambda f1, f2, pair: tables.append((f1.S + 1) * (f2.S + 1)))
        with pytest.raises(SizeLimitError, match="free-mode table"):
            compute_matrix(trees, "abcde", DistanceOptions(), jobs=1)
        assert tables == [rows * (sum(small[1].depths) + sum(small[2].depths) + 1)]  # row 0's group before the big tree
        assert trees_module._MEMO.get() is None


BASELINES = [("constrained", "merge-tree"), ("one-degree", "bdt")]


class TestBaselineForestRows:
    """Under ``constrained`` and ``one-degree``, ``compute_matrix`` fills
    each row's labelled tree against groups of its partners as one table,
    and every entry stays the pair's own, bit for bit."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("distance", ["constrained", "one-degree"])
    def test_matrix_equals_a_loop_of_pair_calls(self, monkeypatch, distance, jobs):
        trees = mixed_trees(62)
        forests = []
        join = baselines_module._join

        def joining(levels):
            forests.append(join(levels))
            return forests[-1]

        monkeypatch.setattr(baselines_module, "_join", joining)
        for metric, mode in (("euclidean", "l2"), ("birth-persistence", "sum")):
            opts = DistanceOptions(distance, metric, mode)
            m = compute_matrix(trees, "abcdefg", opts, jobs=jobs)
            for i in range(7):
                for j in range(i + 1, 7):
                    assert m.values[i, j] == pairwise_distance(trees[i], trees[j], opts)
        if jobs == 1:  # the pool's forests are joined in its workers
            assert len(forests) == 2 * 5  # rows 0-4 have several partners
            # the wide saddles reach both the <=3x3 batch and the wide groups
            assert any(len(f.small[1]) and f.wide for f in forests)

    @pytest.mark.parametrize("distance, target", BASELINES)
    def test_small_byte_budget_splits_rows(self, monkeypatch, distance, target):
        trees = mixed_trees(72)
        opts = DistanceOptions(distance, "euclidean", "l2")
        want = compute_matrix(trees, "abcdefg", opts, jobs=1).values
        tables = []
        recorded(
            monkeypatch, baselines_module, "_table",
            lambda a, b, pair, edits: tables.append((isinstance(b.root, tuple), (a.n + 1) * (b.n + 1))),
        )
        compute_matrix(trees, "abcdefg", opts, jobs=1)
        assert [forest for forest, _ in tables] == [True] * 5 + [False]  # one table per row
        tables.clear()
        size = [len(baselines_module.elder_labeled_inputs(t, target)) for t in trees]
        budget = 48 * (size[0] + 1) * (sum(size[1:]) // 2)  # bytes, half of row 0
        monkeypatch.setattr(mapping_module, "_FOREST_ENTRIES", budget // 8)
        assert np.array_equal(compute_matrix(trees, "abcdefg", opts, jobs=1).values, want)
        assert len(tables) > 6 and any(forest for forest, _ in tables)  # the rows were split
        assert all(48 * entries <= budget for forest, entries in tables if forest)

    def test_each_group_table_dropped_when_its_group_ends(self, monkeypatch):
        trees = mixed_trees(73)
        monkeypatch.setattr(mapping_module, "_FOREST_ENTRIES", 8 * 40 * 40 // 8)
        fill = baselines_module._table
        alive = []

        def filling(a, b, pair, edits):
            gc.collect()
            assert all(table() is None for table in alive)  # the last group's table is gone
            dist = fill(a, b, pair, edits)
            alive.append(weakref.ref(dist))
            return dist

        monkeypatch.setattr(baselines_module, "_table", filling)
        compute_matrix(trees, "abcdefg", DistanceOptions("constrained"), jobs=1)
        gc.collect()
        assert len(alive) > 6 and all(table() is None for table in alive)

    @pytest.mark.parametrize("distance, target", BASELINES)
    def test_repeated_tree_objects(self, monkeypatch, distance, target):
        a, b, c = make_trees(3, seed=74)
        trees = [a, b, a, c, b, a, c]
        opts = DistanceOptions(distance, "euclidean", "sum")
        forests = []
        recorded(monkeypatch, matrix_module, "_forest", lambda t, partners: forests.append((t, partners)))
        m = compute_matrix(trees, "abcdefg", opts, jobs=1)
        for i in range(7):
            for j in range(i + 1, 7):
                assert m.values[i, j] == pairwise_distance(trees[i], trees[j], opts)
        assert any(len(partners) > 1 for _, partners in forests)
        for t, partners in forests:
            if partners:  # a group of several, held by the labelled inputs
                assert isinstance(t, baselines_module.LabeledTree)
                assert len({id(u) for u in partners}) == len(partners)
                assert all(u is not t for u in partners)  # the row's own tree runs alone

    @pytest.mark.parametrize("distance", ["constrained", "one-degree"])
    @pytest.mark.parametrize("at", [0, 3])
    def test_invalid_member_raises_as_its_pair(self, distance, at):
        trees = make_trees(5, seed=75)
        trees[at] = MergeTree([0.0, 5.0, 6.0], [-1, 0, 0])  # the root has two children
        opts = DistanceOptions(distance)
        with pytest.raises(InvalidTreeError) as want:
            pairwise_distance(trees[0], trees[at or 1], opts)
        with pytest.raises(InvalidTreeError) as got:
            compute_matrix(trees, "abcde", opts, jobs=1)
        assert str(got.value) == str(want.value)
        assert trees_module._MEMO.get() is None

    @pytest.mark.parametrize("distance, target", BASELINES)
    def test_pair_over_the_table_limit_refused_before_its_table(self, monkeypatch, distance, target):
        rng = np.random.default_rng(76)
        small = [grow_merge_tree(rng, 12, 0.1) for _ in range(4)]
        big = grow_merge_tree(rng, 80, 0.05)
        trees = [small[0], small[1], small[2], big, small[3]]
        size = [len(baselines_module.elder_labeled_inputs(t, target)) for t in trees]
        limit = 48 * (size[0] + 1) * (size[3] + 1) - 1  # only the pairs with the big tree are over
        assert 48 * (size[0] + 1) * (sum(size) - size[3] + 1) < limit
        monkeypatch.setattr(mapping_module, "_TABLE_LIMIT", limit)
        tables = []
        recorded(monkeypatch, baselines_module, "_table", lambda a, b, pair, edits: tables.append((a.n, b.n)))
        with pytest.raises(SizeLimitError, match="baseline table"):
            compute_matrix(trees, "abcde", DistanceOptions(distance), jobs=1)
        assert tables == [(size[0], size[1] + size[2])]  # row 0's group before the big tree
        assert trees_module._MEMO.get() is None

    def test_joined_layouts_are_read_only(self):
        trees = mixed_trees(77)[4:6]
        metric = BaseMetric("euclidean")
        levels = [
            baselines_module._Levels(baselines_module.elder_labeled_inputs(t, "merge-tree"), lambda label: metric.deletion(*label))
            for t in trees
        ]
        forest = baselines_module._join(levels)
        assert type(forest) is baselines_module._Levels
        assert forest.n == sum(f.n for f in levels)
        assert forest.root == tuple(forest.root) and len(forest.root) == 2
        for slot in type(forest).__slots__:
            value = getattr(forest, slot)
            assert not isinstance(value, (list, dict, set)), slot
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, slot
        for sub in (forest.groups, forest.wide, forest.inserts, (forest.small,)):
            for group in sub:
                for part in group:
                    if isinstance(part, np.ndarray):
                        assert not part.flags.writeable


class TestMappingDispatch:
    """``branch_mapping`` is the one place that turns a distance name into a
    mapping call; the matrix, tracking and the CLI all go through it."""

    @pytest.mark.parametrize("distance", ["branch", "branch-fixed"])
    def test_every_caller_gets_the_same_mapping(self, distance, tmp_path, capsys):
        t1, t2 = make_trees(2, seed=6)
        opts = DistanceOptions(distance=distance, metric="euclidean", mode="l2")
        d, mapping = branch_mapping(t1, t2, opts)
        fixed = None
        if distance == "branch-fixed":
            fixed = (elder_rule_decomposition(t1), elder_rule_decomposition(t2))
        want_d, want = branch_mapping_distance(t1, t2, BaseMetric("euclidean"), "l2", fixed=fixed)
        assert d == want_d
        assert mapping.to_json_dict() == want.to_json_dict()
        assert mapping.decomposition1 == want.decomposition1
        assert pairwise_distance(t1, t2, opts) == d
        leaves1, leaves2 = set(t1.leaves), set(t2.leaves)
        assert step_leaf_pairs(t1, t2, opts) == sorted(
            (a, b) for a, b in induced_node_mapping(mapping) if a in leaves1 and b in leaves2
        )
        write_merge_tree(tmp_path / "a.mt", t1)
        write_merge_tree(tmp_path / "b.mt", t2)
        out = tmp_path / "map.json"
        rc = main(["dist", str(tmp_path / "a.mt"), str(tmp_path / "b.mt"), "--distance", distance,
                   "--metric", "euclidean", "--mode", "l2", "--mapping", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == f"{d:.9f}"
        assert json.loads(out.read_text()) == json.loads(json.dumps(mapping.to_json_dict()))

    @pytest.mark.parametrize(
        "distance, name, target",
        [("constrained", "constrained_edit_distance", "merge-tree"), ("one-degree", "one_degree_distance", "bdt")],
    )
    def test_baselines_called_through_the_module(self, monkeypatch, distance, name, target):
        """A wrapper set on the ``baselines`` attribute sees every call, with
        the labelled inputs of the distance's target."""
        t1, t2 = make_trees(2, seed=6)
        inputs = count_builds(monkeypatch, baselines_module, name)
        pairwise_distance(t1, t2, DistanceOptions(distance=distance))
        assert inputs == [baselines_module.elder_labeled_inputs(t1, target)]

    @pytest.mark.parametrize("distance", ["constrained", "one-degree"])
    def test_non_mapping_names_raise(self, distance):
        t1, t2 = make_trees(2, seed=6)
        with pytest.raises(MTDistError):
            branch_mapping(t1, t2, DistanceOptions(distance=distance))


class TestClusterOrder:
    def test_order_is_permutation(self):
        rng = np.random.default_rng(4)
        n = 8
        raw = rng.uniform(1, 10, (n, n))
        vals = (raw + raw.T) / 2
        np.fill_diagonal(vals, 0.0)
        order = single_linkage_order(vals)
        assert sorted(order) == list(range(n))

    def test_groups_close_members(self):
        # two tight clusters far apart: the order keeps them contiguous
        vals = np.full((4, 4), 10.0)
        np.fill_diagonal(vals, 0.0)
        vals[0, 1] = vals[1, 0] = 0.1
        vals[2, 3] = vals[3, 2] = 0.2
        order = single_linkage_order(vals)
        pos = {m: i for i, m in enumerate(order)}
        assert abs(pos[0] - pos[1]) == 1
        assert abs(pos[2] - pos[3]) == 1

    def test_same_order_as_reference(self):
        """Against the dict version of ``reference_linkage.py``, on random
        matrices, on matrices of few distinct values (many ties), and on
        asymmetric ones, whose lower triangle is never read."""
        rng = np.random.default_rng(41)
        for k in range(600):
            n = int(rng.integers(1, 16))
            raw = rng.integers(0, 3, (n, n)).astype(float) if k % 2 else rng.uniform(0, 1, (n, n))
            vals = raw if k % 3 == 0 else raw + raw.T
            assert single_linkage_order(vals) == reference_single_linkage_order(vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_distances_rejected(self, bad):
        vals = np.zeros((3, 3))
        vals[0, 2] = vals[2, 0] = bad
        with pytest.raises(PreconditionError, match="finite"):
            single_linkage_order(vals)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(PreconditionError, match="square"):
            single_linkage_order(np.zeros((2, 3)))

    def test_reordered_matrix(self):
        m = DistanceMatrix(
            labels=("a", "b", "c"),
            values=np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]),
        )
        r = m.reordered([2, 0, 1])
        assert r.labels == ("c", "a", "b")
        assert r.values[0, 1] == 2.0
        with pytest.raises(MTDistError):
            m.reordered([0, 0, 1])


class TestExport:
    def test_csv_layout_and_precision(self):
        m = DistanceMatrix(
            labels=("x", "y"), values=np.array([[0.0, 1.23456789012], [1.23456789012, 0.0]])
        )
        text = format_csv(m)
        lines = text.strip().split("\n")
        assert lines[0] == "label,x,y"
        assert lines[1] == "x,0.000000000,1.234567890"

    def test_pgm_header_and_scaling(self, tmp_path):
        vals = np.array([[0.0, 2.0], [2.0, 0.0]])
        path = tmp_path / "m.pgm"
        write_pgm(path, vals)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n2 2\n255\n")
        assert blob[-4:] == bytes([0, 255, 255, 0])

    def test_pgm_constant_matrix(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_pgm(path, np.zeros((2, 2)))
        assert path.read_bytes()[-4:] == bytes([0, 0, 0, 0])
