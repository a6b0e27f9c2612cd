import concurrent.futures
import json

import numpy as np
import pytest

import mtdist.matrix as matrix_module
from mtdist import branch_mapping_distance, elder_rule_decomposition, induced_node_mapping
from mtdist.cli import main
from mtdist.errors import MTDistError
from mtdist.matrix import (
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
from mtdist.tracking import step_leaf_pairs
from mtdist.trees import write_merge_tree
from conftest import random_merge_tree


def make_trees(n, seed=0):
    rng = np.random.default_rng(seed)
    return [random_merge_tree(rng, max_leaves=5) for _ in range(n)]


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
        trees = make_trees(4, seed=5)
        opts = DistanceOptions()
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

    def test_identical_members_give_zero_matrix(self):
        trees = make_trees(1, seed=2) * 3
        m = compute_matrix(trees, "xyz", DistanceOptions(), jobs=1)
        assert np.all(m.values == 0.0)

    def test_needs_two_members(self):
        trees = make_trees(1)
        with pytest.raises(MTDistError):
            compute_matrix(trees, "a", DistanceOptions(), jobs=1)

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
