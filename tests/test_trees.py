import numpy as np
import pytest

from mtdist import MergeTree, MTDistError, ParseError, parse_merge_tree, validate_merge_tree
from mtdist.trees import format_merge_tree, read_merge_tree, require_valid, write_merge_tree
from conftest import random_merge_tree


class TestValidation:
    def test_minimal_legal_tree(self):
        tree = MergeTree([0.0, 10.0], [-1, 0])
        assert validate_merge_tree(tree).ok

    def test_root_with_two_children(self):
        tree = MergeTree([0.0, 5.0, 6.0], [-1, 0, 0])
        report = validate_merge_tree(tree)
        assert not report.ok
        assert any("root degree" in v for v in report.violations)

    def test_non_increasing_edge(self):
        # child value 3 under parent value 5
        tree = MergeTree([0.0, 5.0, 3.0, 7.0], [-1, 0, 1, 1])
        report = validate_merge_tree(tree)
        assert not report.ok
        assert any("non-increasing" in v for v in report.violations)

    def test_inner_degree_one(self):
        tree = MergeTree([0.0, 1.0, 2.0], [-1, 0, 1])
        report = validate_merge_tree(tree)
        assert any("degree one" in v for v in report.violations)

    def test_violations_name_offending_node(self):
        tree = MergeTree([0.0, 5.0, 3.0, 7.0], [-1, 0, 1, 1])
        report = validate_merge_tree(tree)
        assert any("node 2" in v for v in report.violations)


class TestConstruction:
    def test_rejects_two_roots(self):
        with pytest.raises(MTDistError):
            MergeTree([0.0, 1.0], [-1, -1])

    def test_rejects_cycle(self):
        with pytest.raises(MTDistError):
            MergeTree([0.0, 1.0, 2.0], [-1, 2, 1])

    @pytest.mark.parametrize(
        "values, node",
        [
            ([0.0, 5.0, np.nan, 6.0], 2),
            ([0.0, 5.0, 7.0, np.inf], 3),
            ([-np.inf, 5.0, 7.0, 6.0], 0),
            ([0.0, None, 7.0, 6.0], 1),
            (["a", "b", "c", "d"], 0),
            ([0.0, 5.0, "x", 6.0], 2),
        ],
    )
    def test_rejects_a_value_that_is_not_a_finite_number(self, values, node):
        # NaN and +inf once reached the distances, and -inf at the root gave inf
        with pytest.raises(MTDistError, match=f"^node {node} has value .*, expected a finite number$"):
            MergeTree(values, [-1, 0, 1, 1])

    @pytest.mark.parametrize(
        "values, node, shown",
        [
            (["0", "5", "7", "6"], 0, "'0'"),
            ([0.0, b"5", 7.0, 6.0], 1, "b'5'"),
            ([0.0, 5.0, "7", 6.0], 2, "'7'"),
            (np.array(["0", "5", "7", "6"]), 0, r"np.str_\('0'\)"),
            (np.array([b"0", b"5", b"7", b"6"]), 0, r"np.bytes_\(b'0'\)"),
            (np.array([0.0, 5.0, 7.0, "6"], dtype=object), 3, "'6'"),
        ],
    )
    def test_rejects_a_value_given_as_numeric_text(self, values, node, shown):
        # numpy parses numeric text, so '5' once built a tree where 'x' did not
        with pytest.raises(MTDistError, match=f"^node {node} has value {shown}, expected a finite number$"):
            MergeTree(values, [-1, 0, 1, 1])

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, 5.0, 7.0, 6.0],
            (0, 5, 7, 6),
            [np.float32(0.0), np.int64(5), 7, 6.0],
            np.array([0, 5, 7, 6]),
            np.array([0, 5, 7, 6], dtype=np.uint8),
            np.array([0.0, 5.0, 7.0, 6.0], dtype=np.float32),
            np.array([0.0, 5.0, 7.0, 6.0]),
        ],
    )
    def test_accepts_numbers_in_lists_tuples_and_arrays(self, values):
        tree = MergeTree(values, [-1, 0, 1, 1])
        assert tree.values.dtype == np.float64
        assert tree.values.tolist() == [0.0, 5.0, 7.0, 6.0]

    def test_rejects_a_value_too_large_for_a_float(self):
        with pytest.raises(MTDistError, match="^node 1 has value 1000.*, expected a finite number$"):
            MergeTree([0.0, 10**400, 7.0, 6.0], [-1, 0, 1, 1])

    @pytest.mark.parametrize(
        "parent, message",
        [
            ([-1, 0.7, 1, 1], "^node 1 has parent 0.7, expected an integer id$"),
            ([-1, 0, "a", 1], "^node 2 has parent 'a', expected an integer id$"),
            ([-1, 0, 1, np.float64(1.0)], r"^node 3 has parent np.float64\(1.0\), expected an integer id$"),
            ([-1, 0, 1, 2**70], "^parent ids out of range: node 3 has parent 1180591620717411303424, expected -1 or 0..3$"),
            (np.array([-1, 0, 1, -2]), "^parent ids out of range: node 3 has parent -2, expected -1 or 0..3$"),
            (np.array([-1, 4, 1, 1], dtype=np.int8), "^parent ids out of range: node 1 has parent 4, expected -1 or 0..3$"),
        ],
    )
    def test_rejects_a_parent_that_is_no_node_id(self, parent, message):
        # 0.7 once hung node 1 under node 0, 'a' raised a bare ValueError and
        # 2**70 an OverflowError
        with pytest.raises(MTDistError, match=message):
            MergeTree([0.0, 5.0, 7.0, 6.0], parent)

    @pytest.mark.parametrize(
        "parent",
        [[-1, 0, 1, 1], (-1, 0, 1, 1), [np.int16(-1), np.int64(0), 1, 1], np.array([-1, 0, 1, 1], dtype=np.int8)],
    )
    def test_accepts_integer_parent_ids(self, parent):
        tree = MergeTree([0.0, 5.0, 7.0, 6.0], parent)
        assert tree.parent.dtype == np.int64
        assert tree.parent.tolist() == [-1, 0, 1, 1]

    def test_children_sorted_and_depth(self, two_peak_asymmetric):
        t = two_peak_asymmetric
        assert t.children[1] == (2, 3)
        assert t.depth == 3
        assert t.ancestors(5) == [0, 1, 3]
        assert set(t.leaves) == {2, 4, 5}


class TestFormat:
    def test_round_trip(self, tmp_path, fig5a):
        path = tmp_path / "a.mt"
        write_merge_tree(path, fig5a)
        back = read_merge_tree(path)
        assert back == fig5a

    def test_header_announces_count(self):
        with pytest.raises(ParseError) as err:
            parse_merge_tree("MT 3\n0 0.0 -1\n1 1.0 0\n")
        assert "3 nodes" in str(err.value)

    def test_bad_header_names_line(self):
        with pytest.raises(ParseError) as err:
            parse_merge_tree("MX 2\n0 0.0 -1\n1 1.0 0\n", path="f.mt")
        assert str(err.value).startswith("f.mt:1:")

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.mt"
        path.write_bytes(b"MT 2\n0 0.0 -1\n1 \xff 0\n")
        with pytest.raises(ParseError) as err:
            read_merge_tree(path)
        assert err.value.line == 3
        assert "not UTF-8" in str(err.value)

    def test_byte_order_mark_is_skipped(self, tmp_path, fig5a):
        path = tmp_path / "bom.mt"
        path.write_bytes(b"\xef\xbb\xbf" + format_merge_tree(fig5a).encode())
        assert read_merge_tree(path) == fig5a
        path.write_bytes(b"\xef\xbb\xbfMT 2\n\xff")
        with pytest.raises(ParseError) as err:
            read_merge_tree(path)
        assert "byte 0xff at offset 8" in str(err.value) and err.value.line == 2

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("MT two\n0 0.0 -1\n", 1, "non-integer field in header 'MT two', expected 'MT <nodeCount>'"),
            ("MT 2\n0 0.0 -1\n2 1.0 0\n", 3, "node id 2 outside 0..1"),
            ("MT 2\n0 0.0 -1\n\n1 nan 0\n", 4, "non-finite value for node 1"),
            ("MT 2\n0 -inf -1\n1 1.0 0\n", 2, "non-finite value for node 0"),
        ],
    )
    def test_bad_line_is_named(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_merge_tree(text, path="f.mt")
        assert err.value.line == line and str(err.value) == f"f.mt:{line}: {message}"

    def test_duplicate_id(self):
        with pytest.raises(ParseError) as err:
            parse_merge_tree("MT 2\n0 0.0 -1\n0 1.0 0\n")
        assert "duplicate" in str(err.value)

    def test_rejects_invalid_tree(self):
        # parses structurally but violates the shape contract
        with pytest.raises(MTDistError):
            parse_merge_tree("MT 3\n0 0.0 -1\n1 1.0 0\n2 2.0 0\n")

    def test_full_precision_round_trip(self):
        tree = MergeTree([0.0, np.pi, 4.0 + 1 / 3, 3.5], [-1, 0, 1, 1])
        text = format_merge_tree(tree)
        assert parse_merge_tree(text) == tree


def random_parent_tree(rng, n):
    """A random tree over shuffled ids with random values: any shape, so
    most of them break the merge-tree rules."""
    ids = rng.permutation(n)
    parent = np.empty(n, dtype=np.int64)
    parent[ids[0]] = -1
    for k in range(1, n):
        parent[ids[k]] = ids[int(rng.integers(0, k))]
    return MergeTree(rng.integers(0, 5, size=n).astype(float), parent)


class TestStoredWalk:
    def test_preorder_and_depths_match_the_walks(self):
        rng = np.random.default_rng(41)
        trees = [random_parent_tree(rng, int(rng.integers(1, 30))) for _ in range(40)]
        trees += [random_merge_tree(rng, max_leaves=8) for _ in range(20)]
        assert any(not validate_merge_tree(t).ok for t in trees)

        def preorder(t, v):  # the definition, recursively; the trees are small
            return [v] + [x for c in t.children[v] for x in preorder(t, c)]

        for t in trees:
            assert t.children == tuple(tuple(np.flatnonzero(t.parent == v)) for v in range(len(t)))
            assert t.preorder == tuple(t.subtree_nodes(t.root)) == tuple(preorder(t, t.root))
            assert t.depths == tuple(len(t.ancestors(v)) for v in range(len(t)))
            assert t.depth == max(t.depths)
            assert validate_merge_tree(t) is validate_merge_tree(t)

    def test_invalid_shape_is_reported_not_raised(self):
        tree = MergeTree([0.0, 5.0, 6.0], [-1, 0, 0])
        assert tree.preorder == (0, 1, 2)
        assert tree.depths == (0, 1, 1)
        assert not validate_merge_tree(tree).ok
        with pytest.raises(MTDistError):
            require_valid(tree)


class TestOwnsItsArrays:
    def test_caller_array_stays_writable_and_apart(self):
        v = np.array([0.0, 3.0, 10.0, 6.0])
        p = np.array([-1, 0, 1, 1])
        tree = MergeTree(v, p)
        h, report = hash(tree), validate_merge_tree(tree)
        assert v.flags.writeable and p.flags.writeable
        v[2] = -1.0
        p[3] = 2
        assert tree.values.tolist() == [0.0, 3.0, 10.0, 6.0]
        assert tree.parent.tolist() == [-1, 0, 1, 1]
        assert hash(tree) == h and validate_merge_tree(tree) is report and report.ok

    def test_view_of_a_base_array(self):
        base = np.array([0.0, 3.0, 10.0, 6.0, 99.0])
        tree = MergeTree(base[:4], [-1, 0, 1, 1])
        base[1] = 50.0
        assert tree.values.tolist() == [0.0, 3.0, 10.0, 6.0]
        assert validate_merge_tree(tree).ok
