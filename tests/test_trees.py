import numpy as np
import pytest

from mtdist import MergeTree, MTDistError, ParseError, parse_merge_tree, validate_merge_tree
from mtdist.trees import format_merge_tree, read_merge_tree, write_merge_tree


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
