import json

import pytest

import mtdist.mapping as mapping_module
from mtdist import MergeTree
from mtdist.cli import main
from mtdist.fields import read_scalar_field
from mtdist.trees import read_merge_tree, validate_merge_tree, write_merge_tree
from conftest import caterpillar


@pytest.fixture
def fig5_files(tmp_path, fig5a, fig5c):
    a = tmp_path / "a.mt"
    c = tmp_path / "c.mt"
    write_merge_tree(a, fig5a)
    write_merge_tree(c, fig5c)
    return a, c


# files that parse line by line but make no valid tree: (text, line, message)
BAD_TREES = {
    "degree-one": ("MT 3\n0 0.0 -1\n1 1.0 0\n2 2.0 1\n", 4, "inner node of degree one: node 1"),
    "no-nodes": ("MT 0\n", 1, "a merge tree needs at least one node"),
}


@pytest.mark.parametrize("command", ["dist", "track", "matrix"])
@pytest.mark.parametrize("bad_tree", sorted(BAD_TREES))
def test_invalid_tree_names_file_and_line(tmp_path, fig5a, capsys, command, bad_tree):
    good, bad = tmp_path / "good.mt", tmp_path / "bad.mt"
    write_merge_tree(good, fig5a)
    text, line, message = BAD_TREES[bad_tree]
    bad.write_text(text)
    args = [command, str(good), str(bad)]
    if command != "dist":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert capsys.readouterr().err == f"mtdist: error: {bad}:{line}: {message}\n"


class TestDist:
    def test_fig5_ac_branch(self, fig5_files, capsys):
        a, c = fig5_files
        rc = main(["dist", str(a), str(c), "--distance", "branch",
                   "--metric", "birth-persistence", "--mode", "sum"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "5.000000000"

    def test_identical_files(self, fig5_files, capsys):
        a, _ = fig5_files
        rc = main(["dist", str(a), str(a)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.000000000"

    def test_one_degree_fig5_bc(self, tmp_path, fig5b, fig5c, capsys):
        b = tmp_path / "b.mt"
        c = tmp_path / "c.mt"
        write_merge_tree(b, fig5b)
        write_merge_tree(c, fig5c)
        rc = main(["dist", str(b), str(c), "--distance", "one-degree",
                   "--metric", "birth-persistence", "--mode", "sum"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "3.000000000"

    def test_unknown_metric_is_usage_error(self, fig5_files, capsys):
        a, c = fig5_files
        rc = main(["dist", str(a), str(c), "--metric", "chebyshev"])
        assert rc == 1
        capsys.readouterr()

    def test_unknown_distance_is_usage_error(self, fig5_files, capsys):
        a, c = fig5_files
        rc = main(["dist", str(a), str(c), "--distance", "frechet"])
        assert rc == 1
        capsys.readouterr()

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        rc = main(["dist", str(tmp_path / "no.mt"), str(tmp_path / "no2.mt")])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("data", [b"\xff\xfeMT 2\n", b"SF2 1 2\n1 \xff\n"], ids=["mt", "sf2"])
    def test_non_utf8_file_is_data_error(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.mt"
        bad.write_bytes(data)
        rc = main(["dist", str(bad), str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("mtdist: error: ") and "bad.mt" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("data", [b"MT 2\n0 0.0 -1\n1 1.0 0\n", b"SF2 1 2\n1 2\n"], ids=["mt", "sf2"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, data):
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + data)
        rc = main(["dist", str(bom), str(bom)])
        assert rc == 0, capsys.readouterr().err
        assert capsys.readouterr().out.strip() == "0.000000000"

    def test_mapping_export(self, fig5_files, tmp_path, capsys):
        a, c = fig5_files
        out = tmp_path / "map.json"
        rc = main(["dist", str(a), str(c), "--mapping", str(out)])
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["totalCost"] == 5.0
        assert len(doc["pairs"]) == 2

    @pytest.mark.parametrize("distance", ["constrained", "one-degree"])
    def test_mapping_needs_mapping_distance(self, fig5_files, tmp_path, capsys, distance):
        a, c = fig5_files
        out = tmp_path / "map.json"
        rc = main(["dist", str(a), str(c), "--distance", distance, "--mapping", str(out)])
        assert rc == 2
        assert "branch-fixed" in capsys.readouterr().err
        assert not out.exists()

    def test_fixed_mapping_of_deep_tree(self, tmp_path, capsys):
        deep, small = tmp_path / "deep.mt", tmp_path / "small.mt"
        write_merge_tree(deep, caterpillar())
        write_merge_tree(small, MergeTree([0.0, 3.0, 7.0, 5.0], [-1, 0, 1, 1]))
        out = tmp_path / "map.json"
        rc = main(["dist", str(deep), str(small), "--distance", "branch-fixed",
                   "--metric", "persistence", "--mapping", str(out)])
        assert rc == 0
        d = float(capsys.readouterr().out)
        doc = json.loads(out.read_text())
        assert doc["totalCost"] == round(d, 9)
        assert len(doc["pairs"]) + len(doc["deletions"]) == len(caterpillar().leaves)


class TestTree:
    def test_field_to_tree(self, tmp_path, capsys):
        rc = main(["gen", "periodic", "--out-dir", str(tmp_path / "d"),
                   "--length", "4", "--period", "2", "--variation", "0"])
        assert rc == 0
        capsys.readouterr()
        out = tmp_path / "t.mt"
        rc = main(["tree", str(tmp_path / "d" / "member_0.sf2"), "--out", str(out),
                   "--simplify", "0.05"])
        assert rc == 0
        tree = read_merge_tree(out)
        assert len(tree) >= 2

    @pytest.mark.parametrize("tau", ["-1", "-0.5", "nan", "inf", "-inf"])
    def test_bad_simplify_threshold_is_data_error(self, tmp_path, fig5a, tau, capsys):
        field = tmp_path / "c.sf2"
        field.write_text("SF2 2 3\n1 2 1\n1 1 3\n")
        rc = main(["tree", str(field), "--out", str(tmp_path / "c.mt"), f"--simplify={tau}"])
        assert rc == 2
        assert "--simplify must be a finite threshold >= 0" in capsys.readouterr().err
        assert not (tmp_path / "c.mt").exists()
        write_merge_tree(tmp_path / "a.mt", fig5a)
        rc = main(["dist", str(tmp_path / "a.mt"), str(tmp_path / "a.mt"), f"--simplify={tau}"])
        assert rc == 2
        capsys.readouterr()

    def test_constant_field_two_node_tree(self, tmp_path, capsys):
        field = tmp_path / "c.sf2"
        field.write_text("SF2 2 3\n1 1 1\n1 1 1\n")
        out = tmp_path / "c.mt"
        rc = main(["tree", str(field), "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        assert len(read_merge_tree(out)) == 2

    def test_large_magnitude_plateau(self, tmp_path, capsys):
        # the sweep-rank offset is below float resolution at 1e8
        field = tmp_path / "p.sf2"
        field.write_text("SF2 1 5\n100000001 100000000 100000000 100000000 100000001\n")
        out = tmp_path / "p.mt"
        rc = main(["tree", str(field), "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        tree = read_merge_tree(out)
        assert validate_merge_tree(tree).ok
        assert len(tree.leaves) == 2

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        field = tmp_path / "bom.sf2"
        field.write_bytes(b"\xef\xbb\xbfSF2 1 3\n1 0 2\n")
        out = tmp_path / "t.mt"
        rc = main(["tree", str(field), "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        assert len(read_merge_tree(out).leaves) == 2

    def test_malformed_field_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.sf2"
        bad.write_text("SF2 2 2\n1 2 3\n")
        rc = main(["tree", str(bad), "--out", str(tmp_path / "t.mt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.sf2" in err

    def test_malformed_header_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.sf2"
        bad.write_text("SFX 2 2\n1 2\n3 4\n")
        rc = main(["tree", str(bad), "--out", str(tmp_path / "t.mt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.sf2:1" in err


class TestMatrix:
    def test_csv_and_heatmap(self, tmp_path, fig5a, fig5b, fig5c, capsys):
        for name, t in [("a", fig5a), ("b", fig5b), ("c", fig5c)]:
            write_merge_tree(tmp_path / f"{name}.mt", t)
        out = tmp_path / "m.csv"
        pgm = tmp_path / "m.pgm"
        rc = main(["matrix", str(tmp_path / "a.mt"), str(tmp_path / "b.mt"),
                   str(tmp_path / "c.mt"), "--out", str(out), "--heatmap", str(pgm),
                   "--jobs", "1"])
        assert rc == 0
        capsys.readouterr()
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "label,a,b,c"
        cells = lines[1].split(",")
        assert cells[1] == "0.000000000"
        assert cells[2] == "2.000000000"
        assert cells[3] == "5.000000000"
        assert pgm.read_bytes().startswith(b"P5\n3 3\n255\n")

    def test_directory_input_natural_order(self, tmp_path, fig5a, capsys):
        d = tmp_path / "members"
        d.mkdir()
        for k in (0, 1, 2, 10):
            write_merge_tree(d / f"member_{k}.mt", fig5a)
        out = tmp_path / "m.csv"
        rc = main(["matrix", str(d), "--out", str(out), "--jobs", "1"])
        assert rc == 0
        capsys.readouterr()
        header = out.read_text().split("\n")[0]
        assert header == "label,member_0,member_1,member_2,member_10"

    def test_invalid_member_aborts_with_name(self, tmp_path, fig5a, capsys):
        d = tmp_path / "members"
        d.mkdir()
        write_merge_tree(d / "member_0.mt", fig5a)
        (d / "member_1.mt").write_text("MT 3\n0 0.0 -1\n1 1.0 0\n2 2.0 0\n")
        rc = main(["matrix", str(d), "--out", str(tmp_path / "m.csv"), "--jobs", "1"])
        assert rc == 2
        assert "member_1" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_data_error(self, tmp_path, fig5a, jobs, capsys):
        for name in "ab":
            write_merge_tree(tmp_path / f"{name}.mt", fig5a)
        rc = main(["matrix", str(tmp_path / "a.mt"), str(tmp_path / "b.mt"),
                   "--out", str(tmp_path / "m.csv"), "--jobs", jobs])
        assert rc == 2
        assert "jobs must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("command", ["matrix", "track"])
    def test_missing_input_is_reported_missing(self, tmp_path, command, capsys):
        missing = tmp_path / "no-such-dir"
        rc = main([command, str(missing), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "No such file or directory" in err and "no-such-dir" in err

    def test_cluster_order_is_permutation(self, tmp_path, fig5a, fig5b, fig5c, capsys):
        for name, t in [("a", fig5a), ("b", fig5b), ("c", fig5c)]:
            write_merge_tree(tmp_path / f"{name}.mt", t)
        out = tmp_path / "m.csv"
        rc = main(["matrix", str(tmp_path / "a.mt"), str(tmp_path / "b.mt"),
                   str(tmp_path / "c.mt"), "--out", str(out), "--order", "cluster",
                   "--jobs", "1"])
        assert rc == 0
        capsys.readouterr()
        header = out.read_text().split("\n")[0]
        assert sorted(header.split(",")[1:]) == ["a", "b", "c"]


class TestGen:
    def test_outlier_deterministic(self, tmp_path, capsys):
        rc = main(["gen", "outlier", "--out-dir", str(tmp_path / "x"),
                   "--members", "3", "--outlier-index", "1", "--seed", "1",
                   "--rows", "32", "--cols", "32"])
        assert rc == 0
        rc = main(["gen", "outlier", "--out-dir", str(tmp_path / "y"),
                   "--members", "3", "--outlier-index", "1", "--seed", "1",
                   "--rows", "32", "--cols", "32"])
        assert rc == 0
        capsys.readouterr()
        for k in range(3):
            a = (tmp_path / "x" / f"member_{k}.sf2").read_bytes()
            b = (tmp_path / "y" / f"member_{k}.sf2").read_bytes()
            assert a == b

    def test_periodic_zero_variation_identical_files(self, tmp_path, capsys):
        rc = main(["gen", "periodic", "--out-dir", str(tmp_path / "p"),
                   "--length", "10", "--period", "5", "--variation", "0"])
        assert rc == 0
        capsys.readouterr()
        a = (tmp_path / "p" / "member_0.sf2").read_bytes()
        b = (tmp_path / "p" / "member_5.sf2").read_bytes()
        assert a == b

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("members=2\nseed=4\nrows=24\ncols=24\n")
        rc = main(["gen", "peaks", "--out-dir", str(tmp_path / "g"), "--config", str(cfg)])
        assert rc == 0
        capsys.readouterr()
        assert (tmp_path / "g" / "member_1.sf2").exists()
        assert not (tmp_path / "g" / "member_2.sf2").exists()
        f = read_scalar_field(tmp_path / "g" / "member_0.sf2")
        assert f.rows == 24 and f.cols == 24

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("members=5\n")
        rc = main(["gen", "peaks", "--out-dir", str(tmp_path / "g2"),
                   "--config", str(cfg), "--members", "2", "--rows", "16", "--cols", "16"])
        assert rc == 0
        capsys.readouterr()
        assert (tmp_path / "g2" / "member_1.sf2").exists()
        assert not (tmp_path / "g2" / "member_2.sf2").exists()

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("wibble=3\n")
        rc = main(["gen", "peaks", "--out-dir", str(tmp_path / "g3"), "--config", str(cfg)])
        assert rc == 2
        capsys.readouterr()

    def test_non_utf8_config_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_bytes(b"seed=\xff\n")
        rc = main(["gen", "peaks", "--out-dir", str(tmp_path / "g4"), "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("mtdist: error: ")


class TestLeadingComments:
    """The first line the parsers read, past blank lines and comments, tells
    an SF2 file from an MT file."""

    @pytest.mark.parametrize("command", ["dist", "matrix", "track"])
    def test_sf2_after_comment_lines(self, tmp_path, capsys, command):
        fields = ["SF2 3 4\n0 1 0 2\n1 3 1 0\n0 2 5 1\n", "SF2 3 4\n0 2 0 1\n1 4 1 0\n3 0 5 1\n"]
        outputs = []
        for folder, prefix in (("plain", ""), ("commented", "# note\n\n  # indented note\n")):
            (tmp_path / folder).mkdir()
            paths = []
            for k, text in enumerate(fields):
                paths.append(tmp_path / folder / f"f{k}.sf2")
                paths[-1].write_text(prefix + text)
            out = tmp_path / folder / "out"
            args = [command, *map(str, paths)] + ([] if command == "dist" else ["--out", str(out)])
            assert main(args) == 0, capsys.readouterr().err
            outputs.append((capsys.readouterr().out, out.read_text() if out.exists() else None))
        assert outputs[0] == outputs[1]

    def test_free_table_over_the_limit_is_data_error(self, tmp_path, capsys):
        if mapping_module._TABLE_LIMIT is None:
            pytest.skip("os.sysconf cannot tell the physical memory here")
        cat = tmp_path / "cat.mt"
        write_merge_tree(cat, caterpillar())
        assert main(["dist", str(cat), str(cat)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mtdist: error: ") and "Traceback" not in err

    @pytest.mark.parametrize("distance", ["branch-fixed", "constrained", "one-degree"])
    def test_fixed_and_baseline_tables_over_the_limit_are_data_errors(
        self, monkeypatch, fig5_files, capsys, distance
    ):
        monkeypatch.setattr(mapping_module, "_TABLE_LIMIT", 1)
        assert main(["dist", *map(str, fig5_files), "--distance", distance]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mtdist: error: ") and "half the physical memory" in err
        assert "Traceback" not in err


class TestTrack:
    def test_track_json(self, tmp_path, fig5a, capsys):
        for k in range(3):
            write_merge_tree(tmp_path / f"s{k}.mt", fig5a)
        out = tmp_path / "tracks.json"
        rc = main(["track", str(tmp_path / "s0.mt"), str(tmp_path / "s1.mt"),
                   str(tmp_path / "s2.mt"), "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert len(doc["steps"]) == 2
        assert len(doc["tracks"]) == 2  # fig5a has two leaves
        for track in doc["tracks"]:
            assert [s for s, _ in track["nodes"]] == [0, 1, 2]


class TestGenBadParameters:
    def run_gen(self, tmp_path, capsys, *args):
        rc = main(["gen", *args, "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("mtdist: error: ")
        assert "Traceback" not in err
        return err

    def test_config_value_of_wrong_type(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("seed=4\nmembers=abc\n")
        err = self.run_gen(tmp_path, capsys, "peaks", "--config", str(cfg))
        assert f"{cfg}:2:" in err and "members" in err

    @pytest.mark.parametrize("bumps", ["0", "-1"])
    def test_periodic_needs_a_bump(self, tmp_path, capsys, bumps):
        err = self.run_gen(tmp_path, capsys, "periodic", "--length", "10", "--period", "5",
                           "--bumps", bumps)
        assert "bumps" in err
        assert not (tmp_path / "out" / "member_0.sf2").exists()

    @pytest.mark.parametrize("args", [["peaks", "--rows", "-3"],
                                      ["periodic", "--length", "10", "--period", "5", "--cols", "-2"]])
    def test_negative_grid_size(self, tmp_path, capsys, args):
        err = self.run_gen(tmp_path, capsys, *args)
        assert "dimensions" in err


# the keys each gen kind takes, as flags and as --config keys
GEN_KEYS = {
    "peaks": {"members", "seed", "rows", "cols", "noise"},
    "outlier": {"members", "outlier_index", "seed", "rows", "cols", "noise"},
    "periodic": {"length", "period", "seed", "rows", "cols", "variation", "bumps", "drift"},
}
FOREIGN_KEYS = [
    (kind, key) for kind in GEN_KEYS for key in sorted(set().union(*GEN_KEYS.values()) - GEN_KEYS[kind])
]


class TestGenKinds:
    """Each gen kind takes its own keys only; one it does not take is
    refused, not ignored."""

    @pytest.mark.parametrize("kind, key", FOREIGN_KEYS)
    def test_flag_of_another_kind_is_usage_error(self, tmp_path, capsys, kind, key):
        flag = "--" + key.replace("_", "-")
        rc = main(["gen", kind, "--out-dir", str(tmp_path / "g"), flag, "2"])
        assert rc == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("kind, key", FOREIGN_KEYS)
    def test_config_key_of_another_kind_names_file_and_line(self, tmp_path, capsys, kind, key):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(f"seed=3\n{key.replace('_', '-')}=2\n")
        rc = main(["gen", kind, "--out-dir", str(tmp_path / "g"), "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"mtdist: error: {cfg}:2: gen {kind} takes no key {key!r}")
        assert not (tmp_path / "g").exists()

    def test_config_line_without_equals_sign(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("seed=3\n# a comment\nmembers 2\n")
        rc = main(["gen", "peaks", "--out-dir", str(tmp_path / "g"), "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == f"mtdist: error: {cfg}:3: expected key=value, got 'members 2'\n"

    def test_outlier_defaults_to_last_member_of_a_small_ensemble(self, tmp_path, capsys):
        rc = main(["gen", "outlier", "--out-dir", str(tmp_path / "o"), "--members", "5",
                   "--rows", "32", "--cols", "32"])
        assert rc == 0
        capsys.readouterr()
        fields = [read_scalar_field(tmp_path / "o" / f"member_{k}.sf2") for k in range(5)]
        assert not (tmp_path / "o" / "member_5.sf2").exists()
        # the center peak (height about 0.6) in every member but the last
        center = [f.grid()[15:17, 15:17].max() for f in fields]
        assert min(center[:4]) > 0.5 and center[4] < 0.1


def _trees_of_fields(tmp_path, capsys, folder):
    """``folder``'s fields written as unsimplified MT files, in one folder,
    and simplified at 0.05 by ``tree``, in another."""
    raw, simplified = tmp_path / "raw", tmp_path / "simplified"
    raw.mkdir()
    simplified.mkdir()
    for field in sorted(folder.iterdir()):
        assert main(["tree", str(field), "--out", str(raw / f"{field.stem}.mt")]) == 0
        assert main(["tree", str(raw / f"{field.stem}.mt"), "--out", str(simplified / f"{field.stem}.mt"),
                     "--simplify", "0.05"]) == 0
    capsys.readouterr()
    return raw, simplified


class TestSimplifyEveryInput:
    """``--simplify`` acts on MT inputs as on SF2 inputs."""

    @pytest.fixture
    def fields(self, tmp_path, capsys):
        assert main(["gen", "outlier", "--out-dir", str(tmp_path / "f"), "--members", "4",
                     "--rows", "32", "--cols", "32", "--noise", "0.01"]) == 0
        capsys.readouterr()
        return tmp_path / "f"

    def matrix(self, tmp_path, capsys, *inputs, simplify="0"):
        out = tmp_path / "m.csv"
        assert main(["matrix", *map(str, inputs), "--out", str(out), "--jobs", "1",
                     "--metric", "euclidean", "--mode", "l2", "--simplify", simplify]) == 0
        capsys.readouterr()
        return out.read_text()

    def test_mt_inputs_are_simplified(self, tmp_path, capsys, fields):
        raw, simplified = _trees_of_fields(tmp_path, capsys, fields)
        assert read_merge_tree(raw / "member_0.mt") != read_merge_tree(simplified / "member_0.mt")
        want = self.matrix(tmp_path, capsys, simplified)
        assert self.matrix(tmp_path, capsys, raw, simplify="0.05") == want
        assert self.matrix(tmp_path, capsys, fields, simplify="0.05") == want

    def test_mixed_inputs_are_simplified_alike(self, tmp_path, capsys, fields):
        raw, _ = _trees_of_fields(tmp_path, capsys, fields)
        mixed = [fields / "member_0.sf2", raw / "member_1.mt", fields / "member_2.sf2", raw / "member_3.mt"]
        want = self.matrix(tmp_path, capsys, fields, simplify="0.05")
        assert self.matrix(tmp_path, capsys, *mixed, simplify="0.05") == want
