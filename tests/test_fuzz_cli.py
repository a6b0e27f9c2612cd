"""Byte-level fuzzing of the ``dist``, ``matrix`` and ``track`` boundary.

Valid MT and SF2 files are mutated (truncated, a byte flipped or dropped, a
line duplicated, comment or blank lines inserted) and passed to
``cli.main`` in-process: it must exit 0 or 2 without a traceback. A
distance it prints must be finite and non-negative, a matrix it writes
symmetric and non-negative, and a track file valid JSON. Derandomised, so
every run tries the same inputs.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mtdist.cli import main

VALID = {
    "mt": b"MT 7\n0 0.0 -1\n1 1.5 0\n2 6.0 1\n3 2.5 1\n4 4.0 3\n5 3.5 3\n6 5.0 1\n",
    "sf2": b"SF2 3 4\n0 1.5 0 2\n1 3 1 0.25\n0 2 5 1\n",
}


@st.composite
def mutated(draw, data):
    for op in draw(st.lists(st.sampled_from(["truncate", "flip", "drop", "duplicate", "comment", "blank"]),
                            max_size=3)):
        at = draw(st.integers(0, max(0, len(data) - 1)))
        if op == "truncate":
            data = data[:at]
        elif op == "flip":
            data = data[:at] + bytes([b ^ 1 << draw(st.integers(0, 7)) for b in data[at:at + 1]]) + data[at + 1:]
        elif op == "drop":
            data = data[:at] + data[at + 1:]
        else:
            lines = data.split(b"\n")
            k = draw(st.integers(0, len(lines) - 1))
            new = {"duplicate": lines[k], "comment": b"# fuzz", "blank": b"  "}[op]
            data = b"\n".join(lines[:k] + [new] + lines[k:])
    return data


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kinds=st.tuples(*[st.sampled_from(sorted(VALID))] * 2), data=st.data())
def test_dist_on_mutated_files(tmp_path, capsys, kinds, data):
    paths = []
    for k, kind in enumerate(kinds):
        paths.append(tmp_path / f"{k}.{kind}")
        paths[-1].write_bytes(data.draw(mutated(VALID[kind])))
    rc = main(["dist", *map(str, paths)])
    out, err = capsys.readouterr()
    assert rc in (0, 2), err
    assert "Traceback" not in err
    if rc == 0:
        d = float(out)
        assert math.isfinite(d) and d >= 0


@pytest.mark.parametrize("command", ["matrix", "track"])
@settings(max_examples=80, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kinds=st.lists(st.sampled_from(sorted(VALID)), min_size=2, max_size=3), data=st.data())
def test_matrix_and_track_on_mutated_files(tmp_path, capsys, command, kinds, data):
    # a fresh folder per example, as the command reads every file in it
    folder = Path(tempfile.mkdtemp(dir=tmp_path))
    for k, kind in enumerate(kinds):
        (folder / f"m{k}.{kind}").write_bytes(data.draw(mutated(VALID[kind])))
    out = folder.with_suffix(".out")
    rc = main([command, str(folder), "--out", str(out)] + (["--jobs", "1"] if command == "matrix" else []))
    _, err = capsys.readouterr()
    assert rc in (0, 2), err
    assert "Traceback" not in err
    if rc == 0 and command == "matrix":
        rows = [line.split(",")[1:] for line in out.read_text().splitlines()[1:]]
        values = [[float(x) for x in row] for row in rows]
        assert len(values) == len(kinds)
        assert all(v >= 0 and v == values[j][i] for i, row in enumerate(values) for j, v in enumerate(row))
    elif rc == 0:
        doc = json.loads(out.read_text())
        assert len(doc["steps"]) == len(kinds) - 1
