import os
import subprocess
import sys
from pathlib import Path

import mtdist


def test_every_export_resolves():
    missing = [name for name in mtdist.__all__ if not hasattr(mtdist, name)]
    assert missing == []
    assert len(set(mtdist.__all__)) == len(mtdist.__all__)
    namespace = {}
    exec("from mtdist import *", namespace)
    assert set(mtdist.__all__) <= set(namespace)


def test_import_leaves_scipy_unloaded():
    # mtdist needs numpy only: neither importing it nor a matching of more
    # than WIDE columns, single or inside a baseline on a BDT node of 8
    # children, loads any scipy module
    code = """
import sys, mtdist, mtdist.cli
from mtdist import MergeTree
from mtdist.baselines import elder_labeled_inputs, one_degree_distance
from mtdist.matching import WIDE, min_cost_matching
from mtdist.metrics import BaseMetric
s = WIDE + 2
min_cost_matching([[float(i + j) for j in range(s)] for i in range(3)], [5.0] * 3, [1.0] * s)
a = MergeTree([0.0, 1.0] + [2.0 + k for k in range(9)], [-1, 0] + [1] * 9)
b = MergeTree([0.0, 1.5] + [2.5 + k for k in range(8)], [-1, 0] + [1] * 8)
one_degree_distance(elder_labeled_inputs(a, "bdt"), elder_labeled_inputs(b, "bdt"), BaseMetric("euclidean"))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(mtdist.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"
