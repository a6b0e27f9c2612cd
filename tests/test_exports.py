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
    # scipy.optimize is loaded by the first matching wider than WIDE columns
    code = "import sys, mtdist, mtdist.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(mtdist.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
