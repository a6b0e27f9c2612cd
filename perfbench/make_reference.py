"""Record the pair-large reference distances for seed 0 into reference.json.

    python3 perfbench/make_reference.py

Run only when a change to the program is meant to change distances; the
benchmark compares every seed-0 pair-large run against these values.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main():
    ref = {}
    for scale in ("full", "tiny"):
        wl = workloads.PairLarge(scale)
        work = HERE.parent / ".perfbench" / f"reference-{scale}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            wl.make_inputs(0, work)
            state = wl.load(work)
            rnd = workloads.Round()
            out = wl.run_round(state, rnd)
            if rnd.errors:
                raise SystemExit(f"{scale}: {rnd.errors}")
            ref[scale] = [wl.distances(out, k) for k in range(len(state["pairs"]))]
        finally:
            shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(
        json.dumps({"pair-large": ref}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
