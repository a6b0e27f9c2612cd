"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/trajectory.py [--append LABEL]

Each of the seeds 1-10 runs ``run.py --trace 0`` once per workload of
BENCHMARK.json, with its ``run_seconds``; seed 0 also runs once with
``--trace 1``.
For every metric the summary gives the median over seeds and the spread,
the distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), flagged when it exceeds a third of
the metric's bound. ``--append LABEL`` adds the summary as a new entry of
``trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload, seed, trace, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    report = json.loads(lines[-2].removeprefix("report "))
    return {"workload": workload, "seed": seed, "trace": trace,
            "elapsed_s": time.perf_counter() - t0,
            "result": json.loads(lines[-1]), "report": report}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def summarize(runs, traced):
    """Median and spread over the seeds' runs, and the traced run's other metrics."""
    rows = {}
    for name, first in runs[0]["report"]["metrics"].items():
        values = [r["report"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        rows[name] = {"median": med, "unit": first["unit"],
                      "spread": spread(values) if med else 0.0}
    return {
        "seeds": [r["seed"] for r in runs],
        "end_to_end": rows,
        "per_layer_seed0": {k: v for k, v in traced["report"]["metrics"].items() if k not in rows},
        "max_run_s": max(r["elapsed_s"] for r in runs + [traced]),
    }


def append_entry(label, provenance, summary):
    path = HERE / "trajectory.json"
    entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    entries.append({
        "label": label,
        "date": time.strftime("%Y-%m-%d"),
        "provenance": {k: v for k, v in provenance.items()
                       if k not in ("workload", "seed", "trace", "rounds")},
        "workloads": summary,
    })
    path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--append")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run(workload, seed, 0, spec["run_seconds"]))
            print(f"{workload} seed {seed}: {runs[-1]['elapsed_s']:.1f}s", file=sys.stderr)
        traced = run(workload, 0, 1, spec["run_seconds"])
        summary[workload] = summarize(runs, traced)
        for name, row in summary[workload]["end_to_end"].items():
            flag = ""
            if name in bounds and row["spread"] > bounds[name] / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"{workload:13s} {name:28s} {row['median']:14.6g} {row['unit']:6s} "
                  f"spread {row['spread']:.4f}{flag}")
    if args.append:
        append_entry(args.append, runs[0]["report"]["provenance"], summary)


if __name__ == "__main__":
    main()
