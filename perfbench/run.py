"""mtdist benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload matrix-small|pair-large|track-series
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

Run from anywhere inside a checkout; the program under test is the
checkout's ``src/mtdist``. The run

1. generates the workload's inputs from the seed into ``.perfbench/``,
2. times ``SETUP_PROBES`` fresh interpreters that import mtdist and load the
   inputs, half before step 3 and half after it (``setup_s`` is their
   median),
3. runs the workload in one fresh worker process for ``--seconds``
   (``worker.py``), which checks the outputs,
4. prints a ``report`` line with every metric, provenance and failures, and
   last the result line ``{"correct", "attempted", "failed", "metrics"}``:
   the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
   per-layer metrics with ``--trace 1``.

Exit code 0 when every output checks out, 1 when a check or call failed,
2 when the checkout has no ``src/mtdist`` or the worker could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
# The host's speed drifts over tens of seconds; probes on both sides of the
# workload run sample two stretches of it instead of one.
SETUP_PROBES = {"full": 8, "tiny": 2}
DEADLINE_S = 175  # the whole run, set-up probes included


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("matrix-small", "pair-large", "track-series"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    return ap.parse_args(argv)


def provenance(args, rounds):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mtdist").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "setup_probes": SETUP_PROBES[args.scale],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def run_group(cmd, deadline):
    """Run ``cmd`` in its own process group; kill the group at ``deadline``.

    The group holds the worker's process pool too, so nothing outlives a
    timed-out run. The wait blocks instead of polling: ``Popen.wait`` with a
    timeout polls every 50 ms, which rounded the set-up probes' times up to
    that step.
    """
    proc = subprocess.Popen(cmd, start_new_session=True)

    def kill():
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(1.0, deadline - perf_counter()), kill)
    timer.start()
    try:
        return proc.wait()
    finally:
        timer.cancel()


def contract_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    args = parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "mtdist" / "__init__.py").is_file():
        print(f"no src/mtdist under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.scale)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        wl.make_inputs(args.seed, work / "inputs")
        worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                  "--inputs", str(work / "inputs"), "--scale", args.scale]
        setup = []

        def probe(count):
            for _ in range(count):
                t0 = perf_counter()
                if run_group(worker + ["--setup-only"], deadline) != 0:
                    raise OSError("a set-up probe failed")
                setup.append(perf_counter() - t0)

        probe(SETUP_PROBES[args.scale] // 2)
        result_path = work / "result.json"
        cmd = worker + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--out", str(result_path)]
        if args.trace:
            cmd += ["--spans", str(WORK / f"spans-{args.workload}.json")]
        code = run_group(cmd, deadline)
        if not result_path.is_file():
            print(f"worker exited with {code} and no result", file=sys.stderr)
            return 2
        probe(SETUP_PROBES[args.scale] - SETUP_PROBES[args.scale] // 2)
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark could not run: {exc!r}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "error_rate": (result["failed"] / result["attempted"], "ratio"),
        **result["metrics"],
        **result.get("per_layer", {}),
    }
    report = {
        "provenance": provenance(args, result["rounds"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "setup_samples_s": setup,
        "worker_load_s": result["load_s"],
        "round_walls_s": result["round_walls_s"],
        "problems": result["problems"],
    }
    print("report " + json.dumps(report))
    for problem in result["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = code == 0 and not result["problems"]
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": min(result["failed"], result["attempted"]),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in contract_names(args.trace)},
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
