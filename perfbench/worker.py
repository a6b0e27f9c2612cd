"""Run one workload in a fresh process: load its inputs, time rounds, check outputs.

    python3 perfbench/worker.py --workload NAME --inputs DIR --seconds S
        --trace 0|1 --scale full|tiny --out RESULT.json [--spans SPANS.json]
    python3 perfbench/worker.py --workload NAME --inputs DIR --scale S --setup-only

Normally started by ``run.py``, which generates the inputs and times the
``--setup-only`` probes. With ``--trace 1`` a quarter of the time runs
untraced rounds and a quarter traced rounds, then one free branch mapping
call, on the round's pair with the most DP states, runs under tracemalloc
for ``mapping.peak_alloc_mb``. tracemalloc slows that call about tenfold,
which the shorter phases make room for.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# The traced rounds may spend at most this share of their wall time outside
# every span, in the benchmark's own code.
GLUE_SHARE = 0.01


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def run_rounds(wl, state, seconds, tracer=None):
    """Rounds until ``seconds`` have passed (at least one).

    Returns ``(rounds, outputs, marks)``; ``marks`` holds the span range of
    every traced round.
    """
    import spans
    import workloads

    rounds, outputs, marks = [], [], []
    deadline = perf_counter() + seconds
    while True:
        rnd = workloads.Round()
        probe = getattr(wl, "latency_probe", None)
        if tracer is not None:
            ctx = tracer.installed()
        elif probe:
            ctx = spans.timed_calls(probe, rnd.latencies)
        else:
            ctx = contextlib.nullcontext()
        start = tracer.mark() if tracer is not None else 0
        with ctx:
            t0 = perf_counter()
            outputs.append(wl.run_round(state, rnd))
            rnd.wall = perf_counter() - t0
        if tracer is not None:
            marks.append((start, tracer.mark()))
        rounds.append(rnd)
        if perf_counter() >= deadline:
            return rounds, outputs, marks


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def per_layer(wl, state, tracer, marks, untraced, load_mark):
    """Per-layer metrics: medians over traced rounds of per-round values."""
    import spans

    per_round = []
    for a, b in marks:
        rows, own = tracer.summary(a, b)
        keys = bound = free_keys = vertices = nodes_in = 0
        trees = set()
        matrix_self = 0.0
        for idx in range(a, b):
            name, _, _, _, _, info = tracer.spans[idx]
            if info is None:
                continue
            if name == spans.MAPPING:
                keys += info["keys"]
                if info["free"]:
                    free_keys += info["keys"]
                    bound += info["bound"]
            elif name == "branches.elder_rule_decomposition":
                trees.add(info["tree"])
            elif name == "matrix.compute_matrix" and info["jobs"] == 1:
                matrix_self += own[idx - a]
            elif name == "fields.compute_merge_tree":
                vertices += info["vertices"]
            elif name == "fields.simplify":
                nodes_in += info["nodes_in"]
        m = {}
        for name, (calls, total, own_s) in rows.items():
            m[f"{name}.s"] = (total, "s")
            m[f"{name}.self_s"] = (own_s, "s")
            m[f"{name}.calls"] = (calls, "count")
        m["mapping.states"] = (keys, "count")
        m["mapping.states_per_s"] = (keys / rows[spans.MAPPING][1], "1/s")
        m["mapping.fill_ratio"] = (free_keys / bound, "ratio")
        if trees:
            m["branches.elder_rule_decomposition.calls_per_tree"] = (
                rows["branches.elder_rule_decomposition"][0] / len(trees), "ratio")
        if "matrix.compute_matrix" in rows:
            m["matrix.driver_overhead_s"] = (matrix_self, "s")
        if vertices:
            m["fields.compute_merge_tree.vertices_per_s"] = (
                vertices / rows["fields.compute_merge_tree"][1], "1/s")
            m["fields.simplify.nodes_in"] = (nodes_in, "count")
        m["trace.selftime_sum_s"] = (sum(row[2] for row in rows.values()), "s")
        per_round.append(m)

    out = {}
    for key, (_, unit) in per_round[0].items():
        median = statistics.median_low if unit == "count" else statistics.median
        out[key] = (median(r[key][0] for r in per_round), unit)
    for name, (_, total, _) in tracer.summary(0, load_mark)[0].items():
        out[f"{name}.s"] = (total, "s")
    if hasattr(wl, "pool_speedup"):
        out["matrix.pool_speedup"] = (wl.pool_speedup(state, untraced), "ratio")
    return out


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import mtdist

    if Path(mtdist.__file__).resolve().parent != ROOT / "src" / "mtdist":
        print(f"mtdist imported from {mtdist.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import mtdist.mapping as MP
    from mtdist.metrics import BaseMetric

    import inputs
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.scale)
    tracer = spans.Tracer() if args.trace else None
    t0 = perf_counter()
    if tracer is not None:
        with tracer.installed():
            state = wl.load(args.inputs)
    else:
        state = wl.load(args.inputs)
    load_s = perf_counter() - t0
    if args.setup_only:
        return 0
    load_mark = tracer.mark() if tracer is not None else 0

    share = 0.25 if tracer is not None else 1.0
    rounds, outputs, _ = run_rounds(wl, state, args.seconds * share)
    result = {"load_s": load_s, "peak_rss_mb": peak_rss_mb(),
              "round_walls_s": [r.wall for r in rounds]}
    result["metrics"] = {
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        **wl.end_to_end(state, rounds),
    }
    problems = []
    if tracer is not None:
        got = tracer.summary(0, load_mark)[0]
        problems += [f"load: {p}" for p in spans.check_counts(got, wl.expected_load_spans(state))]
        traced, traced_out, marks = run_rounds(wl, state, args.seconds * share, tracer)
        glue = []
        for k, ((a, b), rnd) in enumerate(zip(marks, traced)):
            rows = tracer.summary(a, b)[0]
            problems += [f"traced round {k}: {p}" for p in
                         spans.check_counts(rows, wl.expected_spans(state))]
            glue.append(rnd.wall - sum(row[2] for row in rows.values()))
        traced_s = sum(r.wall for r in traced)
        if sum(glue) > GLUE_SHARE * traced_s:
            problems.append(f"traced rounds spent {sum(glue):.4f}s of {traced_s:.4f}s "
                            "outside every span")
        layer = per_layer(wl, state, tracer, marks, rounds, load_mark)
        # The pair with the most DP states, by the product of ancestor counts.
        pairs = [p for p in wl.mapping_pairs(state, traced_out[-1]) if None not in p]
        ancestors = {id(t): inputs.ancestor_count(t) for pair in pairs for t in pair}
        largest = max(pairs, key=lambda pair: ancestors[id(pair[0])] * ancestors[id(pair[1])])
        peak = spans.alloc_peak(MP.branch_mapping_distance, *largest,
                                BaseMetric(workloads.METRIC), workloads.MODE)
        layer["mapping.peak_alloc_mb"] = (peak / 2**20, "MB")
        untraced_wall = statistics.median(r.wall for r in rounds)
        layer["trace.overhead_s"] = (statistics.median(r.wall for r in traced) - untraced_wall, "s")
        layer["trace.untraced_wall_s"] = (untraced_wall, "s")
        layer["trace.glue_s"] = (statistics.median(glue), "s")
        result["per_layer"] = layer
        rounds = rounds + traced
        outputs = outputs + traced_out
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.dump()), encoding="utf-8")

    errors = [e for r in rounds for e in r.errors]
    problems += wl.check(state, outputs) if not errors else []
    result.update(
        rounds=len(rounds),
        attempted=sum(r.calls for r in rounds),
        failed=len(errors) + len(problems),
        problems=errors + problems,
    )
    if args.out:
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0 if not errors and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
