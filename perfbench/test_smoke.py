"""Smoke test of the benchmark itself, at the tiny input scale.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload emits each of its named metrics with its unit,
that the result line carries exactly the metrics of BENCHMARK.json, that a
perturbed output is rejected by the workload's correctness check, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from mtdist.matrix import DistanceMatrix  # noqa: E402

COMMON = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}
END_TO_END = {
    "matrix-small": {f"pairs_per_s.{d}": "1/s" for d in workloads.DISTANCES + ("pool",)},
    "pair-large": {**{f"pairs_per_s.{d}": "1/s" for d in workloads.DISTANCES}, "pair_p50_ms": "ms"},
    "track-series": {"fields_per_s": "1/s", "steps_per_s": "1/s", "step_p50_ms": "ms",
                     "step_tail_ms": "ms"},
}
LAYER_COMMON = {
    "mapping.branch_mapping_distance.s": "s",
    "mapping.branch_mapping_distance.calls": "count",
    "mapping.states": "count",
    "mapping.states_per_s": "1/s",
    "mapping.fill_ratio": "ratio",
    "mapping.peak_alloc_mb": "MB",
    "matching.min_cost_matching.calls": "count",
    "matching.min_cost_matching.s": "s",
    "trace.overhead_s": "s",
}
PAIRS_LAYERS = {
    "branches.elder_rule_decomposition.s": "s",
    "branches.elder_rule_decomposition.calls_per_tree": "ratio",
    "baselines.constrained_edit_distance.s": "s",
    "baselines.one_degree_distance.s": "s",
    "trees.read_merge_tree.s": "s",
}
PER_LAYER = {
    "matrix-small": {
        **PAIRS_LAYERS,
        "matrix.driver_overhead_s": "s",
        "matrix.pool_speedup": "ratio",
        "matrix.single_linkage_order.s": "s",
    },
    "pair-large": PAIRS_LAYERS,
    "track-series": {
        "mapping.validate_branch_mapping.s": "s",
        "mapping.induced_node_mapping.s": "s",
        "tracking.build_tracks.self_s": "s",
        "fields.read_scalar_field.s": "s",
        "fields.compute_merge_tree.s": "s",
        "fields.compute_merge_tree.vertices_per_s": "1/s",
        "fields.simplify.s": "s",
        "fields.simplify.nodes_in": "count",
    },
}


def run_bench(root, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2].removeprefix("report "))
    result = json.loads(lines[-1])
    want = {**COMMON, **END_TO_END[workload]}
    if trace:
        want.update(LAYER_COMMON)
        want.update(PER_LAYER[workload])
    got = report["metrics"]
    for name, unit in want.items():
        assert name in got, name
        assert got[name]["unit"] == unit, name
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    contract = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in contract]
    for m in contract:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _perturb_matrix(out):
    mat = out["periodic", "pool"]
    values = mat.values.copy()
    values[0, 1] = values[1, 0] = values[0, 1] + 1e-6
    out["periodic", "pool"] = DistanceMatrix(mat.labels, values)


def _perturb_pairs(out):
    dist, mapping = out[0, "branch"]
    out[0, "branch"] = (dist + 1e-6, mapping)


def _perturb_tracks(out):
    tracks = out["tracks"]["tracks"]
    tracks.append(dict(tracks[0], id=len(tracks)))


@pytest.mark.parametrize("workload, perturb", [
    ("matrix-small", _perturb_matrix),
    ("pair-large", _perturb_pairs),
    ("track-series", _perturb_tracks),
])
def test_perturbed_output_is_rejected(workload, perturb):
    wl = workloads.WORKLOADS[workload]("tiny")
    work = ROOT / ".perfbench" / f"smoke-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl.make_inputs(0, work)
        state = wl.load(work)
        rnd = workloads.Round()
        out = wl.run_round(state, rnd)
        assert not rnd.errors
        assert wl.check(state, [out]) == []
        perturb(out)
        assert wl.check(state, [out]) != []
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "matrix-small", 0)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert workloads.tail_percentile(9) == 50.0
    assert workloads.tail_percentile(40) == 75.0
    assert workloads.tail_percentile(100) == 90.0
    assert workloads.tail_percentile(10_000) == 99.9
    assert workloads.tail_percentile(200) == 95.0
