"""The three benchmark workloads: inputs, one timed round, and output checks.

Every workload calls mtdist through module attributes looked up at call
time (``M.compute_matrix`` rather than a name bound at import), so that the
span wrappers of :mod:`spans` see the benchmark's own calls.

* ``matrix-small``: ``compute_matrix`` over many small trees, where per-pair
  overhead, repeated elder decompositions and the process pool dominate.
* ``pair-large``: all four distances on a fixed list of 150-350-node pairs,
  where DP table fill, matching on wide saddles and peak memory dominate.
* ``track-series``: SF2 frames through the field pipeline into
  ``build_tracks``; the only workload using ``fields`` and full mappings.
"""

from __future__ import annotations

import itertools
import json
import statistics
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import mtdist.baselines as B
import mtdist.branches as BR
import mtdist.fields as F
import mtdist.mapping as MP
import mtdist.matrix as M
import mtdist.tracking as TR
import mtdist.trees as T
from mtdist.generators import (
    PEAK_SIMPLIFY_THRESHOLD,
    generate_ensemble,
    generate_periodic_series,
    outlier_spec,
)
from mtdist.metrics import BaseMetric
from mtdist.oracle import oracle_distance

import inputs

METRIC = "euclidean"
MODE = "l2"
DISTANCES = ("branch", "branch-fixed", "constrained", "one-degree")
TOL = 1e-9
REFERENCE = Path(__file__).resolve().parent / "reference.json"


class Round:
    """Wall times and failures of the top-level calls of one round."""

    def __init__(self):
        self.times = {}
        self.errors = []
        self.calls = 0
        self.latencies = []
        self.wall = 0.0

    def call(self, label, fn, *args, **kwargs):
        self.calls += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed call is counted, the round goes on
            self.errors.append(f"{label}: {exc!r}")
            traceback.print_exc()
            return None
        finally:
            self.times.setdefault(label, []).append(perf_counter() - t0)

    def total(self, *labels):
        return sum(sum(self.times.get(lab, ())) for lab in labels)


def _median_of(rounds, fn):
    return statistics.median(fn(r) for r in rounds)


def _write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")


def _read_trees(folder):
    return [T.read_merge_tree(p) for p in sorted(Path(folder).glob("*.mt"))]


def _opts(distance):
    return M.DistanceOptions(distance, METRIC, MODE)


# ---------------------------------------------------------------------------
# matrix-small
# ---------------------------------------------------------------------------

class MatrixSmall:
    name = "matrix-small"
    SCALES = {
        "full": dict(length=40, period=16, members=12, outlier=7, oracle_pairs=6),
        "tiny": dict(length=8, period=4, members=4, outlier=1, oracle_pairs=2),
    }
    # The outlier ensemble is the first ``members`` members of the C07
    # experiment's ensemble (tests/test_acceptance.py), the same for every
    # seed. Separation is a property of that ensemble, not of every random
    # one: with the ensemble seed and outlier drawn from seeds 0-799, the
    # outlier was not separated in nine, and in two another member lay
    # farther from the rest, by median distance, than the outlier did.
    ENSEMBLE_SEED = 1

    def __init__(self, scale):
        self.p = self.SCALES[scale]

    def make_inputs(self, seed, out):
        p = self.p
        rng = np.random.default_rng(seed)
        series = generate_periodic_series(length=p["length"], period=p["period"], seed=seed)
        spec = outlier_spec(members=p["members"], outlier_index=p["outlier"],
                            seed=self.ENSEMBLE_SEED)
        for folder, fields in (("periodic", series), ("outlier", generate_ensemble(spec))):
            (out / folder).mkdir()
            for i, f in enumerate(fields):
                tree = F.simplify(F.compute_merge_tree(f), PEAK_SIMPLIFY_THRESHOLD)
                T.write_merge_tree(out / folder / f"{i:03d}.mt", tree)
        n = p["length"]
        spot = set()
        while len(spot) < p["oracle_pairs"]:
            i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
            spot.add((i, j))
        _write_json(out / "meta.json", {
            "period": p["period"], "outlier": p["outlier"], "oracle_pairs": sorted(spot),
        })

    def load(self, folder):
        folder = Path(folder)
        meta = json.loads((folder / "meta.json").read_text(encoding="utf-8"))
        sets = {}
        for name in ("periodic", "outlier"):
            trees = _read_trees(folder / name)
            sets[name] = (trees, tuple(f"{name[0]}{i}" for i in range(len(trees))))
        return {"meta": meta, "sets": sets}

    def run_round(self, state, rnd):
        out = {}
        for name, (trees, labels) in state["sets"].items():
            for d in DISTANCES:
                out[name, d] = rnd.call(f"{name}.{d}", M.compute_matrix, trees, labels, _opts(d), jobs=1)
            out[name, "pool"] = rnd.call(f"{name}.pool", M.compute_matrix, trees, labels, _opts("branch"), jobs=2)
            branch = out[name, "branch"]
            if branch is not None:
                out[name, "order"] = rnd.call(f"{name}.order", M.single_linkage_order, branch.values)
                out[name, "csv"] = rnd.call(f"{name}.csv", M.format_csv, branch)
        return out

    def pairs(self, state, name):
        n = len(state["sets"][name][0])
        return n * (n - 1) // 2

    def expected_spans(self, state):
        p = sum(self.pairs(state, name) for name in state["sets"])
        sets = len(state["sets"])
        return {
            "matrix.compute_matrix": 5 * sets,
            "matrix.pairwise_distance": 4 * p,  # the pool's calls run in its workers
            "matrix.single_linkage_order": sets,
            "matrix.format_csv": sets,
            "mapping.branch_mapping_distance": 2 * p,
            "branches.elder_rule_decomposition": 6 * p,
            "baselines.elder_labeled_inputs": 4 * p,
            "baselines.constrained_edit_distance": p,
            "baselines.one_degree_distance": p,
            "matching.min_cost_matching": None,
        }

    def expected_load_spans(self, state):
        return {"trees.read_merge_tree": sum(len(t) for t, _ in state["sets"].values())}

    def end_to_end(self, state, rounds):
        pairs = sum(self.pairs(state, name) for name in state["sets"])
        out = {}
        for d in DISTANCES + ("pool",):
            labels = [f"{name}.{d}" for name in state["sets"]]
            out[f"pairs_per_s.{d}"] = (_median_of(rounds, lambda r: pairs / r.total(*labels)), "1/s")
        return out

    def pool_speedup(self, state, rounds):
        one = [f"{name}.branch" for name in state["sets"]]
        two = [f"{name}.pool" for name in state["sets"]]
        return _median_of(rounds, lambda r: r.total(*one) / r.total(*two))

    def check(self, state, outputs):
        bad = []
        meta = state["meta"]
        last = outputs[-1]
        for out in outputs[:-1]:
            for key, mat in last.items():
                if key[1] in DISTANCES + ("pool",) and not _same_matrix(out.get(key), mat):
                    bad.append(f"{key}: matrix differs between rounds")
        for name in state["sets"]:
            if any(last.get((name, k)) is None for k in DISTANCES + ("pool", "order", "csv")):
                bad.append(f"{name}: a pass failed")
                continue
            branch = last[name, "branch"].values
            fixed = last[name, "branch-fixed"].values
            if (branch > fixed + TOL).any():
                bad.append(f"{name}: branch exceeds branch-fixed in some entry")
            if not np.array_equal(last[name, "pool"].values, branch):
                bad.append(f"{name}: jobs=2 matrix differs from jobs=1")
            if sorted(last[name, "order"]) != list(range(len(branch))):
                bad.append(f"{name}: single_linkage_order is not a permutation")
            rows = [ln.split(",")[1:] for ln in last[name, "csv"].splitlines()[1:]]
            if np.abs(np.array(rows, dtype=float) - branch).max() > 5e-10:
                bad.append(f"{name}: format_csv does not reproduce the matrix")
        if bad:
            return bad
        periodic_trees = state["sets"]["periodic"][0]
        branch = last["periodic", "branch"].values
        metric = BaseMetric(METRIC)
        for i, j in meta["oracle_pairs"]:
            want = oracle_distance(periodic_trees[i], periodic_trees[j], metric, MODE)
            if abs(branch[i, j] - want) > TOL:
                bad.append(f"periodic ({i},{j}): branch {branch[i, j]!r} != oracle {want!r}")
        period = meta["period"]
        band = period // 2 + 1
        n = len(branch)
        for i in range(n):
            cand = [j for j in range(n) if abs(i - j) >= band]
            j = min(cand, key=lambda j: branch[i, j])
            if not period - 1 <= abs(i - j) <= period + 1:
                bad.append(f"periodic row {i}: off-band minimum at lag {abs(i - j)}, period {period}")
        vals = last["outlier", "branch"].values
        k = meta["outlier"]
        others = [i for i in range(len(vals)) if i != k]
        outlier_min = min(vals[k, j] for j in others)
        rest_max = max(vals[i, j] for i in others for j in others if i != j)
        if not outlier_min > rest_max:
            bad.append(f"outlier {k} not separated: {outlier_min!r} <= {rest_max!r}")
        # C06 as the repo states it: constrained <= one-degree on bdt-labelled
        # inputs (branch <= branch-fixed, the other half, is checked above).
        for name, (trees, _) in state["sets"].items():
            labelled = [B.elder_labeled_inputs(t, "bdt") for t in trees]
            for i, j in itertools.combinations(range(len(trees)), 2):
                dc = B.constrained_edit_distance(labelled[i], labelled[j], metric, MODE)
                d1 = B.one_degree_distance(labelled[i], labelled[j], metric, MODE)
                if dc > d1 + TOL:
                    bad.append(f"{name} ({i},{j}): constrained {dc!r} > one-degree {d1!r} (bdt)")
        return bad

    def mapping_pairs(self, state, output):
        """The tree pairs a round compares with the free branch mapping."""
        return [pair for trees, _ in state["sets"].values()
                for pair in itertools.combinations(trees, 2)]


def _same_matrix(a, b):
    return a is not None and b is not None and np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# pair-large
# ---------------------------------------------------------------------------

def _fixed_distance(a, b, metric):
    fixed = (BR.elder_rule_decomposition(a), BR.elder_rule_decomposition(b))
    return MP.branch_mapping_distance(a, b, metric, MODE, fixed=fixed)


def _constrained(a, b, metric):
    la = B.elder_labeled_inputs(a, "merge-tree")
    lb = B.elder_labeled_inputs(b, "merge-tree")
    return B.constrained_edit_distance(la, lb, metric, MODE)


def _one_degree(a, b, metric):
    la = B.elder_labeled_inputs(a, "bdt")
    lb = B.elder_labeled_inputs(b, "bdt")
    return B.one_degree_distance(la, lb, metric, MODE)


class PairLarge:
    name = "pair-large"
    NEAR_BINARY = 0.05
    WIDE = 0.35
    SCALES = {
        "full": ((150, NEAR_BINARY), (200, WIDE), (350, NEAR_BINARY)),
        "tiny": ((20, NEAR_BINARY), (20, WIDE)),
    }

    def __init__(self, scale):
        self.scale = scale
        self.pairs = self.SCALES[scale]

    def make_inputs(self, seed, out):
        # The shapes are the same for every seed, so the DP state count and
        # the cost of a run do not depend on it; the seed draws the node
        # values, which decide every distance and mapping.
        rng = np.random.default_rng(seed)
        for k, (n, extra) in enumerate(self.pairs):
            for s, side in enumerate("ab"):
                shape = inputs.typical_tree(np.random.default_rng([k, s]), n, extra)
                T.write_merge_tree(out / f"p{k}{side}.mt", inputs.revalue(shape, rng))
        _write_json(out / "meta.json", {"seed": seed, "scale": self.scale})

    def load(self, folder):
        folder = Path(folder)
        meta = json.loads((folder / "meta.json").read_text(encoding="utf-8"))
        trees = [(T.read_merge_tree(folder / f"p{k}a.mt"), T.read_merge_tree(folder / f"p{k}b.mt"))
                 for k in range(len(self.pairs))]
        return {"meta": meta, "pairs": trees, "metric": BaseMetric(METRIC)}

    def run_round(self, state, rnd):
        metric = state["metric"]
        out = {}
        for k, (a, b) in enumerate(state["pairs"]):
            out[k, "branch"] = rnd.call("branch", MP.branch_mapping_distance, a, b, metric, MODE)
            out[k, "branch-fixed"] = rnd.call("branch-fixed", _fixed_distance, a, b, metric)
            out[k, "constrained"] = rnd.call("constrained", _constrained, a, b, metric)
            out[k, "one-degree"] = rnd.call("one-degree", _one_degree, a, b, metric)
        return out

    def expected_spans(self, state):
        k = len(state["pairs"])
        return {
            "mapping.branch_mapping_distance": 2 * k,
            "branches.elder_rule_decomposition": 6 * k,
            "baselines.elder_labeled_inputs": 4 * k,
            "baselines.constrained_edit_distance": k,
            "baselines.one_degree_distance": k,
            "matching.min_cost_matching": None,
        }

    def expected_load_spans(self, state):
        return {"trees.read_merge_tree": 2 * len(state["pairs"])}

    def end_to_end(self, state, rounds):
        k = len(state["pairs"])
        out = {f"pairs_per_s.{d}": (_median_of(rounds, lambda r: k / r.total(d)), "1/s")
               for d in DISTANCES}
        free = [t for r in rounds for t in r.times.get("branch", ())]
        out["pair_p50_ms"] = (1e3 * statistics.median(free), "ms")
        return out

    def mapping_pairs(self, state, output):
        return state["pairs"]

    @staticmethod
    def distances(out, k):
        row = []
        for d in DISTANCES:
            v = out.get((k, d))
            row.append(None if v is None else (v[0] if isinstance(v, tuple) else v))
        return row

    def check(self, state, outputs):
        bad = []
        k_pairs = len(state["pairs"])
        last = outputs[-1]
        table = [self.distances(last, k) for k in range(k_pairs)]
        if any(v is None for row in table for v in row):
            return ["a distance call failed"]
        for out in outputs[:-1]:
            if [self.distances(out, k) for k in range(k_pairs)] != table:
                bad.append("distances differ between rounds")
        meta = state["meta"]
        if meta["seed"] == 0:
            ref = json.loads(REFERENCE.read_text(encoding="utf-8"))["pair-large"][meta["scale"]]
            for k, (row, want) in enumerate(zip(table, ref)):
                for d, got, exp in zip(DISTANCES, row, want):
                    if abs(got - exp) > TOL:
                        bad.append(f"pair {k} {d}: {got!r} != reference {exp!r}")
        for k in range(k_pairs):
            free, fixed = table[k][0], table[k][1]
            if free > fixed + TOL:
                bad.append(f"pair {k}: free {free!r} > fixed {fixed!r}")
            for d in ("branch", "branch-fixed"):
                mapping = last[k, d][1]
                report = MP.validate_branch_mapping(mapping)
                if not report.ok:
                    bad.append(f"pair {k} {d}: invalid mapping: {'; '.join(report.violations)}")
                if mapping.stats.keys > mapping.stats.bound:
                    bad.append(f"pair {k} {d}: {mapping.stats.keys} keys > bound {mapping.stats.bound}")
        return bad


# ---------------------------------------------------------------------------
# track-series
# ---------------------------------------------------------------------------

class TrackSeries:
    name = "track-series"
    latency_probe = "tracking.step_leaf_pairs"
    SCALES = {
        "full": dict(frames=24, period=12, rows=32, cols=96, bumps=6, noise=0.01, tau=0.02),
        "tiny": dict(frames=4, period=2, rows=16, cols=32, bumps=3, noise=0.01, tau=0.05),
    }

    def __init__(self, scale):
        self.p = self.SCALES[scale]

    def make_inputs(self, seed, out):
        p = self.p
        series = generate_periodic_series(
            length=p["frames"], period=p["period"], rows=p["rows"], cols=p["cols"],
            seed=seed, bumps=p["bumps"],
        )
        rng = np.random.default_rng([seed, 1])
        for i, f in enumerate(inputs.add_noise(series, p["noise"], rng)):
            F.write_scalar_field(out / f"f{i:03d}.sf2", f)

    def load(self, folder):
        paths = sorted(Path(folder).glob("*.sf2"))
        return {"paths": paths, "opts": _opts("branch")}

    def run_round(self, state, rnd):
        fields = [rnd.call("read", F.read_scalar_field, p) for p in state["paths"]]
        trees = [rnd.call("tree", F.compute_merge_tree, f) for f in fields]
        trees = [rnd.call("simplify", F.simplify, t, self.p["tau"]) for t in trees]
        return {"trees": trees, "tracks": rnd.call("tracks", TR.build_tracks, trees, state["opts"])}

    def expected_spans(self, state):
        n = len(state["paths"])
        return {
            "fields.read_scalar_field": n,
            "fields.compute_merge_tree": n,
            "fields.simplify": n,
            "tracking.build_tracks": 1,
            "tracking.step_leaf_pairs": n - 1,
            "mapping.branch_mapping_distance": n - 1,
            "mapping.induced_node_mapping": n - 1,
            "mapping.validate_branch_mapping": n - 1,
            "matching.min_cost_matching": None,
        }

    def expected_load_spans(self, state):
        return {}

    def end_to_end(self, state, rounds):
        n = len(state["paths"])
        lat = sorted(t for r in rounds for t in r.latencies)
        pct = tail_percentile(len(lat))
        return {
            "fields_per_s": (_median_of(rounds, lambda r: n / r.total("read", "tree", "simplify")), "1/s"),
            "steps_per_s": (_median_of(rounds, lambda r: (n - 1) / r.total("tracks")), "1/s"),
            "step_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "step_tail_ms": (1e3 * float(np.percentile(lat, pct)), "ms"),
            "step_tail_pct": (pct, "%"),
        }

    def mapping_pairs(self, state, output):
        return list(zip(output["trees"], output["trees"][1:]))

    def check(self, state, outputs):
        last = outputs[-1]
        trees, tracks = last["trees"], last["tracks"]
        if tracks is None or any(t is None for t in trees):
            return ["a pipeline call failed"]
        bad = []
        for out in outputs[:-1]:
            if out["tracks"] != tracks:
                bad.append("tracks differ between rounds")
        metric = BaseMetric(METRIC)
        for k, step in enumerate(tracks["steps"]):
            _, mapping = MP.branch_mapping_distance(trees[k], trees[k + 1], metric, MODE)
            report = MP.validate_branch_mapping(mapping)
            if not report.ok:
                bad.append(f"step {k}: invalid mapping: {'; '.join(report.violations)}")
                continue
            leaves1, leaves2 = set(trees[k].leaves), set(trees[k + 1].leaves)
            want = sorted([a, b] for a, b in MP.induced_node_mapping(mapping)
                          if a in leaves1 and b in leaves2)
            if step["pairs"] != want:
                bad.append(f"step {k}: leaf pairs differ from the step's mapping")
        seen = {}
        for track in tracks["tracks"]:
            nodes = track["nodes"]
            if [s for s, _ in nodes] != list(range(nodes[0][0], nodes[0][0] + len(nodes))):
                bad.append(f"track {track['id']}: steps not consecutive")
            for s, v in nodes:
                seen[s, v] = seen.get((s, v), 0) + 1
        want = {(s, v): 1 for s, t in enumerate(trees) for v in t.leaves}
        if seen != want:
            bad.append("some (step, leaf) is not in exactly one track")
        return bad


def tail_percentile(samples):
    """Highest of 50/75/90/95/99/99.9 with at least ten samples beyond it."""
    best = 500
    for permille in (750, 900, 950, 990, 999):
        if samples * (1000 - permille) >= 10_000:
            best = permille
    return best / 10


WORKLOADS = {w.name: w for w in (MatrixSmall, PairLarge, TrackSeries)}
