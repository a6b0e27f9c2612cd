"""Distance-name dispatch, pairwise distance matrices, clustering order, and heatmap export."""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass

import numpy as np

from .baselines import constrained_edit_distance, elder_labeled_inputs, one_degree_distance
from .branches import elder_rule_decomposition
from .errors import MTDistError
from .mapping import branch_mapping_distance
from .metrics import METRIC_NAMES, MODE_NAMES, BaseMetric
from .trees import MergeTree

DISTANCE_NAMES = ("branch", "branch-fixed", "constrained", "one-degree")


@dataclass(frozen=True)
class DistanceOptions:
    distance: str = "branch"
    metric: str = "birth-persistence"
    mode: str = "sum"

    def __post_init__(self):
        for field, names in (("distance", DISTANCE_NAMES), ("metric", METRIC_NAMES), ("mode", MODE_NAMES)):
            value = getattr(self, field)
            if value not in names:
                raise MTDistError(f"unknown {field} {value!r}, expected one of {names}")


def branch_mapping(t1: MergeTree, t2: MergeTree, opts: DistanceOptions):
    """Distance and optimal branch mapping under a mapping-producing distance:
    ``branch`` searches all decompositions, ``branch-fixed`` pairs the two
    elder-rule ones."""
    if opts.distance == "branch":
        fixed = None
    elif opts.distance == "branch-fixed":
        fixed = (elder_rule_decomposition(t1), elder_rule_decomposition(t2))
    else:
        raise MTDistError(
            f"distance {opts.distance!r} gives no branch mapping, use branch or branch-fixed"
        )
    return branch_mapping_distance(t1, t2, BaseMetric(opts.metric), opts.mode, fixed=fixed)


def pairwise_distance(t1: MergeTree, t2: MergeTree, opts: DistanceOptions) -> float:
    metric = BaseMetric(opts.metric)
    if opts.distance == "constrained":
        a = elder_labeled_inputs(t1, "merge-tree")
        b = elder_labeled_inputs(t2, "merge-tree")
        return constrained_edit_distance(a, b, metric, opts.mode)
    if opts.distance == "one-degree":
        a = elder_labeled_inputs(t1, "bdt")
        b = elder_labeled_inputs(t2, "bdt")
        return one_degree_distance(a, b, metric, opts.mode)
    return branch_mapping(t1, t2, opts)[0]


@dataclass(frozen=True)
class DistanceMatrix:
    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        n = len(self.labels)
        if vals.shape != (n, n):
            raise MTDistError("matrix shape does not match the label count")
        if (vals < 0).any():
            raise MTDistError("distance matrix must be non-negative")
        if np.abs(np.diagonal(vals)).max(initial=0.0) > 1e-9:
            raise MTDistError("distance matrix diagonal must be zero")
        if np.abs(vals - vals.T).max(initial=0.0) > 1e-9:
            raise MTDistError("distance matrix must be symmetric")

    def reordered(self, order) -> "DistanceMatrix":
        order = list(order)
        if sorted(order) != list(range(len(self.labels))):
            raise MTDistError("order must be a permutation of the member indices")
        vals = self.values[np.ix_(order, order)]
        return DistanceMatrix(
            labels=tuple(self.labels[i] for i in order), values=vals
        )


_WORKER_CTX: dict = {}


def _init_worker(trees, opts):
    _WORKER_CTX["trees"] = trees
    _WORKER_CTX["opts"] = opts


def _pair_worker(pair):
    i, j = pair
    trees = _WORKER_CTX["trees"]
    opts = _WORKER_CTX["opts"]
    return i, j, pairwise_distance(trees[i], trees[j], opts)


def compute_matrix(
    trees, labels, opts: DistanceOptions, jobs: int | None = None
) -> DistanceMatrix:
    """Symmetric matrix of pairwise distances over the upper triangle.

    ``jobs`` > 1 fans pairs out to a process pool; results are identical to
    the sequential path because each entry is an independent pure call.
    """
    trees = list(trees)
    labels = tuple(labels)
    if len(trees) != len(labels):
        raise MTDistError("need one label per tree")
    if len(trees) < 2:
        raise MTDistError("distance matrix needs at least two members")
    n = len(trees)
    values = np.zeros((n, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if jobs is None:
        jobs = os.cpu_count() or 1
    # a fork-based pool starts all its workers at once, needed or not
    jobs = min(jobs, len(pairs))
    if jobs > 1:
        # about four tasks per worker, so that one slow task cannot hold most of the work
        tasks = 4 * jobs
        chunksize = (len(pairs) + tasks - 1) // tasks
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(trees, opts)
        ) as pool:
            for i, j, d in pool.map(_pair_worker, pairs, chunksize=chunksize):
                values[i, j] = values[j, i] = d
    else:
        for i, j in pairs:
            d = pairwise_distance(trees[i], trees[j], opts)
            values[i, j] = values[j, i] = d
    return DistanceMatrix(labels=labels, values=values)


def single_linkage_order(values: np.ndarray):
    """Leaf order of a single-linkage agglomerative clustering.

    Deterministic: merges the closest active cluster pair, breaking ties by
    the smallest (i, j); a merged cluster concatenates the member lists of
    its parts. The result is the dendrogram's left-to-right leaf order.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    clusters: dict[int, list[int]] = {i: [i] for i in range(n)}
    dist = {
        (i, j): float(values[i, j]) for i in range(n) for j in range(i + 1, n)
    }
    while len(clusters) > 1:
        best = min(dist.items(), key=lambda kv: (kv[1], kv[0]))
        (a, b), _ = best
        merged = clusters[a] + clusters[b]
        del clusters[b]
        clusters[a] = merged
        del dist[(a, b)]
        for c in list(clusters):
            if c == a:
                continue
            ka = (min(a, c), max(a, c))
            kb = (min(b, c), max(b, c))
            dist[ka] = min(dist[ka], dist.pop(kb))
    (_, order), = clusters.items()
    return order


def format_csv(matrix: DistanceMatrix) -> str:
    out = ["label," + ",".join(matrix.labels)]
    for i, lab in enumerate(matrix.labels):
        row = ",".join(f"{x:.9f}" for x in matrix.values[i])
        out.append(f"{lab},{row}")
    return "\n".join(out) + "\n"


def write_csv(path, matrix: DistanceMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_csv(matrix))


def write_pgm(path, values: np.ndarray) -> None:
    """8-bit binary PGM (P5) heatmap, linearly scaled to the value range."""
    values = np.asarray(values, dtype=np.float64)
    lo = float(values.min())
    hi = float(values.max())
    if hi > lo:
        scaled = np.round(255.0 * (values - lo) / (hi - lo)).astype(np.uint8)
    else:
        scaled = np.zeros(values.shape, dtype=np.uint8)
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(scaled.tobytes())
