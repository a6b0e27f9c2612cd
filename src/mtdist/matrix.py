"""Distance-name dispatch, pairwise distance matrices, clustering order, and heatmap export."""

from __future__ import annotations

import concurrent.futures
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import baselines
from .branches import elder_rule_decomposition
from .errors import MTDistError, PreconditionError, _choice
from .mapping import _forest, _row_groups, branch_mapping_distance
from .metrics import METRIC_NAMES, MODE_NAMES, BaseMetric
from .trees import MergeTree, _layout_memo

DISTANCE_NAMES = ("branch", "branch-fixed", "constrained", "one-degree")


@dataclass(frozen=True)
class DistanceOptions:
    distance: str = "branch"
    metric: str = "birth-persistence"
    mode: str = "sum"

    def __post_init__(self):
        for field, names in (("distance", DISTANCE_NAMES), ("metric", METRIC_NAMES), ("mode", MODE_NAMES)):
            _choice(field, getattr(self, field), names)


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


# baseline name -> (the labelled input it compares, its distance in
# :mod:`baselines`); the distance is looked up per call, so that a wrapper
# set on the module attribute, a profiler's or a test's, sees every call
_BASELINES = {
    "constrained": ("merge-tree", "constrained_edit_distance"),
    "one-degree": ("bdt", "one_degree_distance"),
}


def pairwise_distance(t1: MergeTree, t2: MergeTree, opts: DistanceOptions) -> float:
    if opts.distance in _BASELINES:
        target, distance = _BASELINES[opts.distance]
        a, b = (baselines.elder_labeled_inputs(t, target) for t in (t1, t2))
        return getattr(baselines, distance)(a, b, BaseMetric(opts.metric), opts.mode)
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
    # one layout memo per worker process, which ends with the pool
    _WORKER_CTX["memo"] = {}


def _forest_rows(distance):
    """How :func:`compute_matrix` groups a row's partners under
    ``distance``: ``(source, sizing)``, where ``source(t)`` is what the
    distance call receives for tree t (its labelled input under a baseline)
    and ``sizing`` the table's size and bytes per entry for
    :func:`mapping._row_groups` (its defaults for the free table); None if
    every pair fills its own table."""
    if distance == "branch":
        return (lambda t: t), ()
    if distance in _BASELINES:
        target = _BASELINES[distance][0]

        def label(t):
            return baselines._label(t, target)

        return label, (lambda t: len(label(t)), baselines._ENTRY_BYTES)
    return None


def _row_segments(trees, opts, segments):
    """``(i, j, distance)`` for every partner j of every row segment ``(i,
    js)``. Under ``branch`` and the baselines, each group of a row's
    partners shares one joined table (:func:`mapping._row_groups`); every
    pair still runs :func:`pairwise_distance`."""
    out = []
    rows = _forest_rows(opts.distance)
    for i, js in segments:
        t = trees[i]
        partners = [trees[j] for j in js]
        for group in [range(len(js))] if rows is None else _row_groups(t, partners, *rows[1]):
            members = [partners[k] for k in group]
            # a group of several, held as its calls receive the trees
            held = [rows[0](u) for u in [t] + members] if rows and len(members) > 1 else [t]
            with _forest(held[0], held[1:]):
                out += [(i, js[k], pairwise_distance(t, partners[k], opts)) for k in group]
    return out


def _task_worker(segments):
    with _layout_memo(_WORKER_CTX["memo"]):
        return _row_segments(_WORKER_CTX["trees"], _WORKER_CTX["opts"], segments)


def compute_matrix(
    trees, labels, opts: DistanceOptions, jobs: int | None = None
) -> DistanceMatrix:
    """Symmetric matrix of pairwise distances over the upper triangle.

    The pairs run row by row: row i holds the pairs (i, j), j > i. Under
    ``branch``, ``constrained`` and ``one-degree`` a row's partners are
    split into consecutive groups whose joined table takes at most ``8 *
    mapping._FOREST_ENTRIES`` bytes, 8 per free entry and 48 per baseline
    entry; tree i (its labelled input under a baseline) is filled against
    each group once, and each pair reads its entry, or walks its mapping,
    from its own columns, which equal its own table's bit for bit. A pair
    whose own table is larger than that bound runs alone, and every pair is
    still held to the table limit (``SizeLimitError``). Fixed mode fills
    one table per pair.

    ``jobs`` > 1 fans the pairs out to a process pool in tasks of about
    ``len(pairs) / (4 * jobs)`` consecutive pairs, each a run of row
    segments; results are identical to the sequential path because each
    entry is the same pure computation. ``jobs=None`` means the CPU count,
    and any other ``jobs`` must be an integer of at least 1. Each tree's
    layouts are prepared once per call (per worker with a pool), and a
    group's table lives while its pairs run; none outlives the call.
    """
    trees = list(trees)
    labels = tuple(labels)
    if len(trees) != len(labels):
        raise PreconditionError("need one label per tree")
    if len(trees) < 2:
        raise PreconditionError("distance matrix needs at least two members")
    if jobs is None:
        jobs = os.cpu_count() or 1
    if not isinstance(jobs, numbers.Integral) or jobs < 1:
        raise PreconditionError(f"jobs must be at least 1 and an integer, got {jobs!r}")
    n = len(trees)
    values = np.zeros((n, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # a fork-based pool starts all its workers at once, needed or not
    jobs = min(jobs, len(pairs))
    if jobs > 1:
        # about four tasks per worker, so that one slow task cannot hold most of the work
        tasks = 4 * jobs
        size = (len(pairs) + tasks - 1) // tasks
        chunks = [_segments(pairs[k:k + size]) for k in range(0, len(pairs), size)]
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(trees, opts)
        ) as pool:
            done = [d for chunk in pool.map(_task_worker, chunks) for d in chunk]
    else:
        with _layout_memo():
            done = _row_segments(trees, opts, _segments(pairs))
    for i, j, d in done:
        values[i, j] = values[j, i] = d
    return DistanceMatrix(labels=labels, values=values)


def _segments(pairs):
    """The pairs ``pairs``, in order, as row segments ``(i, js)``."""
    out = []
    for i, j in pairs:
        if not out or out[-1][0] != i:
            out.append((i, []))
        out[-1][1].append(j)
    return out


def single_linkage_order(values: np.ndarray):
    """Leaf order of a single-linkage agglomerative clustering.

    Deterministic: merges the closest active cluster pair, breaking ties by
    the smallest (i, j); a merged cluster concatenates the member lists of
    its parts. The result is the dendrogram's left-to-right leaf order.
    ``values`` must be a square matrix of finite values; only its upper
    triangle is read.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if values.shape != (n, n) or not np.isfinite(values).all():
        raise PreconditionError("single linkage needs a square matrix of finite distances")
    # cluster distances, symmetric, with +inf on the diagonal and at merged
    # clusters; so the first minimum in row-major order is the smallest
    # (i, j), i < j, among the closest pairs, and a merge keeps the smaller id
    dist = np.triu(values, 1)
    dist += dist.T
    np.fill_diagonal(dist, np.inf)
    members = [[i] for i in range(n)]
    for _ in range(n - 1):
        a, b = divmod(int(dist.argmin()), n)
        members[a] += members[b]
        row = np.minimum(dist[a], dist[b])
        row[a] = np.inf
        dist[a] = dist[:, a] = row
        dist[b] = dist[:, b] = np.inf
    return members[0] if n else []


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
