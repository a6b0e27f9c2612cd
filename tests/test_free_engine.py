"""The free-mode wavefront engine against the per-node-pair reference DP.

``reference_free_dp.py`` keeps the earlier engine verbatim. Both evaluate
the same options in the same order on the same float64 values, so distances
must be equal exactly and the mappings identical, ties included.
"""

import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtdist.mapping as mapping_module
from mtdist import (
    DistanceOptions,
    MergeTree,
    branch_mapping_distance,
    compute_matrix,
    delete_tree_cost,
    validate_branch_mapping,
)
from mtdist.fields import compute_merge_tree, simplify
from mtdist.generators import PEAK_SIMPLIFY_THRESHOLD, generate_ensemble, generate_periodic_series, outlier_spec
from mtdist.metrics import METRIC_NAMES, MODE_NAMES, BaseMetric, dp_terms
from conftest import grow_merge_tree, random_merge_tree
from reference_free_dp import reference_delete_cost, reference_free_mapping

MAX_DEGREE = 5


@st.composite
def merge_trees(draw, max_nodes=40):
    """Valid merge trees of up to ``max_nodes`` nodes with saddles of degree
    2..MAX_DEGREE and small integer value steps, so values repeat."""
    parent = [-1, 0]
    children = [[1], []]
    grows = draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(2, MAX_DEGREE)), max_size=20))
    for pick, k in grows:
        grow = [v for v in range(1, len(parent)) if len(children[v]) < MAX_DEGREE]
        v = grow[pick % len(grow)]
        add = k if not children[v] else 1
        if len(parent) + add > max_nodes:
            continue
        for _ in range(add):
            children[v].append(len(parent))
            children.append([])
            parent.append(v)
    steps = draw(st.lists(st.integers(1, 3), min_size=len(parent), max_size=len(parent)))
    values = [float(draw(st.integers(0, 2)))]
    for v in range(1, len(parent)):
        values.append(values[parent[v]] + steps[v])
    return MergeTree(values, parent)


def assert_same_as_reference(t1, t2, metric, mode):
    d, mapping = branch_mapping_distance(t1, t2, metric, mode)
    ref_d, ref_pairs, ref_dels, ref_inss = reference_free_mapping(t1, t2, metric, mode)
    assert d == ref_d
    assert mapping.pairs == ref_pairs
    assert mapping.deletions == ref_dels
    assert mapping.insertions == ref_inss
    assert validate_branch_mapping(mapping).ok


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(merge_trees(), merge_trees())
def test_equal_to_reference_engine(t1, t2):
    for kind in METRIC_NAMES:
        metric = BaseMetric(kind)
        for mode in MODE_NAMES:
            assert_same_as_reference(t1, t2, metric, mode)
            assert delete_tree_cost(t1, metric, mode) == reference_delete_cost(t1, metric, mode)
            _, deleted = branch_mapping_distance(t1, None, metric, mode)
            _, inserted = branch_mapping_distance(None, t2, metric, mode)
            for mapping, dec, branches in (
                (deleted, deleted.decomposition1, deleted.deletions),
                (inserted, inserted.decomposition2, inserted.insertions),
            ):
                assert validate_branch_mapping(mapping).ok
                assert dec.branches == branches


@pytest.mark.parametrize(
    "slice_states, chunk_values",
    [(1, 64), (10**9, 1 << 18)],
    ids=["all-slices-small-chunks", "all-flat"],
)
def test_both_fill_paths_equal_reference(monkeypatch, slice_states, chunk_values):
    monkeypatch.setattr(mapping_module, "_SLICE_STATES", slice_states)
    monkeypatch.setattr(mapping_module, "_CHUNK_VALUES", chunk_values)
    rng = np.random.default_rng(31)
    metric = BaseMetric("euclidean")
    for _ in range(6):
        t1 = grow_merge_tree(rng, int(rng.integers(20, 50)), extra_child_prob=0.3)
        t2 = random_merge_tree(rng, max_leaves=10, max_children=4, integer=True)
        for mode in MODE_NAMES:
            assert_same_as_reference(t1, t2, metric, mode)
            assert_same_as_reference(t2, t1, metric, mode)


def test_peak_memory_is_the_table_and_a_few_chunks(monkeypatch):
    # Beside the pair table and the two trees' layouts (measured here), the
    # call keeps no per-state record of the winning options, and row chunks
    # bound its per-state temporaries: wave 0's grid and each slice chunk's
    # options take a few chunk-sized buffers at a time. Saddle sides are
    # costed once per node pair of a rectangle, unchunked (about 20 KB on
    # these trees); only their spread over the states is chunked. Every
    # rectangle takes the chunked slice path here.
    monkeypatch.setattr(mapping_module, "_SLICE_STATES", 1)
    monkeypatch.setattr(mapping_module, "_CHUNK_VALUES", 1 << 14)
    rng = np.random.default_rng(5)
    t1, t2 = grow_merge_tree(rng, 150, 0.05), grow_merge_tree(rng, 150, 0.05)
    metric = BaseMetric("euclidean")
    table = (sum(t1.depths) + 1) * (sum(t2.depths) + 1) * 8
    tracemalloc.start()
    try:
        layouts = [mapping_module._Flat(t, metric, True) for t in (t1, t2)]
        layout_bytes = tracemalloc.get_traced_memory()[0]
        del layouts
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        branch_mapping_distance(t1, t2, metric, "l2")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    chunk = 8 * (1 << 14)  # bytes of one row chunk's values
    assert table > 7 * 2**20
    assert peak <= table + layout_bytes + 8 * chunk


def bushy_tree(rng, degrees):
    """Root, entry, then one saddle per entry of ``degrees``, each grown at a
    random leaf with that many children; integer value steps, so values
    repeat across the two trees of a pair."""
    values, parent, leaves = [0.0, 1.0], [-1, 0], [1]
    for k in degrees:
        leaf = leaves.pop(int(rng.integers(len(leaves))))
        for _ in range(k):
            leaves.append(len(values))
            values.append(values[leaf] + float(rng.integers(1, 4)))
            parent.append(leaf)
    return MergeTree(values, parent)


@pytest.mark.parametrize("slice_states", [1, 10**9], ids=["all-slices", "all-flat"])
def test_wide_saddles_on_both_fill_paths_equal_reference(monkeypatch, slice_states):
    # Saddles of 4-8 children: their sides are costed per pair of nodes and,
    # on the slice path, spread over row chunks of one row each; the walk
    # re-derives the matched options through all three matching routes,
    # (c - 1) x (d - 1) instances of at most 3 x 3, at most WIDE columns and
    # wider.
    monkeypatch.setattr(mapping_module, "_SLICE_STATES", slice_states)
    monkeypatch.setattr(mapping_module, "_CHUNK_VALUES", 64)
    rng = np.random.default_rng(17)
    metric = BaseMetric("birth-persistence")
    for degrees in ([8, 2, 4], [5, 2, 6], [4, 7, 2, 3]):
        t1 = bushy_tree(rng, degrees)
        t2 = bushy_tree(rng, degrees[::-1] + [2])
        assert max(map(len, t1.children)) >= 4 and max(map(len, t2.children)) >= 4
        for mode in MODE_NAMES:
            assert_same_as_reference(t1, t2, metric, mode)
            assert_same_as_reference(t2, t1, metric, mode)


def wide_tree(width, entry, shift):
    """Root 0, then a saddle at ``entry`` with ``width`` children: the first a
    saddle with two leaves, the last the highest leaf (value 20)."""
    values = [0.0, entry]
    parent = [-1, 0]
    for k in range(width):
        values.append(20.0 if k == width - 1 else entry + 1.0 + (3 * k + shift) % 7)
        parent.append(1)
    values += [values[2] + 1.0, values[2] + 2.5]
    parent += [2, 2]
    return MergeTree(values, parent)


def test_degree_16_saddles_take_the_last_of_all_options():
    # 16 + 16 + 16 * 16 options per state, the last 256 matching 15 x 15
    # children by the augmenting-path solver. The saddles sit at different
    # heights, so the cheapest mapping pairs the two value-20 leaves on the
    # main branches, through the last child slots, the last of all options.
    t1, t2 = wide_tree(16, 1.0, 0), wide_tree(16, 3.0, 3)
    for mode in MODE_NAMES:
        assert_same_as_reference(t1, t2, BaseMetric("birth-persistence"), mode)
        _, mapping = branch_mapping_distance(t1, t2, BaseMetric("birth-persistence"), mode)
        assert mapping.pairs[-1][0].label == (0.0, 20.0)
        assert mapping.pairs[-1][1].label == (0.0, 20.0)


# ---------------------------------------------------------------------------
# wave-parallel fill: row chunks on helper threads
# ---------------------------------------------------------------------------

def threaded_waves(monkeypatch, chunk=4096):
    """Every rectangle of at least 16 states on the slice path, in chunks of
    ``chunk`` values, so that most waves hold two full chunks and go to
    threads."""
    monkeypatch.setattr(mapping_module, "_SLICE_STATES", 16)
    monkeypatch.setattr(mapping_module, "_CHUNK_VALUES", chunk)


def fill_threads(monkeypatch, threads):
    """Fill waves that cross the gate on ``threads`` threads."""
    monkeypatch.setattr(mapping_module, "_fill_threads", lambda: threads)


def started_threads(monkeypatch):
    """A list that gets every thread started from now on, in this process."""
    started = []
    start = threading.Thread.start

    def counting(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


def free_table(t1, t2, metric):
    f1, f2 = (mapping_module._Flat(t, metric, False) for t in (t1, t2))
    return mapping_module._pair_table(f1, f2, dp_terms(metric, False)[0])


def expected_table(t1, t2):
    with pytest.MonkeyPatch.context() as monkeypatch:
        fill_threads(monkeypatch, 1)
        return free_table(t1, t2, BaseMetric("euclidean"))


def test_tables_and_mappings_equal_across_thread_counts(monkeypatch):
    # The wide-saddle pairs have wide rows and few waves: smaller chunks let
    # one of their waves go to threads.
    rng = np.random.default_rng(23)
    pairs = [(grow_merge_tree(rng, 150, 0.05), grow_merge_tree(rng, 150, 0.05), 4096)]
    pairs += [(bushy_tree(rng, d), bushy_tree(rng, d[::-1] + [2]), 256) for d in ([8, 2, 4], [4, 7, 2, 3])]
    metric = BaseMetric("birth-persistence")
    started = started_threads(monkeypatch)
    runs = {}
    for threads in (1, 2, 3):
        fill_threads(monkeypatch, threads)
        run = []
        for a, b, chunk in pairs:
            threaded_waves(monkeypatch, chunk)
            before = len(started)
            # the sum table, and the l2 table through a mapping
            run.append((free_table(a, b, metric), branch_mapping_distance(a, b, metric, "l2"), len(started) - before))
        runs[threads] = run
    # a helper per further thread in every wave that crosses the gate, but
    # not more threads than the wave holds full chunks
    helpers = {threads: [h for _, _, h in run] for threads, run in runs.items()}
    assert helpers[1] == [0, 0, 0]
    assert all(0 < two < three <= 2 * two for two, three in zip(helpers[2], helpers[3]))
    for threads in (2, 3):
        for (table, mapping, _), (expected, expected_mapping, _) in zip(runs[threads], runs[1]):
            assert np.array_equal(table, expected)
            assert mapping == expected_mapping


def test_every_chunk_filled_once_under_frequent_thread_switches(monkeypatch):
    # More fill threads than CPUs, switching every microsecond: a chunk taken
    # twice or never would change the tables, which are all kept alive so
    # that none can start from another's memory.
    threaded_waves(monkeypatch)
    rng = np.random.default_rng(53)
    t1, t2 = grow_merge_tree(rng, 80, 0.1), grow_merge_tree(rng, 80, 0.1)
    expected = expected_table(t1, t2)
    fill_threads(monkeypatch, len(os.sched_getaffinity(0)) + 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tables = [free_table(t1, t2, BaseMetric("euclidean")) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(table, expected) for table in tables)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(merge_trees(), merge_trees())
def test_equal_to_reference_engine_at_two_threads(t1, t2):
    with pytest.MonkeyPatch.context() as monkeypatch:
        threaded_waves(monkeypatch, 64)
        fill_threads(monkeypatch, 2)
        for kind in METRIC_NAMES:
            for mode in MODE_NAMES:
                assert_same_as_reference(t1, t2, BaseMetric(kind), mode)


@pytest.mark.parametrize("threads", [2, 3, 4])
def test_peak_memory_with_more_fill_threads(monkeypatch, threads):
    # The threads split the chunk budget, so the same bound holds: the
    # temporaries in flight stay one chunk's worth. With a full chunk on
    # each of three threads, the peak passed it.
    fill_threads(monkeypatch, threads)
    started = started_threads(monkeypatch)
    test_peak_memory_is_the_table_and_a_few_chunks(monkeypatch)
    assert started


@pytest.mark.parametrize("per_row, threads", [(64, 8), (1000, 4), (3000, 1)])
def test_values_in_flight_stay_within_one_chunk(monkeypatch, per_row, threads):
    # Eight CPUs and a wave of about twenty chunks: rows that fit an eighth
    # of a chunk go to eight threads; wider rows to fewer, so that every
    # thread's row still fits its share of the budget.
    monkeypatch.setattr(mapping_module, "_CHUNK_VALUES", 4096)
    fill_threads(monkeypatch, 8)
    rows = 20 * 4096 // per_row + 1
    lock, in_flight, peak, filled, used = threading.Lock(), [0], [0], [], set()

    def fill(r0, r1):
        with lock:
            in_flight[0] += (r1 - r0) * per_row
            peak[0] = max(peak[0], in_flight[0])
            used.add(threading.get_ident())
        time.sleep(0.001)
        with lock:
            in_flight[0] -= (r1 - r0) * per_row
            filled.extend(range(r0, r1))

    mapping_module._fill_chunks([(0, rows, per_row, lambda: fill)])
    assert sorted(filled) == list(range(rows))
    assert peak[0] <= 4096
    assert 1 <= len(used) <= threads


@pytest.mark.parametrize("fail", [None, "chunk", "sides"], ids=["returns", "a-chunk-raises", "a-side-raises"])
def test_no_fill_thread_outlives_the_table(monkeypatch, fail):
    # Chunks on helper threads take 5 ms longer, so a helper left unjoined
    # would still be running when the table returns. A chunk raises on any
    # thread; saddle sides raise on the calling thread while helpers fill.
    threaded_waves(monkeypatch)
    fill_threads(monkeypatch, 3)
    started = started_threads(monkeypatch)
    slice_fill, node_sides = mapping_module._slice_fill, mapping_module._node_sides

    def slow_on_helpers(f1, f2, T, h1, h2):
        fill = slice_fill(f1, f2, T, h1, h2)

        def slow_fill(r0, r1):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.005)
            if fail == "chunk" and f1.rows[h1 + 1] - f1.rows[h1] > 4:  # the rectangles of more than four rows
                raise RuntimeError("chunk failed")
            fill(r0, r1)

        return slow_fill

    def failing_sides(f1, f2, T, *args):
        if started and any(t.is_alive() for t in started):
            raise RuntimeError("sides failed")
        return node_sides(f1, f2, T, *args)

    monkeypatch.setattr(mapping_module, "_slice_fill", slow_on_helpers)
    if fail == "sides":
        monkeypatch.setattr(mapping_module, "_node_sides", failing_sides)
    rng = np.random.default_rng(41)
    t1, t2 = grow_merge_tree(rng, 80, 0.1), grow_merge_tree(rng, 80, 0.1)
    before = threading.active_count()
    if fail:
        with pytest.raises(RuntimeError, match=f"{fail} failed"):
            free_table(t1, t2, BaseMetric("euclidean"))
    else:
        assert np.array_equal(free_table(t1, t2, BaseMetric("euclidean")), expected_table(t1, t2))
    assert started
    assert threading.active_count() == before
    assert not any(t.is_alive() for t in started)


FORK_AFTER_A_THREADED_FILL = """
import sys, threading, time, warnings

import numpy as np

import mtdist.mapping as mapping_module
from conftest import grow_merge_tree
from mtdist import DistanceOptions, branch_mapping_distance, compute_matrix
from mtdist.metrics import BaseMetric


def os_threads():
    with open("/proc/self/status") as fh:
        return int(fh.read().split("Threads:")[1].split()[0])


if os_threads() != 1:
    sys.exit(3)  # a library holds threads of its own: nothing to show
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: (started.append(self), start(self))
mapping_module._SLICE_STATES, mapping_module._CHUNK_VALUES = 16, 1024
mapping_module._fill_threads = lambda: 2
rng = np.random.default_rng(43)
trees = [grow_merge_tree(rng, 40, 0.1) for _ in range(3)]
branch_mapping_distance(trees[0], trees[1], BaseMetric("euclidean"))
if not started:
    sys.exit("no wave went to threads")
# the operating system may end a thread a few milliseconds after its join
deadline = time.monotonic() + 2.0
while os_threads() > 1 and time.monotonic() < deadline:
    time.sleep(0.001)
if os_threads() > 1:
    sys.exit("a fill thread is still running 2 s after the fill")
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    compute_matrix(trees, "abc", DistanceOptions("branch", "euclidean", "sum"), jobs=2)
sys.exit("; ".join(str(w.message) for w in caught if "multi-threaded" in str(w.message)) or 0)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="counts threads in /proc")
def test_no_fork_of_a_multithreaded_process_after_a_threaded_fill():
    # Python 3.12 on warns when a process forks while it runs more than one
    # thread, and numpy's BLAS may start threads of its own, so a fresh
    # interpreter with one BLAS thread fills a table on two threads and then
    # forks compute_matrix's pool. The warning is recorded rather than made
    # an error, so that the check does not depend on how os.fork reports it.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), os.path.join(root, "tests")])
    proc = subprocess.run(
        [sys.executable, "-c", FORK_AFTER_A_THREADED_FILL], env=env, capture_output=True, text=True, timeout=120
    )
    if proc.returncode == 3:
        pytest.skip("the interpreter runs threads of its own before any fill")
    assert proc.returncode == 0, proc.stderr


def test_pool_workers_fill_with_one_thread(monkeypatch):
    # The workers fork from this process and inherit its settings: three
    # CPUs to run on and small chunks, so their waves would cross the gate.
    # Starting a thread in a worker fails its pair, and so the matrix.
    threaded_waves(monkeypatch, 1024)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    parent = os.getpid()
    start = threading.Thread.start
    started = []

    def start_in_parent_only(self):
        if os.getpid() != parent:
            raise AssertionError("a pool worker started a thread")
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", start_in_parent_only)
    rng = np.random.default_rng(47)
    trees = [grow_merge_tree(rng, 40, 0.1) for _ in range(4)]
    opts = DistanceOptions("branch", "euclidean", "sum")
    serial = compute_matrix(trees, "abcd", opts, jobs=1)
    assert started  # in this process, the same pairs fill on threads
    assert np.array_equal(compute_matrix(trees, "abcd", opts, jobs=2).values, serial.values)



# ---------------------------------------------------------------------------
# forest rows: one tree against the joined layouts of its partners
# ---------------------------------------------------------------------------

def c07_trees():
    """The C07 outlier ensemble's 20 trees."""
    fields = generate_ensemble(outlier_spec(members=20, outlier_index=7, seed=1))
    return [simplify(compute_merge_tree(f), PEAK_SIMPLIFY_THRESHOLD) for f in fields]


def c08_trees(frames):
    """Frames of the C08 periodic series, simplified as C08 does."""
    series = generate_periodic_series(length=225, period=75, seed=0)
    return [simplify(compute_merge_tree(series[k]), 0.05) for k in frames]


def forest_rows():
    """``(tree, partners)`` rows: the C07 outlier against the rest, C08
    frames, wide saddles on both sides, partners of unequal heights and a
    row of one partner."""
    rng = np.random.default_rng(53)
    c07, c08 = c07_trees(), c08_trees([0, 37, 74, 112, 150, 187, 224])
    wide = [grow_merge_tree(rng, n, 0.4) for n in (9, 14, 25, 31, 40)]
    uneven = [MergeTree([0.0, 1.0], [-1, 0]), bushy_tree(rng, [6, 2]), grow_merge_tree(rng, 60, 0.05), wide[0]]
    return [
        (c07[7], c07[:7] + c07[8:]),
        (c08[0], c08[1:]),
        (wide[2], wide[:2] + wide[3:]),
        (grow_merge_tree(rng, 30, 0.1), uneven),
        (wide[3], [bushy_tree(rng, [3, 5, 2])]),
    ]


def member_columns(tree, view, flat):
    """The columns of ``tree``'s states in the forest, through its member
    ``view``, and in its own layout ``flat``, state by state."""
    states = [(w, j) for w in tree.preorder[1:] for j in range(tree.depths[w])]
    return [view.off[w] + j for w, j in states], [flat.off[w] + j for w, j in states]


@pytest.mark.parametrize("slice_states", [mapping_module._SLICE_STATES, 1, 10**9], ids=["default", "all-slices", "all-flat"])
def test_forest_columns_equal_pair_tables(monkeypatch, slice_states):
    monkeypatch.setattr(mapping_module, "_SLICE_STATES", slice_states)
    for k, (tree, partners) in enumerate(forest_rows()):
        metric, squared = (BaseMetric("euclidean"), True) if k % 2 else (BaseMetric("birth-persistence"), False)
        pair = dp_terms(metric, squared)[0]
        f1 = mapping_module._Flat(tree, metric, squared)
        flats = [mapping_module._Flat(t, metric, squared) for t in partners]
        forest, views = mapping_module._join(flats)
        T = mapping_module._pair_table(f1, forest, pair)
        assert T.shape == (f1.S + 1, sum(f.S for f in flats) + 1)
        assert forest.H == max(f.H for f in flats)
        seen = []
        for t, f, view in zip(partners, flats, views):
            assert (view.children, view.entry, view.last, view.S) == (t.children, f.entry, f.last, forest.S)
            joined, own = member_columns(t, view, f)
            assert np.array_equal(T[:, joined], mapping_module._pair_table(f1, f, pair)[:, own])
            seen += joined
        assert sorted(seen) == list(range(forest.S))  # each joined column is one member's
        assert np.isinf(T[:, forest.S]).all() and np.isinf(T[f1.S]).all()
        if len(partners) == 1:  # a forest of one tree is that tree's layout
            assert np.array_equal(T, mapping_module._pair_table(f1, flats[0], pair))
