"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints one PASS/FAIL line. Run with ``pytest -v -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from mtdist import (
    BranchDecomposition,
    MergeTree,
    aggregate,
    branch_mapping_distance,
    delete_tree_cost,
    elder_rule_decomposition,
    enumerate_branch_decompositions,
    induced_node_mapping,
    oracle_distance,
    validate_branch_mapping,
)
from mtdist.baselines import (
    constrained_edit_distance,
    elder_labeled_inputs,
    one_degree_distance,
)
from mtdist.fields import compute_merge_tree, simplify
from mtdist.generators import (
    PEAK_SIMPLIFY_THRESHOLD,
    generate_ensemble,
    generate_periodic_series,
    outlier_spec,
)
from mtdist.matrix import DISTANCE_NAMES, DistanceOptions, compute_matrix, pairwise_distance
from mtdist.metrics import METRIC_NAMES, BaseMetric
from conftest import grow_merge_tree, random_merge_tree

TOL = 1e-9
BP = BaseMetric("birth-persistence")
PERS = BaseMetric("persistence")

FIG5A = MergeTree([0.0, 3.0, 10.0, 6.0], [-1, 0, 1, 1])
FIG5B = MergeTree([0.0, 5.0, 10.0, 8.0], [-1, 0, 1, 1])
FIG5C = MergeTree([0.0, 6.0, 11.0, 8.0], [-1, 0, 1, 1])


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed: {detail}"


def small_tree(rng, max_leaves=6, max_nodes=12):
    while True:
        t = random_merge_tree(rng, max_leaves=max_leaves)
        if len(t) <= max_nodes:
            return t


def pair_labels(mapping):
    return sorted((a.label, b.label) for a, b in mapping.pairs)


def test_c01_fig5_golden_triple():
    expected = {
        ("a", "b"): (2.0, [((0.0, 10.0), (0.0, 10.0)), ((3.0, 6.0), (5.0, 8.0))]),
        ("b", "c"): (1.0, [((0.0, 8.0), (0.0, 8.0)), ((5.0, 10.0), (6.0, 11.0))]),
        ("a", "c"): (5.0, [((0.0, 10.0), (0.0, 11.0)), ((3.0, 6.0), (6.0, 8.0))]),
    }
    trees = {"a": FIG5A, "b": FIG5B, "c": FIG5C}
    branch_mapping_distance(FIG5A, FIG5B, BP, "sum")  # warm-up
    ok = True
    details = []
    for (x, y), (want, pairs) in expected.items():
        times = []
        for _ in range(10):
            t0 = time.perf_counter()
            d, mapping = branch_mapping_distance(trees[x], trees[y], BP, "sum")
            times.append(time.perf_counter() - t0)
        ok &= abs(d - want) <= TOL
        ok &= pair_labels(mapping) == pairs
        ok &= min(times) < 1e-3
        details.append(f"d({x},{y})={d:g} in {min(times) * 1e3:.2f}ms")
    report("C01 fig5 golden triple", ok, "; ".join(details))


def test_c02_triangle_inequality_violation_witness():
    d_ab = branch_mapping_distance(FIG5A, FIG5B, BP, "sum")[0]
    d_bc = branch_mapping_distance(FIG5B, FIG5C, BP, "sum")[0]
    d_ac = branch_mapping_distance(FIG5A, FIG5C, BP, "sum")[0]
    ok = d_ac > d_ab + d_bc
    report("C02 non-metric witness", ok, f"{d_ac:g} > {d_ab:g} + {d_bc:g}")


def test_c03_metric_axioms_on_fixed_decompositions():
    rng = np.random.default_rng(1001)
    worst = 0.0
    ok = True
    for _ in range(500):
        trees = [small_tree(rng) for _ in range(3)]
        decs = [elder_rule_decomposition(t) for t in trees]
        for kind in METRIC_NAMES:
            metric = BaseMetric(kind)

            def dist(i, j):
                return branch_mapping_distance(
                    trees[i], trees[j], metric, "sum", fixed=(decs[i], decs[j])
                )[0]

            d01, d12, d02 = dist(0, 1), dist(1, 2), dist(0, 2)
            gap = d02 - (d01 + d12)
            worst = max(worst, gap)
            ok &= gap <= TOL
            d10 = branch_mapping_distance(
                trees[1], trees[0], metric, "sum", fixed=(decs[1], decs[0])
            )[0]
            ok &= abs(d01 - d10) <= TOL
            self_d = branch_mapping_distance(
                trees[0], trees[0], metric, "sum", fixed=(decs[0], decs[0])
            )[0]
            ok &= abs(self_d) <= TOL
            ok &= min(d01, d12, d02) >= -TOL
    report(
        "C03 metric axioms, 500 triples x 4 metrics (fixed elder)",
        ok,
        f"worst triangle gap {worst:.2e}",
    )


def test_c04_oracle_equivalence():
    rng = np.random.default_rng(2002)
    t_start = time.perf_counter()
    worst = 0.0
    ok = True
    for _ in range(200):
        t1 = random_merge_tree(rng, max_leaves=7)
        t2 = random_merge_tree(rng, max_leaves=7)
        for kind in METRIC_NAMES:
            metric = BaseMetric(kind)
            for mode in ("sum", "l2"):
                d, mapping = branch_mapping_distance(t1, t2, metric, mode)
                o = oracle_distance(t1, t2, metric, mode)
                worst = max(worst, abs(d - o))
                ok &= abs(d - o) <= TOL
                ok &= validate_branch_mapping(mapping).ok
    elapsed = time.perf_counter() - t_start
    ok &= elapsed < 60.0
    report(
        "C04 oracle equivalence, 200 pairs x 4 metrics x 2 modes",
        ok,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_c05_fig3_branch_cost():
    left = MergeTree([0.0, 3.0, 12.0, 9.0, 12.0, 11.0], [-1, 0, 1, 1, 3, 3])
    right = MergeTree([0.0, 3.0, 12.0, 12.0], [-1, 0, 1, 1])
    d = branch_mapping_distance(left, right, PERS, "sum")[0]
    ok = abs(d - 2.0) <= TOL and abs(d - 8.0) > 1.0
    report("C05 fig3 deletion costs 2, not the arc-based 8", ok, f"d={d:g}")


def test_c06_hierarchy_and_search_space():
    rng = np.random.default_rng(3003)
    metric = BaseMetric("euclidean")
    ok = True
    for _ in range(200):
        t1 = random_merge_tree(rng, max_leaves=6)
        t2 = random_merge_tree(rng, max_leaves=6)
        b1 = elder_labeled_inputs(t1, "bdt")
        b2 = elder_labeled_inputs(t2, "bdt")
        dc = constrained_edit_distance(b1, b2, metric, "sum")
        d1 = one_degree_distance(b1, b2, metric, "sum")
        ok &= dc <= d1 + TOL
        free = branch_mapping_distance(t1, t2, metric, "sum")[0]
        fixed = branch_mapping_distance(
            t1, t2, metric, "sum",
            fixed=(elder_rule_decomposition(t1), elder_rule_decomposition(t2)),
        )[0]
        ok &= free <= fixed + TOL
    report("C06 constrained <= one-degree and free <= fixed (200 pairs)", ok)


@pytest.fixture(scope="module")
def outlier_trees():
    spec = outlier_spec(members=20, outlier_index=7, seed=1)
    fields = generate_ensemble(spec)
    return [simplify(compute_merge_tree(f), PEAK_SIMPLIFY_THRESHOLD) for f in fields]


def _separation(values, outlier):
    n = len(values)
    others = [i for i in range(n) if i != outlier]
    outlier_min = min(values[outlier][j] for j in others)
    rest_max = max(values[i][j] for i in others for j in others if i != j)
    return outlier_min, rest_max


def test_c07_outlier_experiment(outlier_trees):
    labels = [f"m{i}" for i in range(20)]
    t0 = time.perf_counter()
    mat_b = compute_matrix(
        outlier_trees, labels, DistanceOptions("branch", "euclidean", "l2"), jobs=2
    )
    elapsed = time.perf_counter() - t0
    mat_1 = compute_matrix(
        outlier_trees, labels, DistanceOptions("one-degree", "euclidean", "l2"), jobs=1
    )
    omin_b, rmax_b = _separation(mat_b.values, 7)
    omin_1, rmax_1 = _separation(mat_1.values, 7)
    branch_separates = omin_b > rmax_b
    one_degree_fails = not (omin_1 > rmax_1)
    ok = branch_separates and one_degree_fails and elapsed < 30.0
    report(
        "C07 outlier ensemble: branch separates, one-degree does not",
        ok,
        f"branch {omin_b:.3f}>{rmax_b:.3f}, one-degree {omin_1:.3f} vs {rmax_1:.3f}, "
        f"d_B matrix {elapsed:.1f}s",
    )


def test_c08_periodicity_banding():
    series = generate_periodic_series(length=225, period=75, seed=0)
    trees = [simplify(compute_merge_tree(f), 0.05) for f in series]
    labels = [f"t{i}" for i in range(len(trees))]
    mat = compute_matrix(
        trees, labels, DistanceOptions("branch", "euclidean", "l2"), jobs=2
    )
    band = 75 // 2 + 1
    bad_rows = []
    for i in range(225):
        candidates = [j for j in range(225) if abs(i - j) >= band]
        j_min = min(candidates, key=lambda j: mat.values[i, j])
        if not 74 <= abs(i - j_min) <= 76:
            bad_rows.append((i, abs(i - j_min)))
    report(
        "C08 periodicity: off-band minima at lag 74..76 for all 225 rows",
        not bad_rows,
        f"{len(bad_rows)} violations" + (f", first {bad_rows[:3]}" if bad_rows else ""),
    )


def test_c09_deletion_cost_invariance():
    rng = np.random.default_rng(4004)
    worst = 0.0
    ok = True
    for _ in range(100):
        t = random_merge_tree(rng, max_leaves=10)
        want = delete_tree_cost(t, PERS, "sum")
        for dec in enumerate_branch_decompositions(t, max_leaves=10):
            got = sum(b.persistence for b in dec.branches)
            worst = max(worst, abs(got - want))
            ok &= abs(got - want) <= TOL
    report("C09 deletion cost decomposition-invariant (100 trees)", ok, f"worst {worst:.2e}")


def test_c10_scaling():
    rng = np.random.default_rng(5005)
    metric = BaseMetric("euclidean")
    t1 = grow_merge_tree(rng, 200)
    t2 = grow_merge_tree(rng, 200)
    t0 = time.perf_counter()
    branch_mapping_distance(t1, t2, metric, "l2")
    small = time.perf_counter() - t0
    t3 = grow_merge_tree(rng, 350)
    t4 = grow_merge_tree(rng, 350)
    t0 = time.perf_counter()
    branch_mapping_distance(t3, t4, metric, "l2")
    large = time.perf_counter() - t0
    ok = small < 10.0 and large < 120.0
    report(
        "C10 scaling",
        ok,
        f"{len(t1)}x{len(t2)} nodes in {small:.2f}s (<10s), "
        f"{len(t3)}x{len(t4)} in {large:.2f}s (<120s)",
    )


def test_c11_induced_node_mappings():
    rng = np.random.default_rng(6006)
    ok = True
    for _ in range(200):
        t1 = random_merge_tree(rng, max_leaves=6)
        t2 = random_merge_tree(rng, max_leaves=6)
        _, mapping = branch_mapping_distance(t1, t2, BP, "sum")
        nodes = induced_node_mapping(mapping)
        firsts = [a for a, _ in nodes]
        seconds = [b for _, b in nodes]
        ok &= len(set(firsts)) == len(firsts)
        ok &= len(set(seconds)) == len(seconds)
        for a, b in nodes:
            anc_a = set(t1.ancestors(a))
            anc_b = set(t2.ancestors(b))
            for a2, b2 in nodes:
                if a2 in anc_a:
                    ok &= b2 in anc_b
    report("C11 induced node mappings one-to-one and ancestor-preserving", ok)


def test_c12_memo_table_bound():
    rng = np.random.default_rng(7007)
    worst = 0.0
    ok = True
    for _ in range(100):
        t1 = random_merge_tree(rng, max_leaves=7)
        t2 = random_merge_tree(rng, max_leaves=7)
        _, mapping = branch_mapping_distance(t1, t2, BP, "sum")
        stats = mapping.stats
        ok &= stats.keys <= stats.bound
        worst = max(worst, stats.keys / stats.bound if stats.bound else 0.0)
    for n in (60, 120):
        t1 = grow_merge_tree(rng, n)
        t2 = grow_merge_tree(rng, n)
        _, mapping = branch_mapping_distance(t1, t2, BP, "sum")
        ok &= mapping.stats.keys <= mapping.stats.bound
        worst = max(worst, mapping.stats.keys / mapping.stats.bound)
    report("C12 memo keys within |T1| d1 |T2| d2", ok, f"max fill ratio {worst:.2f}")


def test_c13_stability_under_small_perturbations():
    """The abstract's claim: branch mappings are less susceptible to
    instabilities from small-scale perturbations. Swapping the values
    10 + eps and 10 - eps of two leaves flips the elder rule at the root's
    saddle: the free distance follows eps (4 eps here), while the distances
    bound to the elder decomposition stay large."""

    def tree(eps):
        # root 0, saddle 5; under it saddle 8 (leaves 10 + eps and 9) and leaf 10 - eps
        return MergeTree([0.0, 5.0, 8.0, 10.0 + eps, 9.0, 10.0 - eps], [-1, 0, 1, 2, 2, 1])

    ok = True
    details = []
    for eps in (0.1, 0.01, 0.001):
        d = {
            name: pairwise_distance(tree(eps), tree(-eps), DistanceOptions(distance=name, metric="euclidean"))
            for name in DISTANCE_NAMES
        }
        ok &= d["branch"] <= 4 * eps + TOL
        ok &= min(d["branch-fixed"], d["constrained"], d["one-degree"]) >= 1.4
        details.append(f"eps {eps:g}: " + ", ".join(f"{k} {v:.6g}" for k, v in d.items()))
    report("C13 free distance -> 0 under a flip of the elder rule", ok, "; ".join(details))


def test_c14_identity_bound():
    """A check that reaches every size without the oracle. An order-preserving
    perturbation of a tree (the same parents, each value moved by less than
    a third of the smallest parent-child gap) is decomposed by the tree's
    elder continuation map, and pairing each branch with its same-leaf
    counterpart is a valid mapping. So free <= fixed(those decompositions)
    <= the aggregated cost of that pairing."""
    rng = np.random.default_rng(9009)
    ok = True
    details = []
    for n, extra in ((60, 0.05), (80, 0.35), (150, 0.05)):
        t1 = grow_merge_tree(rng, n, extra)
        inner = t1.parent >= 0
        gap = float((t1.values[inner] - t1.values[t1.parent[inner]]).min())
        t2 = MergeTree(t1.values + rng.uniform(-gap / 3, gap / 3, len(t1)), t1.parent)
        dec1 = elder_rule_decomposition(t1)
        dec2 = BranchDecomposition(t2, dec1.continuation)
        for metric in (BaseMetric("euclidean"), BP):
            costs = [metric.pair(*b.label, *dec2.branch_of_leaf(b.leaf).label) for b in dec1.branches]
            for mode in ("sum", "l2"):
                free = branch_mapping_distance(t1, t2, metric, mode)[0]
                fixed = branch_mapping_distance(t1, t2, metric, mode, fixed=(dec1, dec2))[0]
                bound = aggregate(costs, mode)
                ok &= free <= fixed + TOL and fixed <= bound + TOL
                details.append(f"{len(t1)} nodes {metric.kind} {mode}: {free:.4g} <= {fixed:.4g} <= {bound:.4g}")
    report("C14 free <= fixed <= identity pairing under small perturbations", ok, "; ".join(details))
