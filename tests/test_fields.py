import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtdist import InvalidTreeError, MTDistError, ParseError, validate_merge_tree
from mtdist.fields import (
    ScalarField2D,
    compute_merge_tree,
    local_maximum_count,
    parse_scalar_field,
    read_scalar_field,
    simplify,
    write_scalar_field,
)
from mtdist.generators import generate_ensemble, outlier_spec
from reference_merge_tree import reference_compute_merge_tree


def bump_field(rows=24, cols=24, centers=((6, 6), (17, 17)), sigma=2.5, amps=None):
    ys, xs = np.mgrid[0:rows, 0:cols]
    total = np.zeros((rows, cols))
    amps = amps or [1.0] * len(centers)
    for (cy, cx), a in zip(centers, amps):
        total += a * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma**2))
    return ScalarField2D(rows=rows, cols=cols, values=total.reshape(-1))


class TestScalarField:
    def test_shape_checks(self):
        with pytest.raises(MTDistError):
            ScalarField2D(rows=2, cols=2, values=np.zeros(3))
        with pytest.raises(MTDistError):
            ScalarField2D(rows=2, cols=2, values=np.array([0.0, 1.0, np.nan, 2.0]))
        with pytest.raises(MTDistError):
            ScalarField2D(rows=2, cols=2, values=np.zeros(4), connectivity=6)

    def test_round_trip(self, tmp_path):
        f = bump_field(rows=5, cols=7)
        path = tmp_path / "f.sf2"
        write_scalar_field(path, f)
        back = read_scalar_field(path)
        assert back.rows == 5 and back.cols == 7
        assert np.array_equal(back.values, f.values)

    def test_malformed_header_names_line(self):
        with pytest.raises(ParseError) as err:
            parse_scalar_field("SF 2 2\n0 1\n2 3\n", path="x.sf2")
        assert str(err.value).startswith("x.sf2:1:")

    def test_value_count_check(self):
        with pytest.raises(ParseError):
            parse_scalar_field("SF2 2 2\n0 1 2\n")

    def test_bad_value_names_its_line(self):
        # comments and blank lines count: the bad token is on line 5
        text = "# field\nSF2 3 2\n0 1_0\n\n2 x3\n4 5\n"
        with pytest.raises(ParseError) as err:
            parse_scalar_field(text, path="x.sf2")
        assert str(err.value) == "x.sf2:5: bad value 'x3'"

    def test_values_parse_as_float_does(self):
        f = parse_scalar_field("SF2 1 4\n1_0 \uff11\uff12 2.5e-1 .5\n")
        assert f.values.tolist() == [10.0, 12.0, 0.25, 0.5]
        # a token float() reads is no bad value; the field check rejects it
        with pytest.raises(ParseError, match="must be finite"):
            parse_scalar_field("SF2 1 2\n1 inf\n")


class TestComputeMergeTree:
    def test_constant_field(self):
        f = ScalarField2D(rows=3, cols=3, values=np.full(9, 3.0))
        t = compute_merge_tree(f)
        assert len(t) == 2
        assert validate_merge_tree(t).ok

    def test_1x4_hand_trace(self):
        f = ScalarField2D(rows=1, cols=4, values=np.array([1.0, 3.0, 2.0, 4.0]), connectivity=4)
        t = compute_merge_tree(f)
        rounded = sorted(round(v) for v in t.values)
        assert rounded == [1, 2, 3, 4]
        by_val = {round(t.values[v]): v for v in range(len(t))}
        assert t.parent[by_val[4]] == by_val[2]
        assert t.parent[by_val[3]] == by_val[2]
        assert t.parent[by_val[2]] == by_val[1]
        assert t.parent[by_val[1]] == -1

    def test_two_bumps(self):
        t = compute_merge_tree(bump_field())
        assert len(t.leaves) == 2
        assert len(t) == 4

    def test_leaf_count_equals_local_maxima(self):
        rng = np.random.default_rng(3)
        for conn in (4, 8):
            for _ in range(10):
                f = ScalarField2D(
                    rows=9, cols=11, values=rng.uniform(0, 1, 99), connectivity=conn
                )
                t = compute_merge_tree(f)
                assert len(t.leaves) == local_maximum_count(f)

    def test_plateau_ties(self):
        vals = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        f = ScalarField2D(rows=3, cols=3, values=vals, connectivity=4)
        t = compute_merge_tree(f)
        assert validate_merge_tree(t).ok
        assert len(t.leaves) == local_maximum_count(f)

    def test_minima_direction_negates(self):
        f = bump_field()
        neg = ScalarField2D(rows=f.rows, cols=f.cols, values=-f.values)
        t_max = compute_merge_tree(f, "max")
        t_min = compute_merge_tree(neg, "min")
        assert np.array_equal(t_max.parent, t_min.parent)
        assert np.allclose(t_max.values, t_min.values)

    def test_direction_flip_shape_and_negated_labels(self):
        f = bump_field()
        t_max = compute_merge_tree(f, "max")
        t_min = compute_merge_tree(f, "min")
        assert validate_merge_tree(t_min).ok
        # a two-bump field has a single minimum basin
        assert len(t_min.leaves) >= 1


@st.composite
def plateau_fields(draw):
    """Small fields of few distinct integer levels, so plateaus and ties are
    everywhere: 1 x k rows, k x 1 columns and general grids, either
    connectivity, around 0 or around a magnitude (1e8 and above) at which
    the sweep-rank offset falls below float resolution."""
    shape = draw(st.sampled_from(("row", "column", "grid")))
    k = draw(st.integers(1, 12))
    if shape == "row":
        rows, cols = 1, k
    elif shape == "column":
        rows, cols = k, 1
    else:
        rows, cols = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    levels = draw(st.integers(1, 4))
    ints = draw(st.lists(st.integers(0, levels - 1), min_size=rows * cols, max_size=rows * cols))
    base = draw(st.sampled_from((0.0, -2.0, 1e8, -1e8, 3e15)))
    return ScalarField2D(
        rows=rows,
        cols=cols,
        values=base + np.array(ints, dtype=np.float64),
        connectivity=draw(st.sampled_from((4, 8))),
    )


def node_depths(tree):
    """Edges from each node up to the root."""
    depth = [0] * len(tree)
    for v in reversed(range(len(tree))):  # parents have larger ids
        if v != tree.root:
            depth[v] = depth[tree.parent[v]] + 1
    return depth


def assert_within_ulp_chain(tree, f, direction):
    """Every node is at most depth (root: one) ulps away from a field value."""
    work = np.unique(f.values if direction == "max" else -f.values)
    ulp = math.ulp(float(np.abs(work).max()))
    for v, d in enumerate(node_depths(tree)):
        gap = np.abs(work - tree.values[v]).min()
        assert gap <= max(d, 1) * ulp + 1e-9, (v, d, gap)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(plateau_fields())
def test_equal_to_reference_sweep(f):
    for direction in ("max", "min"):
        tree = compute_merge_tree(f, direction)
        try:
            want = reference_compute_merge_tree(f, direction)
        except InvalidTreeError:
            # large-magnitude plateau the reference cannot label
            assert validate_merge_tree(tree).ok
            assert len(tree.leaves) == local_maximum_count(f, direction)
            assert_within_ulp_chain(tree, f, direction)
        else:
            assert tree == want


def test_equal_to_reference_sweep_on_noisy_256_field():
    f = generate_ensemble(outlier_spec(members=1, outlier_index=0, rows=256, cols=256, noise=0.01))[0]
    tree = compute_merge_tree(f)
    assert len(tree) == 9085
    assert tree == reference_compute_merge_tree(f)


class TestLargeMagnitudePlateaus:
    """The offset of at most 1e-9 is below float resolution at 1e8; nodes it
    cannot separate are raised one ulp above their parent instead."""

    @pytest.mark.parametrize(
        "rows, cols, values",
        [(3, 3, np.full(9, 1e8)), (1, 5, np.array([1e8 + 1, 1e8, 1e8, 1e8, 1e8 + 1]))],
    )
    def test_valid_where_the_reference_fails(self, rows, cols, values):
        f = ScalarField2D(rows=rows, cols=cols, values=values)
        with pytest.raises(InvalidTreeError):
            reference_compute_merge_tree(f)
        for direction in ("max", "min"):
            t = compute_merge_tree(f, direction)
            assert validate_merge_tree(t).ok
            assert len(t.leaves) == local_maximum_count(f, direction)

    def test_two_peaks_keep_their_shape(self):
        f = ScalarField2D(rows=1, cols=5, values=np.array([1e8 + 1, 1e8, 1e8, 1e8, 1e8 + 1]))
        t = compute_merge_tree(f)
        # two leaves at 1e8 + 1, their saddle at the middle of the plateau
        # and the root below it
        assert len(t) == 4
        assert sorted(t.values[list(t.leaves)]) == [1e8 + 1, 1e8 + 1]
        assert t.values[t.root] < 1e8 <= t.values[t.children[t.root][0]]

    @pytest.mark.parametrize("saddles", [2, 5])
    def test_raises_add_up_along_a_plateau_chain(self, saddles):
        # at 3e15 an ulp is 0.5: peaks of 3e15 + 1 separated by single
        # vertices of 3e15 give a chain of saddles that all sit on one
        # plateau, each raised one ulp above the next
        base, ulp = 3e15, math.ulp(3e15)
        values = np.array([base + 1 if i % 2 == 0 else base for i in range(2 * saddles + 1)])
        f = ScalarField2D(rows=1, cols=len(values), values=values)
        t = compute_merge_tree(f)
        assert validate_merge_tree(t).ok
        assert len(t.leaves) == saddles + 1 == local_maximum_count(f)
        assert t.values[t.root] == base - ulp
        leaves = set(t.leaves)
        for v, d in enumerate(node_depths(t)):
            if v != t.root:
                field_value = base + 1 if v in leaves else base
                assert 0 <= t.values[v] - field_value <= d * ulp
        # the documented cost: the first two leaves meet at a saddle raised
        # by saddles - 1 ulps, so their persistence is that much below 1
        # (and one ulp once the raise reaches the leaves)
        first = t.parent[0]
        assert t.values[first] == base + (saddles - 1) * ulp
        assert t.values[0] - t.values[first] == max(1 - (saddles - 1) * ulp, ulp)


class TestSimplify:
    def test_threshold_zero_is_identity(self, two_peak_asymmetric):
        assert simplify(two_peak_asymmetric, 0.0) == two_peak_asymmetric

    def test_fig3_shape(self, two_peak_asymmetric, two_peak_flat):
        s = simplify(two_peak_asymmetric, 2.5)
        assert s == two_peak_flat

    def test_total_collapse(self, two_peak_asymmetric):
        s = simplify(two_peak_asymmetric, 1000.0)
        assert len(s) == 2
        assert s.values.tolist() == [0.0, 12.0]

    def test_idempotent_and_monotone(self):
        rng = np.random.default_rng(7)
        f = ScalarField2D(rows=12, cols=12, values=rng.uniform(0, 1, 144))
        t = compute_merge_tree(f)
        last = len(t.leaves)
        for tau in (0.05, 0.1, 0.2, 0.4):
            s = simplify(t, tau)
            assert simplify(s, tau) == s
            assert len(s.leaves) <= last
            last = len(s.leaves)

    def test_surviving_elder_persistence(self):
        from mtdist.fields import elder_branch_persistences

        rng = np.random.default_rng(9)
        f = ScalarField2D(rows=12, cols=12, values=rng.uniform(0, 1, 144))
        t = simplify(compute_merge_tree(f), 0.25)
        assert all(p >= 0.25 for p in elder_branch_persistences(t))

    def test_rejects_negative_threshold(self, two_peak_flat):
        with pytest.raises(ValueError):
            simplify(two_peak_flat, -1.0)
