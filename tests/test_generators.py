import numpy as np
import pytest

from mtdist.errors import MTDistError, PreconditionError
from mtdist.fields import compute_merge_tree, format_scalar_field, simplify
from mtdist.generators import (
    PEAK_SIMPLIFY_THRESHOLD,
    EnsembleSpec,
    PeakSpec,
    four_peak_spec,
    generate_ensemble,
    generate_periodic_series,
    outlier_spec,
)


class TestEnsemble:
    def test_determinism(self):
        spec = four_peak_spec(members=4, seed=9)
        a = generate_ensemble(spec)
        b = generate_ensemble(spec)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.values, fb.values)

    def test_zero_jitter_members_identical(self):
        peaks = (
            PeakSpec(cx=0.3, cy=0.3, amplitude=1.0, width=0.1),
            PeakSpec(cx=0.7, cy=0.7, amplitude=0.8, width=0.1),
        )
        spec = EnsembleSpec(members=3, peaks=peaks, seed=5)
        fields = generate_ensemble(spec)
        for f in fields[1:]:
            assert np.array_equal(f.values, fields[0].values)

    def test_nine_leaves_after_simplification(self):
        spec = four_peak_spec(members=20, seed=1)
        for f in generate_ensemble(spec):
            t = simplify(compute_merge_tree(f), PEAK_SIMPLIFY_THRESHOLD)
            assert len(t.leaves) == 9

    def test_outlier_member_has_one_fewer_leaf(self):
        spec = outlier_spec(members=20, outlier_index=7, seed=1)
        counts = []
        for f in generate_ensemble(spec):
            t = simplify(compute_merge_tree(f), PEAK_SIMPLIFY_THRESHOLD)
            counts.append(len(t.leaves))
        assert counts[7] == counts[0] - 1
        assert all(c == counts[0] for i, c in enumerate(counts) if i != 7)

    def test_outlier_index_validated(self):
        with pytest.raises(MTDistError):
            outlier_spec(members=5, outlier_index=10)

    def test_center_peak_follows_the_outlier(self):
        assert len(four_peak_spec().peaks) == 9
        spec = four_peak_spec(members=4, outlier_index=2)
        assert spec.outlier_index == 2
        assert [p.omit_in_outlier for p in spec.peaks] == [False] * 9 + [True]

    @pytest.mark.parametrize("members, index", [(1, 0), (5, 4), (8, 7), (20, 7)])
    def test_outlier_defaults_to_member_seven_or_the_last(self, members, index):
        assert outlier_spec(members=members) == outlier_spec(members=members, outlier_index=index)
        assert outlier_spec(members=members).outlier_index == index


class TestPeriodicSeries:
    def test_zero_variation_periodicity(self):
        s = generate_periodic_series(10, 5, variation=0.0)
        assert format_scalar_field(s[0]) == format_scalar_field(s[5])
        assert format_scalar_field(s[3]) == format_scalar_field(s[8])

    def test_period_two_alternation(self):
        s = generate_periodic_series(6, 2, variation=0.0)
        assert np.array_equal(s[0].values, s[2].values)
        assert np.array_equal(s[1].values, s[3].values)
        assert not np.array_equal(s[0].values, s[1].values)

    def test_period_two_checkerboard_matrix(self):
        from mtdist.fields import compute_merge_tree, simplify
        from mtdist.matrix import DistanceOptions, compute_matrix

        s = generate_periodic_series(6, 2, variation=0.0)
        trees = [simplify(compute_merge_tree(f), 0.02) for f in s]
        mat = compute_matrix(
            trees, [str(i) for i in range(6)], DistanceOptions("branch", "euclidean", "l2"), jobs=1
        )
        for i in range(6):
            for j in range(6):
                if (i - j) % 2 == 0:
                    assert mat.values[i, j] == 0.0
                else:
                    assert mat.values[i, j] > 0.0

    def test_variation_is_deterministic(self):
        a = generate_periodic_series(8, 4, seed=3)
        b = generate_periodic_series(8, 4, seed=3)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.values, fb.values)

    def test_parameter_validation(self):
        with pytest.raises(MTDistError):
            generate_periodic_series(5, 1)
        with pytest.raises(MTDistError):
            generate_periodic_series(5, 4)


def test_periodic_series_needs_a_bump():
    for bumps in (0, -1):
        with pytest.raises(MTDistError):
            generate_periodic_series(10, 5, bumps=bumps)


PEAK = PeakSpec(cx=0.5, cy=0.5, amplitude=1.0, width=0.1)


class TestBadArguments:
    """Every argument check of the generators raises PreconditionError,
    which is an MTDistError (CLI exit 2)."""

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(members=0), "at least one member"),
            (dict(rows=0), "dimensions must be positive"),
            (dict(cols=-1), "dimensions must be positive"),
            (dict(members=3, outlier_index=3), "outlier index outside"),
            (dict(members=3, outlier_index=-1), "outlier index outside"),
        ],
    )
    def test_ensemble_spec(self, kwargs, message):
        spec = dict(members=2, peaks=(PEAK,)) | kwargs
        with pytest.raises(PreconditionError, match=message):
            EnsembleSpec(**spec)

    def test_outlier_spec_index(self):
        with pytest.raises(PreconditionError, match="outlier index outside"):
            outlier_spec(members=5, outlier_index=10)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(period=1), "period must be >= 2"),
            (dict(bumps=0), "bumps must be >= 1"),
            (dict(rows=0), "dimensions must be positive"),
            (dict(cols=0), "dimensions must be positive"),
            (dict(length=7, period=4), r"length must be >= 2 \* period"),
        ],
    )
    def test_periodic_series(self, kwargs, message):
        args = dict(length=10, period=5) | kwargs
        with pytest.raises(PreconditionError, match=message):
            generate_periodic_series(**args)

    def test_still_an_mtdist_error(self):
        assert issubclass(PreconditionError, MTDistError)
        with pytest.raises(MTDistError):
            generate_periodic_series(5, 1)
