import math

import numpy as np
import pytest

from mtdist.metrics import METRIC_NAMES, BaseMetric, aggregate, branch_cost


class TestBranchCost:
    def test_birth_persistence_example(self):
        m = BaseMetric("birth-persistence")
        assert branch_cost(m, (3.0, 6.0), (5.0, 8.0)) == 2.0

    def test_identity(self):
        for kind in METRIC_NAMES:
            assert branch_cost(BaseMetric(kind), (0.0, 12.0), (0.0, 12.0)) == 0.0

    def test_persistence_deletion(self):
        assert branch_cost(BaseMetric("persistence"), (9.0, 11.0), None) == 2.0

    def test_deletion_rules(self):
        label = (1.0, 4.0)
        assert branch_cost(BaseMetric("birth-persistence"), None, label) == 3.0
        assert branch_cost(BaseMetric("euclidean"), label, None) == pytest.approx(3.0 / math.sqrt(2))
        assert branch_cost(BaseMetric("linf"), label, None) == 1.5

    def test_both_null_rejected(self):
        with pytest.raises(ValueError):
            branch_cost(BaseMetric("persistence"), None, None)

    def test_symmetry_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = tuple(sorted(rng.uniform(0, 10, 2)))
            b = tuple(sorted(rng.uniform(0, 10, 2)))
            for kind in METRIC_NAMES:
                m = BaseMetric(kind)
                assert branch_cost(m, a, b) == branch_cost(m, b, a)
                assert branch_cost(m, a, b) >= 0.0

    def test_zero_iff_equal_where_separating(self):
        # persistence is a pseudometric on labels (it ignores the birth
        # value); the other three kinds separate distinct labels
        a, b = (1.0, 4.0), (2.0, 5.0)
        assert branch_cost(BaseMetric("persistence"), a, b) == 0.0
        for kind in ("birth-persistence", "euclidean", "linf"):
            assert branch_cost(BaseMetric(kind), a, b) > 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BaseMetric("manhattan")


class TestMetricAxioms:
    """Triangle inequality on labels plus the deletion-cost conditions the
    mapping-level triangle inequality needs: del(a) <= cost(a,b) + del(b)."""

    @pytest.mark.parametrize("kind", METRIC_NAMES)
    def test_axioms_1000_triples(self, kind):
        m = BaseMetric(kind)
        rng = np.random.default_rng(hash(kind) % 2**32)
        for _ in range(1000):
            a, b, c = (tuple(sorted(rng.uniform(0, 20, 2))) for _ in range(3))
            ab, bc, ac = (branch_cost(m, x, y) for x, y in ((a, b), (b, c), (a, c)))
            assert ac <= ab + bc + 1e-12
            da, db, dc = (branch_cost(m, x, None) for x in (a, b, c))
            assert da <= ab + db + 1e-12
            assert db <= ab + da + 1e-12
            assert dc <= bc + db + 1e-12


class TestAggregate:
    def test_sum(self):
        assert aggregate([2.0, 0.0], "sum") == 2.0

    def test_l2_is_pythagorean(self):
        assert aggregate([3.0, 4.0], "l2") == 5.0

    def test_empty(self):
        assert aggregate([], "sum") == 0.0
        assert aggregate([], "l2") == 0.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            aggregate([1.0], "max")


class TestVectorizedAgainstScalar:
    """One arithmetic per kind: a cost computed alone has the bits of the
    same cost computed as an entry of a broadcast table."""

    @pytest.mark.parametrize("kind", METRIC_NAMES)
    def test_grid_matches_scalar(self, kind):
        m = BaseMetric(kind)
        rng = np.random.default_rng(9)

        def values(n):
            # half on a coarse grid of negative and positive values (ties),
            # half continuous
            return np.where(rng.random(n) < 0.5, rng.integers(-3, 4, n).astype(float), rng.uniform(-10, 10, n))

        a_low, a_high, b_low, b_high = values(400), values(400), values(250), values(250)
        grid = m.pair(a_low[:, None], a_high[:, None], b_low, b_high)
        assert grid.shape == (400, 250)  # 100,000 label pairs
        rows = zip(a_low.tolist(), a_high.tolist(), grid.tolist())
        bl, bh = b_low.tolist(), b_high.tolist()
        assert all(
            [m.pair(al, ah, x, y) for x, y in zip(bl, bh)] == row for al, ah, row in rows
        )
        for low, high in ((a_low, a_high), (b_low, b_high)):
            dels = m.deletion(low, high)
            assert dels.tolist() == [m.deletion(x, y) for x, y in zip(low.tolist(), high.tolist())]
        for args in ((1.0, 4.0, -2.0, 3.0), tuple(np.float64([1.0, 4.0, -2.0, 3.0]))):
            assert type(m.pair(*args)) is float
            assert type(m.deletion(*args[:2])) is float
