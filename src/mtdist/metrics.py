"""Base cost functions on branch labels and the two aggregation modes.

A branch label is the pair (low, high) of a branch's start and leaf values;
all cost functions here are *pure* branch distances: they read nothing else.
Deletion/insertion costs pair a label with the null branch and are chosen as
the infimum cost against a degenerate (zero-persistence) partner:

* ``persistence``       |p_a - p_b|, deletion p_a
* ``birth-persistence`` |low_a - low_b| + |p_a - p_b|, deletion p_a
* ``euclidean``         straight-line distance between (low, high) points,
                        deletion = distance to the diagonal, p_a / sqrt(2)
* ``linf``              max coordinate difference, deletion p_a / 2

Each kind satisfies the triangle inequality on labels and is 1-Lipschitz in
the deletion cost (|del(a) - del(b)| <= cost(a, b)), which is what the
mapping-level triangle inequality needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

METRIC_NAMES = ("persistence", "birth-persistence", "euclidean", "linf")
MODE_NAMES = ("sum", "l2")

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class BaseMetric:
    """One of the four pure branch distances, selected by name."""

    kind: str

    def __post_init__(self):
        if self.kind not in METRIC_NAMES:
            raise ValueError(f"unknown metric {self.kind!r}, expected one of {METRIC_NAMES}")

    # scalar forms -----------------------------------------------------

    def pair(self, a_low, a_high, b_low, b_high):
        k = self.kind
        if k == "persistence":
            return abs((a_high - a_low) - (b_high - b_low))
        if k == "birth-persistence":
            return abs(a_low - b_low) + abs((a_high - a_low) - (b_high - b_low))
        if k == "euclidean":
            return math.hypot(a_low - b_low, a_high - b_high)
        return max(abs(a_low - b_low), abs(a_high - b_high))

    def deletion(self, low, high):
        p = high - low
        if self.kind == "euclidean":
            return p / _SQRT2
        if self.kind == "linf":
            return p / 2.0
        return p

    # vectorized forms used by the dynamic program ----------------------

    def pair_grid(self, a_lows, a_high, b_lows, b_high):
        """Costs for one branch-end pair over all start combinations.

        ``a_lows``/``b_lows`` are 1-d arrays of candidate start values; the
        result has shape ``(len(a_lows), len(b_lows))``. The leaf values
        ``a_high``/``b_high`` are scalars, or arrays of shape
        ``(len(a_lows), 1)`` and ``(len(b_lows),)`` giving each start its own
        branch end.
        """
        al = np.asarray(a_lows, dtype=np.float64)[:, None]
        bl = np.asarray(b_lows, dtype=np.float64)[None, :]
        k = self.kind
        if k == "persistence":
            return np.abs((a_high - al) - (b_high - bl))
        if k == "birth-persistence":
            return np.abs(al - bl) + np.abs((a_high - al) - (b_high - bl))
        if k == "euclidean":
            return np.hypot(al - bl, a_high - b_high)
        return np.maximum(np.abs(al - bl), abs(a_high - b_high))

    def deletion_vec(self, lows, high):
        p = high - np.asarray(lows, dtype=np.float64)
        if self.kind == "euclidean":
            return p / _SQRT2
        if self.kind == "linf":
            return p / 2.0
        return p


def branch_cost(metric: BaseMetric, a, b):
    """Cost of matching, deleting, or inserting a branch.

    ``a`` and ``b`` are (low, high) labels or ``None`` for the null branch.
    """
    if a is None and b is None:
        raise ValueError("branch_cost needs at least one real branch")
    if a is None:
        return metric.deletion(*b)
    if b is None:
        return metric.deletion(*a)
    return metric.pair(a[0], a[1], b[0], b[1])


def aggregate(pair_costs, mode: str) -> float:
    """Total cost of a set of edit operations under the given mode."""
    if mode == "sum":
        return float(sum(pair_costs))
    if mode == "l2":
        return float(math.sqrt(sum(c * c for c in pair_costs)))
    raise ValueError(f"unknown aggregation mode {mode!r}, expected one of {MODE_NAMES}")


def finalize(total: float, mode: str) -> float:
    """Map a DP total (sum of per-pair terms) to the reported distance."""
    if mode == "sum":
        return float(total)
    if mode == "l2":
        return float(math.sqrt(total))
    raise ValueError(f"unknown aggregation mode {mode!r}, expected one of {MODE_NAMES}")
