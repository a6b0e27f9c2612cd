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

Both forms broadcast over floats and numpy arrays with one arithmetic per
kind, so a cost has the same bits alone and as an entry of a table; scalar
inputs give a Python float. The dynamic programs add up the terms of
:func:`dp_terms`: the costs under ``sum``, their squares under ``l2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, _choice

METRIC_NAMES = ("persistence", "birth-persistence", "euclidean", "linf")
MODE_NAMES = ("sum", "l2")

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class BaseMetric:
    """One of the four pure branch distances, selected by name."""

    kind: str

    def __post_init__(self):
        _choice("metric", self.kind, METRIC_NAMES)

    def pair(self, a_low, a_high, b_low, b_high):
        k = self.kind
        if k == "persistence":
            c = abs((a_high - a_low) - (b_high - b_low))
        elif k == "birth-persistence":
            c = abs(a_low - b_low) + abs((a_high - a_low) - (b_high - b_low))
        elif k == "euclidean":
            c = np.hypot(a_low - b_low, a_high - b_high)
        else:
            c = np.maximum(abs(a_low - b_low), abs(a_high - b_high))
        return _float_if_scalar(c)

    def deletion(self, low, high):
        p = high - low
        if self.kind == "euclidean":
            p = p / _SQRT2
        elif self.kind == "linf":
            p = p / 2.0
        return _float_if_scalar(p)


def _float_if_scalar(c):
    return c if isinstance(c, np.ndarray) else float(c)


def dp_terms(metric: BaseMetric, squared: bool):
    """``(pair, deletion)``: the metric's forms as the dynamic programs add
    them up, on labels ``(low, high)`` whose values may be arrays.

    A term is the cost itself, or its square when ``squared`` (the ``l2``
    mode, whose distance :func:`finalize` takes as the root of the sum).
    """

    def pair(a, b):
        return _term(metric.pair(a[0], a[1], b[0], b[1]), squared)

    def deletion(a):
        return _term(metric.deletion(a[0], a[1]), squared)

    return pair, deletion


def _term(cost, squared):
    return cost * cost if squared else cost


def branch_cost(metric: BaseMetric, a, b):
    """Cost of matching, deleting, or inserting a branch.

    ``a`` and ``b`` are (low, high) labels or ``None`` for the null branch.
    """
    if a is None and b is None:
        raise PreconditionError("branch_cost needs at least one real branch")
    if a is None:
        return metric.deletion(*b)
    if b is None:
        return metric.deletion(*a)
    return metric.pair(a[0], a[1], b[0], b[1])


def aggregate(pair_costs, mode: str) -> float:
    """Total cost of a set of edit operations under the given mode."""
    return finalize(sum(_term(c, mode == "l2") for c in pair_costs), mode)


def finalize(total: float, mode: str) -> float:
    """Map a DP total (sum of per-pair terms) to the reported distance."""
    _choice("aggregation mode", mode, MODE_NAMES)
    return float(math.sqrt(total) if mode == "l2" else total)
