"""Every public rejection of a bad name or argument raises a
``PreconditionError``: an ``MTDistError`` (CLI exit 2) that is also a
``ValueError``. The argument checks of constructors raise a plain
``MTDistError``."""

import numpy as np
import pytest

import mtdist.baselines as baselines_module
import mtdist.oracle as oracle_module
from mtdist import (
    BaseMetric,
    DistanceMatrix,
    DistanceOptions,
    MergeTree,
    MTDistError,
    PreconditionError,
    ScalarField2D,
    aggregate,
    branch_cost,
    branch_mapping_distance,
    build_tracks,
    compute_matrix,
    compute_merge_tree,
    constrained_edit_distance,
    elder_labeled_inputs,
    one_degree_distance,
    oracle_distance,
    simplify,
)
from mtdist.fields import local_maximum_count
from mtdist.generators import EnsembleSpec
from mtdist.metrics import finalize

TREE = MergeTree([0.0, 3.0, 10.0, 6.0], [-1, 0, 1, 1])
BP = BaseMetric("birth-persistence")
FIELD = ScalarField2D(rows=1, cols=3, values=np.array([1.0, 0.0, 2.0]))
BDT = elder_labeled_inputs(TREE, "bdt")


REJECTIONS = {
    "metric name": lambda: BaseMetric("hamming"),
    "finalize mode": lambda: finalize(1.0, "l3"),
    "aggregate mode": lambda: aggregate([1.0], "l3"),
    "branch mapping mode": lambda: branch_mapping_distance(TREE, TREE, BP, "l3"),
    "constrained mode": lambda: constrained_edit_distance(BDT, BDT, BP, "l3"),
    "one-degree mode": lambda: one_degree_distance(BDT, BDT, BP, "max"),
    "distance option": lambda: DistanceOptions(distance="hausdorff"),
    "metric option": lambda: DistanceOptions(metric="nope"),
    "mode option": lambda: DistanceOptions(mode="l3"),
    "labelled target": lambda: elder_labeled_inputs(TREE, "forest"),
    "sweep direction": lambda: compute_merge_tree(FIELD, direction="up"),
    "local maximum direction": lambda: local_maximum_count(FIELD, "up"),
    "connectivity": lambda: ScalarField2D(rows=1, cols=3, values=np.zeros(3), connectivity=6),
    "oracle mode": lambda: oracle_distance(TREE, TREE, BP, "l3"),
    "one-sided oracle mode": lambda: oracle_distance(TREE, None, BP, "l3"),
    "negative threshold": lambda: simplify(TREE, -1.0),
    "nan threshold": lambda: simplify(TREE, float("nan")),
    "no real branch": lambda: branch_cost(BP, None, None),
    "matrix label count": lambda: compute_matrix([TREE, TREE], "abc", DistanceOptions(), jobs=1),
    "matrix of one member": lambda: compute_matrix([TREE], "a", DistanceOptions(), jobs=1),
    "matrix jobs below one": lambda: compute_matrix([TREE, TREE], "ab", DistanceOptions(), jobs=0),
    "matrix jobs not an integer": lambda: compute_matrix([TREE, TREE], "ab", DistanceOptions(), jobs=2.0),
    "tracks of one step": lambda: build_tracks([TREE], DistanceOptions()),
}


def _not_before_the_check(*args, **kwargs):
    raise AssertionError("the input was enumerated or decomposed before the check")


@pytest.mark.parametrize("name", list(REJECTIONS))
def test_bad_name_or_argument_is_a_typed_value_error(name, monkeypatch):
    # neither the oracle's search nor the target's decomposition may run first
    monkeypatch.setattr(oracle_module, "enumerate_branch_decompositions", _not_before_the_check)
    monkeypatch.setattr(baselines_module, "elder_rule_decomposition", _not_before_the_check)
    with pytest.raises(PreconditionError) as info:
        REJECTIONS[name]()
    assert isinstance(info.value, MTDistError)
    assert isinstance(info.value, ValueError)


# the argument checks of constructors: a plain MTDistError, named by message
CONSTRUCTOR_REJECTIONS = {
    "tree arrays of unequal length": (lambda: MergeTree([0.0, 1.0], [-1]), "values and parent must be 1-d"),
    "parent id out of range": (lambda: MergeTree([0.0, 1.0], [-1, 2]), "parent ids out of range"),
    "empty field": (lambda: ScalarField2D(rows=0, cols=3, values=np.zeros(0)), "field dimensions must be positive"),
    "empty ensemble": (lambda: EnsembleSpec(members=0, peaks=()), "ensemble needs at least one member"),
    "matrix of another size": (
        lambda: DistanceMatrix(labels=("a",), values=np.zeros((2, 2))),
        "matrix shape does not match the label count",
    ),
    "labels per tree": (
        lambda: compute_matrix([TREE, TREE], "abc", DistanceOptions(), jobs=1),
        "need one label per tree",
    ),
}


@pytest.mark.parametrize("name", list(CONSTRUCTOR_REJECTIONS))
def test_bad_constructor_argument_is_a_data_error(name):
    build, message = CONSTRUCTOR_REJECTIONS[name]
    with pytest.raises(MTDistError) as info:
        build()
    assert str(info.value).startswith(message)
