"""Merge-tree comparison toolkit.

Branch-mapping edit distance between merge trees of scalar fields (free over
all branch decompositions or fixed to given ones), the constrained and
one-degree edit distance baselines, a scalar-field-to-merge-tree pipeline,
and experiment drivers for outlier detection, periodicity detection, and
feature tracking.
"""

from .baselines import (
    LabeledTree,
    constrained_edit_distance,
    elder_labeled_inputs,
    one_degree_distance,
)
from .branches import (
    Branch,
    BranchDecomposition,
    BranchDecompTree,
    build_bdt,
    count_branch_decompositions,
    elder_rule_decomposition,
    enumerate_branch_decompositions,
)
from .errors import (
    InvalidTreeError,
    MTDistError,
    ParseError,
    PreconditionError,
    SizeLimitError,
)
from .fields import (
    ScalarField2D,
    compute_merge_tree,
    read_scalar_field,
    simplify,
    write_scalar_field,
)
from .generators import (
    EnsembleSpec,
    PeakSpec,
    four_peak_spec,
    generate_ensemble,
    generate_periodic_series,
    outlier_spec,
)
from .mapping import (
    BranchMapping,
    MemoStats,
    branch_mapping_distance,
    delete_tree_cost,
    induced_node_mapping,
    validate_branch_mapping,
)
from .matrix import (
    DistanceMatrix,
    DistanceOptions,
    compute_matrix,
    pairwise_distance,
    single_linkage_order,
)
from .metrics import BaseMetric, aggregate, branch_cost
from .oracle import oracle_distance
from .tracking import build_tracks, step_leaf_pairs
from .trees import (
    MergeTree,
    ValidationReport,
    parse_merge_tree,
    read_merge_tree,
    validate_merge_tree,
    write_merge_tree,
)

__version__ = "0.1.0"

__all__ = [
    "BaseMetric",
    "Branch",
    "BranchDecompTree",
    "BranchDecomposition",
    "BranchMapping",
    "DistanceMatrix",
    "DistanceOptions",
    "EnsembleSpec",
    "InvalidTreeError",
    "LabeledTree",
    "MTDistError",
    "MemoStats",
    "MergeTree",
    "ParseError",
    "PeakSpec",
    "PreconditionError",
    "ScalarField2D",
    "SizeLimitError",
    "ValidationReport",
    "aggregate",
    "branch_cost",
    "branch_mapping_distance",
    "build_bdt",
    "build_tracks",
    "compute_matrix",
    "compute_merge_tree",
    "constrained_edit_distance",
    "count_branch_decompositions",
    "delete_tree_cost",
    "elder_labeled_inputs",
    "elder_rule_decomposition",
    "enumerate_branch_decompositions",
    "four_peak_spec",
    "generate_ensemble",
    "generate_periodic_series",
    "induced_node_mapping",
    "one_degree_distance",
    "oracle_distance",
    "outlier_spec",
    "pairwise_distance",
    "parse_merge_tree",
    "read_merge_tree",
    "read_scalar_field",
    "simplify",
    "single_linkage_order",
    "step_leaf_pairs",
    "validate_branch_mapping",
    "validate_merge_tree",
    "write_merge_tree",
    "write_scalar_field",
]
