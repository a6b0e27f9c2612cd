"""Feature tracks from chained branch mappings over a time series.

For every consecutive pair of trees the optimal branch mapping induces a
node mapping; its leaf pairs connect maxima across time steps. Chaining the
matched leaves transitively yields tracks: an unmatched leaf on the later
side starts a new track, an unmatched leaf on the earlier side ends one.
"""

from __future__ import annotations

from .errors import PreconditionError
from .mapping import induced_node_mapping
from .matrix import DistanceOptions, branch_mapping
from .trees import _layout_memo


def step_leaf_pairs(t1, t2, opts: DistanceOptions):
    """Matched (leaf in t1, leaf in t2) pairs of one time step."""
    _, mapping = branch_mapping(t1, t2, opts)
    nodes = induced_node_mapping(mapping)
    leaves1 = set(t1.leaves)
    leaves2 = set(t2.leaves)
    return sorted((a, b) for a, b in nodes if a in leaves1 and b in leaves2)


def build_tracks(trees, opts: DistanceOptions):
    """Track structure over the whole series.

    Returns a JSON-ready dict: per-step matched leaf pairs plus tracks,
    each track a list of (step, leaf-id) entries. Every inner tree takes
    part in two steps; its layout is prepared once for both.
    """
    trees = list(trees)
    if len(trees) < 2:
        raise PreconditionError("tracking needs at least two time steps")
    steps = []
    with _layout_memo():
        for k in range(len(trees) - 1):
            pairs = step_leaf_pairs(trees[k], trees[k + 1], opts)
            steps.append({"from": k, "to": k + 1, "pairs": [[a, b] for a, b in pairs]})

    tracks = []
    open_tracks: dict[int, int] = {}  # leaf id at current step -> track index
    for leaf in trees[0].leaves:
        open_tracks[leaf] = len(tracks)
        tracks.append([(0, leaf)])
    for k, step in enumerate(steps):
        matched_next = {}
        for a, b in step["pairs"]:
            if a in open_tracks:
                idx = open_tracks[a]
                tracks[idx].append((k + 1, b))
                matched_next[b] = idx
        open_tracks = matched_next
        for leaf in trees[k + 1].leaves:
            if leaf not in open_tracks:
                open_tracks[leaf] = len(tracks)
                tracks.append([(k + 1, leaf)])
    return {
        "steps": steps,
        "tracks": [
            {"id": i, "nodes": [[s, v] for s, v in nodes]} for i, nodes in enumerate(tracks)
        ],
    }
