"""2-d scalar fields, merge-tree construction, and persistence simplification.

Merge trees follow a sweep over the grid vertices in order of decreasing
value (for maxima; the minima direction negates the field first and keeps
the negated values as node labels, so the output is always a valid merge
tree). Equal values are totally ordered by ascending linear index: among
ties, the smaller index counts as larger and is swept first. Node values
receive a tiny sweep-rank-scaled offset so that the strict child-above-parent
inequality holds even on plateaus; where the values are too large for the
offset to show, a node is raised one ulp above its parent instead. Such
raises add up along a chain of nodes on one plateau, so a node at depth d
can sit up to d ulps above its field value.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .branches import _elder_child, _submax
from .errors import MTDistError, ParseError, PreconditionError, _choice
from .trees import MergeTree, _header, read_text, require_valid

_EPS = 1e-9


@dataclass(frozen=True)
class ScalarField2D:
    rows: int
    cols: int
    values: np.ndarray
    connectivity: int = 8

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if self.rows <= 0 or self.cols <= 0:
            raise MTDistError("field dimensions must be positive")
        if vals.shape != (self.rows * self.cols,):
            raise MTDistError(
                f"expected {self.rows * self.cols} row-major values, got {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise MTDistError("field values must be finite")
        _choice("connectivity", self.connectivity, (4, 8))
        vals.setflags(write=False)

    def grid(self):
        return self.values.reshape(self.rows, self.cols)

    def neighbors(self, idx):
        r, c = divmod(idx, self.cols)
        steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
        if self.connectivity == 8:
            steps += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        for dr, dc in steps:
            rr, cc = r + dr, c + dc
            if 0 <= rr < self.rows and 0 <= cc < self.cols:
                yield rr * self.cols + cc


# ---------------------------------------------------------------------------
# SF2 text format: header "SF2 <rows> <cols>", then row-major values.
# ---------------------------------------------------------------------------

def parse_scalar_field(text: str, path: str = "<string>", connectivity: int = 8) -> ScalarField2D:
    rows, (r, c) = _header(text, path, "SF2", ("rows", "cols"))
    try:
        # float()'s syntax, in one call; the loop only names a bad token
        values = np.array([tok for _, ln in rows[1:] for tok in ln.split()], dtype=np.float64)
    except ValueError:
        for no2, ln in rows[1:]:
            for tok in ln.split():
                try:
                    float(tok)
                except ValueError:
                    raise ParseError(path, no2, f"bad value {tok!r}") from None
        raise
    if len(values) != r * c:
        raise ParseError(path, rows[-1][0], f"expected {r * c} values, found {len(values)}")
    try:
        return ScalarField2D(rows=r, cols=c, values=values, connectivity=connectivity)
    except MTDistError as exc:
        raise ParseError(path, rows[-1][0], str(exc)) from None


def read_scalar_field(path, connectivity: int = 8) -> ScalarField2D:
    return parse_scalar_field(read_text(path), path=str(path), connectivity=connectivity)


def format_scalar_field(f: ScalarField2D) -> str:
    out = [f"SF2 {f.rows} {f.cols}"]
    g = f.grid()
    for r in range(f.rows):
        out.append(" ".join(repr(float(x)) for x in g[r]))
    return "\n".join(out) + "\n"


def write_scalar_field(path, f: ScalarField2D) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_scalar_field(f))


# ---------------------------------------------------------------------------
# merge-tree construction
# ---------------------------------------------------------------------------

# undirected grid offsets; the neighbours of a vertex are +- each of them
_OFFSETS = {4: ((0, 1), (1, 0)), 8: ((0, 1), (1, 0), (1, 1), (1, -1))}


def _earliest_per_pair(act, a, b, n):
    """Keep, of the edges ``(act, a, b)``, the earliest per unordered pair {a, b}."""
    pair = np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)
    by_pair = np.lexsort((act, pair))
    pair = pair[by_pair]
    first = np.ones(len(pair), dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    keep = by_pair[first]
    return act[keep], a[keep], b[keep]


def _ascent_regions(grid, order, offsets):
    """Sweep ranks of the maxima (ascending) and the grid of region labels.

    Every vertex points at its earliest-swept neighbour if that one is swept
    before it. Following the pointers (by pointer jumping) ends at a
    maximum, so the grid splits into ascent regions, one per maximum,
    labelled by its sweep rank. A region is connected from the moment its
    maximum is swept.
    """
    n = len(order)
    rows, cols = grid.shape
    # pointers in sweep-rank space: the smallest rank among a vertex and its
    # neighbours; the fixed points are the maxima
    padded = np.full((rows + 2, cols + 2), n, dtype=grid.dtype)
    padded[1:-1, 1:-1] = grid
    earliest = grid.copy()
    for dr, dc in offsets:
        for sr, sc in ((dr, dc), (-dr, -dc)):
            np.minimum(earliest, padded[1 + sr : 1 + sr + rows, 1 + sc : 1 + sc + cols], out=earliest)
    up = earliest.reshape(-1)[order]
    while True:
        jumped = up[up]
        if np.array_equal(jumped, up):
            break
        up = jumped
    return np.flatnonzero(up == np.arange(n, dtype=up.dtype)), up[grid]


def _offset_edges(grid, region, dr, dc):
    """The grid edges along offset (dr, dc) whose endpoints lie in different
    regions, as (activation rank, region of the later endpoint, region of
    the earlier endpoint)."""
    rows, cols = grid.shape
    c0, c1 = max(0, -dc), cols - max(0, dc)
    ra, rb = grid[: rows - dr, c0:c1], grid[dr:, c0 + dc : c1 + dc]
    ga, gb = region[: rows - dr, c0:c1], region[dr:, c0 + dc : c1 + dc]
    cross = ga != gb
    ra, rb, ga, gb = ra[cross], rb[cross], ga[cross], gb[cross]
    b_later = rb > ra
    return np.where(b_later, rb, ra), np.where(b_later, gb, ga), np.where(b_later, ga, gb)


def _region_edges(order, rows, cols, connectivity):
    """The maxima of the sweep and the grid edges that can join their regions.

    A grid edge between two ascent regions activates when its later
    endpoint is swept. Of the edges between two regions only the earliest
    can join them; the others activate when the regions are already joined.

    Returns the sweep ranks of the maxima in ascending order and, in
    activation order, each kept edge's activation rank and the indices
    (into the maxima) of the regions of its later and of its earlier
    endpoint.
    """
    n = len(order)
    # int32 ranks halve the bytes of every temporary below
    itype = np.int32 if n < 2**31 else np.int64
    rank = np.empty(n, dtype=itype)
    rank[order] = np.arange(n, dtype=itype)
    grid = rank.reshape(rows, cols)
    offsets = _OFFSETS[connectivity]
    maxima, region = _ascent_regions(grid, order, offsets)

    # one offset at a time, merged into the edges kept so far, which bounds
    # the temporaries
    kept = (np.empty(0, dtype=itype),) * 3
    for dr, dc in offsets:
        edges = _offset_edges(grid, region, dr, dc)
        kept = _earliest_per_pair(*(np.concatenate(p) for p in zip(kept, edges)), n)
    act, later, earlier = kept
    by_act = np.argsort(act, kind="stable")
    return (
        maxima,
        act[by_act],
        np.searchsorted(maxima, later[by_act]),
        np.searchsorted(maxima, earlier[by_act]),
    )


def _join_regions(maxima, act, later, earlier):
    """Union-find over regions, one kept edge at a time in activation order.

    Edges are grouped by their activating vertex, so a vertex at which
    k >= 2 components meet becomes one saddle of degree k. Returns the
    sweep ranks of all leaves and saddles in ascending order and, per node
    in that order, the index of its parent node; the topmost node gets
    ``len(nodes)``, the index of the root still to be appended.
    """
    # ``top[r]`` is the sweep rank of the highest node built so far in the
    # component of root r
    link = list(range(len(maxima)))
    top = maxima.tolist()

    def find(x):
        while link[x] != x:
            link[x] = x = link[link[x]]
        return x

    saddles, lower, upper = [], [], []
    for v, x, y in zip(act.tolist(), later.tolist(), earlier.tolist()):
        x = find(x)
        y = find(y)
        if x == y:
            continue
        if not saddles or saddles[-1] != v:
            saddles.append(v)
            lower.append(top[x])
            upper.append(v)
            top[x] = v
        lower.append(top[y])
        upper.append(v)
        link[y] = x

    nodes = np.sort(np.concatenate([maxima, np.array(saddles, dtype=np.int64)]))
    parent = np.full(len(nodes), len(nodes), dtype=np.int64)
    parent[np.searchsorted(nodes, lower)] = np.searchsorted(nodes, upper)
    return nodes, parent


def compute_merge_tree(f: ScalarField2D, direction: str = "max") -> MergeTree:
    """Merge tree of the superlevel sets, swept in decreasing value order.

    A vertex with no swept neighbour opens a component (a leaf node); a
    vertex joining k >= 2 components becomes their common saddle; the last
    vertex is appended as the degree-one root. Nodes are numbered in sweep
    order with the root last.

    The sweep is not run vertex by vertex: numpy splits the grid into
    ascent regions, one per leaf, and finds the few grid edges that can
    join two regions (:func:`_region_edges`); a union-find over regions
    runs over those edges only (:func:`_join_regions`).

    At magnitudes where the offset of at most 1e-9 falls below float
    resolution (about 1e8 and up), a node not above its parent is raised
    one ulp above it, walking from the root down, and the root goes one ulp
    below the lowest node. The raises add up along a chain of saddles on
    one plateau: a node at depth d can sit up to d ulps above its field
    value, so persistences of a few ulps are not exact there. For example,
    at 3e15 (ulp 0.5) the field ``[3e15+1, 3e15, 3e15+1, 3e15, 3e15+1]``
    gives its first saddle the value 3e15+0.5 and its two leaves a
    persistence of 0.5 instead of 1.
    """
    _choice("direction", direction, ("max", "min"))
    work = f.values if direction == "max" else -f.values
    n = len(work)
    order = np.lexsort((np.arange(n), -work))
    nodes, parent = _join_regions(*_region_edges(order, f.rows, f.cols, f.connectivity))

    def node_value(k):
        # sweep-rank-scaled offset keeps node values strictly ordered like
        # the sweep itself, including across plateaus
        return work[order[k]] + _EPS * (n - 1 - k) / n

    values = node_value(nodes).tolist()
    parent = parent.tolist() + [-1]
    root_val = float(node_value(n - 1))
    low = min(values)
    if root_val >= low:
        # the last vertex already became a node (all-merging saddle)
        root_val = low - _EPS / n
        if root_val >= low:
            # at large magnitudes the offset is below float resolution
            root_val = math.nextafter(low, -math.inf)
    values.append(root_val)
    # large magnitudes again: a node the offset could not lift above its
    # parent is raised one ulp above it. Parents have larger ids, so the
    # walk goes from the root down. On every other field it changes nothing.
    for v in range(len(values) - 2, -1, -1):
        if values[v] <= values[parent[v]]:
            values[v] = math.nextafter(values[parent[v]], math.inf)
    return require_valid(MergeTree(values, parent))


# ---------------------------------------------------------------------------
# persistence simplification
# ---------------------------------------------------------------------------

def simplify(tree: MergeTree, threshold: float) -> MergeTree:
    """Iteratively remove sub-threshold leaf branches.

    Repeatedly removes the lowest-persistence leaf whose span to its saddle
    is below the threshold, never removing the saddle's highest-reaching
    child (elder tie-breaking: the smallest node-id survives). Saddles left
    with a single child are spliced out. The result is a valid tree whose
    non-main elder branches all have persistence >= threshold; surviving
    nodes keep their relative id order.

    The greedy is event-driven. ``submax(v)``, the highest leaf value below
    ``v``, never changes: only non-preferred leaves are removed, so every
    saddle keeps its highest-reaching child, and a spliced saddle's only
    child has the saddle's ``submax``. It is computed once, as the elder rule
    computes it. A removal at saddle ``s`` changes only ``s`` and, when ``s``
    is spliced out, the child list of its parent ``p``; there the child id
    changes from ``s`` to ``only``, which can flip an id tie-break, so the
    elder choice at ``p`` is made again and ``only`` and the previously
    preferred child are
    offered again. Candidates wait in a heap keyed ``(persistence, id)``,
    the order in which the greedy picks them; an entry whose leaf is gone,
    whose parent changed or which has become preferred is skipped when
    popped. The whole pass costs O(n log n).
    """
    require_valid(tree)
    if not threshold >= 0:
        raise PreconditionError(f"threshold must be >= 0, got {threshold!r}")
    values = tree.values.tolist()
    parent = tree.parent.tolist()
    children = [list(c) for c in tree.children]
    root = tree.root
    gone = -2

    submax = _submax(tree)
    pref = [_elder_child(cs, submax) if cs else -1 for cs in children]

    heap = []

    def offer(v):
        s = parent[v]
        if children[v] or s == root or pref[s] == v:
            return
        pers = values[v] - values[s]
        if pers < threshold:
            heapq.heappush(heap, (pers, v, s))

    for v in range(len(values)):
        if v != root:
            offer(v)
    while heap:
        _, v, s = heapq.heappop(heap)
        if parent[v] != s or pref[s] == v:
            continue
        kids = children[s]
        kids.remove(v)
        parent[v] = gone
        if len(kids) == 1:
            (only,) = kids
            p = parent[s]
            siblings = children[p]
            siblings[siblings.index(s)] = only
            parent[only] = p
            parent[s] = gone
            was = pref[p]
            pref[p] = _elder_child(siblings, submax)
            offer(only)
            if was != s:
                offer(was)

    keep = [v for v in range(len(values)) if parent[v] != gone]
    index = {v: i for i, v in enumerate(keep)}
    new_values = [values[v] for v in keep]
    new_parent = [index[parent[v]] if parent[v] != -1 else -1 for v in keep]
    return require_valid(MergeTree(new_values, new_parent))
