"""2-d scalar fields, merge-tree construction, and persistence simplification.

Merge trees are built by a union-find sweep over the grid vertices in order
of decreasing value (for maxima; the minima direction negates the field
first and keeps the negated values as node labels, so the output is always a
valid merge tree). Equal values are totally ordered by ascending linear
index: among ties, the smaller index counts as larger and is swept first.
Node values receive a tiny index-scaled offset so that the strict
child-above-parent inequality holds even on plateaus.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .branches import elder_rule_decomposition
from .errors import MTDistError, ParseError
from .trees import MergeTree, require_valid

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
        if self.connectivity not in (4, 8):
            raise MTDistError("connectivity must be 4 or 8")
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
    lines = text.splitlines()
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    rows = [(no, ln) for no, ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise ParseError(path, 1, "empty file, expected 'SF2 <rows> <cols>' header")
    no, header = rows[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "SF2":
        raise ParseError(path, no, f"bad header {header!r}, expected 'SF2 <rows> <cols>'")
    try:
        r, c = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(path, no, f"bad dimensions in header {header!r}") from None
    values = []
    for no2, ln in rows[1:]:
        for tok in ln.split():
            try:
                values.append(float(tok))
            except ValueError:
                raise ParseError(path, no2, f"bad value {tok!r}") from None
    if len(values) != r * c:
        raise ParseError(path, rows[-1][0], f"expected {r * c} values, found {len(values)}")
    try:
        return ScalarField2D(rows=r, cols=c, values=np.array(values), connectivity=connectivity)
    except MTDistError as exc:
        raise ParseError(path, rows[-1][0], str(exc)) from None


def read_scalar_field(path, connectivity: int = 8) -> ScalarField2D:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scalar_field(fh.read(), path=str(path), connectivity=connectivity)


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

def compute_merge_tree(f: ScalarField2D, direction: str = "max") -> MergeTree:
    """Union-find sweep in decreasing value order.

    A vertex with no processed neighbor opens a component (a leaf node); a
    vertex joining k >= 2 components becomes their common saddle; the last
    vertex is appended as the degree-one root.
    """
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    work = f.values if direction == "max" else -f.values
    n = len(work)
    order = np.lexsort((np.arange(n), -work))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    def node_value(idx):
        # sweep-rank-scaled offset keeps node values strictly ordered like
        # the sweep itself, including across plateaus
        return float(work[idx]) + _EPS * (n - 1 - int(rank[idx])) / n

    parent_uf = np.full(n, -1, dtype=np.int64)

    def find(x):
        root = x
        while parent_uf[root] != root:
            root = parent_uf[root]
        while parent_uf[x] != root:
            parent_uf[x], x = root, parent_uf[x]
        return root

    processed = np.zeros(n, dtype=bool)
    comp_node = {}
    values: list[float] = []
    parent: list[int] = []

    def new_node(val, par):
        values.append(val)
        parent.append(par)
        return len(values) - 1

    for idx in order:
        idx = int(idx)
        roots = []
        for nb in f.neighbors(idx):
            if processed[nb]:
                root = find(nb)
                if root not in roots:
                    roots.append(root)
        processed[idx] = True
        parent_uf[idx] = idx
        if not roots:
            comp_node[idx] = new_node(node_value(idx), -2)
            continue
        if len(roots) == 1:
            parent_uf[idx] = roots[0]
            continue
        saddle = new_node(node_value(idx), -2)
        for root in roots:
            node = comp_node.pop(root)
            parent[node] = saddle
            parent_uf[root] = idx
        comp_node[idx] = saddle

    last = int(order[-1])
    (top_node,) = comp_node.values()
    root_val = node_value(last)
    if values and root_val >= min(values):
        # the last vertex already became a node (all-merging saddle)
        root_val = min(values) - _EPS / n
    root = new_node(root_val, -1)
    parent[top_node] = root

    # reindex so that ids are dense in creation order with the root last
    tree = MergeTree(values, parent)
    return require_valid(tree)


def local_maximum_count(f: ScalarField2D, direction: str = "max") -> int:
    """Independent count of strict local maxima under the sweep tie order."""
    work = f.values if direction == "max" else -f.values
    count = 0
    for idx in range(len(work)):
        wins = True
        for nb in f.neighbors(idx):
            if (work[nb], -nb) > (work[idx], -idx):
                wins = False
                break
        if wins:
            count += 1
    return count


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
    child has the saddle's ``submax``. It is computed once, in post-order.
    A removal at saddle ``s`` changes only ``s`` and, when ``s`` is spliced
    out, the child list of its parent ``p``; there the child id changes from
    ``s`` to ``only``, which can flip an id tie-break, so ``preferred(p)``
    is recomputed and ``only`` and the previously preferred child are
    offered again. Candidates wait in a heap keyed ``(persistence, id)``,
    the order in which the greedy picks them; an entry whose leaf is gone,
    whose parent changed or which has become preferred is skipped when
    popped. The whole pass costs O(n log n).
    """
    require_valid(tree)
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    values = tree.values.tolist()
    parent = tree.parent.tolist()
    children = [list(c) for c in tree.children]
    root = tree.root
    gone = -2

    submax = values[:]
    for v in reversed(tree.subtree_nodes(root)):
        if children[v]:
            submax[v] = max(submax[c] for c in children[v])

    def preferred(s):
        return min(children[s], key=lambda c: (-submax[c], c))

    pref = [preferred(s) if children[s] else -1 for s in range(len(values))]

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
            pref[p] = preferred(p)
            offer(only)
            if was != s:
                offer(was)

    keep = [v for v in range(len(values)) if parent[v] != gone]
    index = {v: i for i, v in enumerate(keep)}
    new_values = [values[v] for v in keep]
    new_parent = [index[parent[v]] if parent[v] != -1 else -1 for v in keep]
    return require_valid(MergeTree(new_values, new_parent))


def elder_branch_persistences(tree: MergeTree):
    """Persistence of every non-main branch of the elder decomposition."""
    dec = elder_rule_decomposition(tree)
    return sorted(b.persistence for b in dec.branches if b != dec.main)
