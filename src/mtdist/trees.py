"""Rooted scalar-labeled merge trees and their validation.

A merge tree here is an unordered rooted tree whose nodes carry real scalar
values. The shape contract (checked by :func:`validate_merge_tree`):

* the root has exactly one child,
* every other inner node has at least two children,
* every child's value strictly exceeds its parent's value.

Node ids are dense integers ``0..n-1`` assigned at construction. Trees are
immutable after construction and safe to share between threads. Every
tree-shaped input (merge trees, labelled trees, BDTs) takes its child lists
from :func:`_children` and its walks from :func:`_preorder`; both table
families order nodes by :func:`_layout_order`.

Layouts derived from a tree (its elder-rule decomposition, the baselines'
labelled inputs, the distance tables' state layouts) are built per call.
A driver that compares each tree many times, ``compute_matrix`` or
``build_tracks``, opens a memo of them with :func:`_layout_memo` for the
length of its call only. The memo belongs to the calling thread (a context
variable), not to the trees: nothing is stored on a tree, pickled with it,
or kept after the driver returns, and other threads never see it.
``compute_matrix`` also holds one row group's joined table there, with
:func:`_memo_entry`, while that group's pairs run: the free table under
``branch``, held by the row's tree, and the baselines' table, held by the
row's labelled input.
"""

from __future__ import annotations

import codecs
import numbers
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTreeError, MTDistError, ParseError


class MergeTree:
    """Immutable rooted tree with one scalar value per node.

    The constructor only requires the input to be structurally parseable
    (a single connected rooted tree over dense ids). Shape violations such
    as a degree-two root are data, reported by :func:`validate_merge_tree`,
    so that invalid trees can be represented and diagnosed.

    The constructor's one walk from the root leaves ``preorder`` (root
    first, children in id order, as :meth:`subtree_nodes` lists them),
    ``depths`` (edges from the root, per node) and ``depth``, their maximum;
    ``leaves`` lists the childless nodes in id order.
    """

    __slots__ = ("values", "parent", "children", "root", "preorder", "depths", "depth", "leaves", "_report", "_hash")

    def __init__(self, values, parent):
        # copies, so that freezing them leaves the caller's arrays alone; where
        # the conversion fails or a value is text, which numpy would parse
        # when it reads as a number, NaN stands for each value that is no number
        given = values
        try:
            values = np.array(given, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            values = None
        if values is None or (values.ndim == 1 and _has_text(given)):
            values = np.array([_float_or_nan(x) for x in given], dtype=np.float64)
        try:
            ids = np.asarray(parent)
        except ValueError:  # a ragged sequence
            ids = None
        if values.ndim != 1 or ids is None or ids.shape != values.shape:
            raise MTDistError("values and parent must be 1-d sequences of equal length")
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            raise MTDistError(f"node {bad[0]} has value {given[bad[0]]!r}, expected a finite number")
        n = len(values)
        if n == 0:
            raise MTDistError("a merge tree needs at least one node")
        parent = _parent_ids(parent, n)
        roots = np.flatnonzero(parent == -1)
        if len(roots) != 1:
            raise MTDistError(f"expected exactly one root (parent -1), found {len(roots)}")
        root = int(roots[0])
        par = parent.tolist()
        children = _children(par)
        # every node has one parent, so the walk meets each reached node
        # once; a cycle or a disconnected part leaves nodes unreached
        preorder = _preorder(root, children)
        if len(preorder) != n:
            raise MTDistError("parent pointers do not form a single connected tree")
        depths = [0] * n
        for v in preorder[1:]:
            depths[v] = depths[par[v]] + 1

        # the three shape rules, reported rather than raised
        bad = []
        if len(children[root]) != 1:
            bad.append(f"root degree != 1: node {root} has {len(children[root])} children")
        vals = values.tolist()
        for v, p in enumerate(par):
            if v == root:
                continue
            if len(children[v]) == 1:
                bad.append(f"inner node of degree one: node {v}")
            if vals[v] <= vals[p]:
                bad.append(
                    f"non-increasing toward root: node {v} (value {values[v]!r}) "
                    f"<= parent {p} (value {values[p]!r})"
                )

        values.setflags(write=False)
        parent.setflags(write=False)
        self.values = values
        self.parent = parent
        self.children = children
        self.root = root
        self.preorder = tuple(preorder)
        self.depths = tuple(depths)
        self.depth = max(depths)
        self.leaves = tuple(v for v, cs in enumerate(children) if not cs)
        self._report = ValidationReport(ok=not bad, violations=tuple(bad))
        self._hash = None

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        if not isinstance(other, MergeTree):
            return NotImplemented
        return (
            np.array_equal(self.values, other.values)
            and np.array_equal(self.parent, other.parent)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.values.tobytes(), self.parent.tobytes()))
        return self._hash

    def __repr__(self):
        return f"MergeTree(n={len(self)}, root={self.root})"

    def is_leaf(self, v):
        return not self.children[v]

    def ancestors(self, v):
        """Strict ancestors of ``v`` ordered root first."""
        out = []
        p = int(self.parent[v])
        while p != -1:
            out.append(p)
            p = int(self.parent[p])
        out.reverse()
        return out

    def subtree_nodes(self, v):
        """All nodes of the classic subtree under ``v`` (inclusive), preorder."""
        return _preorder(v, self.children)


def _has_text(values):
    """Whether the 1-d sequence ``values`` holds a ``str`` or ``bytes``;
    an array of numbers holds none, whatever its length."""
    kind = values.dtype.kind if isinstance(values, np.ndarray) else "O"
    return kind in "SU" or (kind == "O" and any(isinstance(x, (str, bytes)) for x in values))


def _float_or_nan(x):
    """``x`` as a float if it is a real number that converts to one, else NaN."""
    try:
        return float(x) if isinstance(x, numbers.Real) else np.nan
    except OverflowError:
        return np.nan


def _parent_ids(parent, n):
    """The parent ids ``parent`` as an int64 array, once each is -1 or a node
    id below ``n``; else an :class:`MTDistError` naming the first node with
    another."""
    ids = np.asarray(parent)
    if ids.dtype.kind == "i":  # signed integers already: only the range to check
        ids = ids.astype(np.int64)
        bad = np.flatnonzero((ids < -1) | (ids >= n))
        k = int(bad[0]) if len(bad) else None
    else:
        ids = ids.tolist() if isinstance(parent, np.ndarray) else list(parent)
        k = next((k for k, p in enumerate(ids) if not (isinstance(p, numbers.Integral) and -1 <= p < n)), None)
    if k is None:
        return np.array(ids, dtype=np.int64)
    p = ids[k]
    if not isinstance(p, numbers.Integral):
        raise MTDistError(f"node {k} has parent {p!r}, expected an integer id")
    raise MTDistError(f"parent ids out of range: node {k} has parent {int(p)}, expected -1 or 0..{n - 1}")


def _children(parent):
    """``out[v]``: the children of node v in id order, from each node's
    parent id (-1 at the root)."""
    kids = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p >= 0:
            kids[p].append(v)
    return tuple(map(tuple, kids))


def _preorder(root, children):
    """The nodes reachable from ``root``, parents first and siblings in id
    order; reversed, it lists every child before its parent."""
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack += children[v][::-1]  # so that they pop in id order
    return order


def _layout_order(post, children):
    """``(height, order)``: the height, edges down to the farthest leaf, of
    every node of ``post`` (children first) and those nodes sorted by
    (height, child count, id)."""
    height = [0] * len(children)
    for v in post:
        cs = children[v]
        if cs:
            height[v] = 1 + max([height[c] for c in cs])
    return height, sorted(post, key=lambda v: (height[v], len(children[v]), v))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self):
        return self.ok


def validate_merge_tree(tree: MergeTree) -> ValidationReport:
    """The three shape invariants, checked once by the constructor;
    violations are reported, not raised."""
    return tree._report


def require_valid(tree: MergeTree) -> MergeTree:
    if not tree._report.ok:
        raise InvalidTreeError("; ".join(tree._report.violations))
    return tree


# ---------------------------------------------------------------------------
# per-call memo of derived layouts
# ---------------------------------------------------------------------------

# (id of the source object, key) -> (source object, layout); the source is
# kept with its layout, so its id cannot be reused while the memo is open
_MEMO: ContextVar[dict | None] = ContextVar("mtdist_layout_memo", default=None)


@contextmanager
def _layout_memo(memo=None):
    """Memoize :func:`_memoized` layouts in ``memo`` (a new dict if None)
    until the block exits, also when it raises."""
    token = _MEMO.set({} if memo is None else memo)
    try:
        yield
    finally:
        _MEMO.reset(token)


def _memoized(source, key, build):
    """``build()``, once per ``source`` object and ``key`` while a memo is
    open, and on every call otherwise."""
    memo = _MEMO.get()
    if memo is None:
        return build()
    slot = (id(source), key)
    hit = memo.get(slot)
    if hit is None:
        hit = memo[slot] = (source, build())
    return hit[1]


@contextmanager
def _memo_entry(source, key, value):
    """Hold ``value`` as ``source``'s ``key`` in the open memo until the
    block exits, also when it raises; with no memo open, hold nothing."""
    memo = _MEMO.get()
    slot = (id(source), key)
    if memo is not None:
        memo[slot] = (source, value)
    try:
        yield
    finally:
        if memo is not None:
            del memo[slot]


def _memo_get(source, key):
    """The value held as ``source``'s ``key`` in the open memo, else None."""
    memo = _MEMO.get()
    hit = None if memo is None else memo.get((id(source), key))
    return None if hit is None else hit[1]


# ---------------------------------------------------------------------------
# MT text format: header "MT <nodeCount>", then "<id> <value> <parentId|-1>".
# ---------------------------------------------------------------------------

def _content_rows(text: str):
    """``(line number, stripped line)`` of every line of ``text`` that is
    neither blank nor a ``#`` comment: what the MT and SF2 parsers read."""
    rows = enumerate(map(str.strip, text.splitlines()), start=1)
    return [(no, ln) for no, ln in rows if ln and not ln.startswith("#")]


def _header(text: str, path: str, magic: str, names):
    """``(rows, fields)``: the :func:`_content_rows` of ``text``, whose first
    is the header ``<magic> <name> ...``, and the header's integer fields,
    one per name. A missing or malformed header raises :class:`ParseError`."""
    rows = _content_rows(text)
    form = " ".join([magic] + [f"<{name}>" for name in names])
    if not rows:
        raise ParseError(path, 1, f"empty file, expected '{form}' header")
    no, header = rows[0]
    parts = header.split()
    if len(parts) != 1 + len(names) or parts[0] != magic:
        raise ParseError(path, no, f"bad header {header!r}, expected '{form}'")
    try:
        return rows, [int(part) for part in parts[1:]]
    except ValueError:
        raise ParseError(path, no, f"non-integer field in header {header!r}, expected '{form}'") from None


def parse_merge_tree(text: str, path: str = "<string>") -> MergeTree:
    rows, (count,) = _header(text, path, "MT", ("nodeCount",))
    no, body = rows[0][0], rows[1:]
    if len(body) != count:
        raise ParseError(path, no, f"header announces {count} nodes, file has {len(body)}")
    values = np.full(count, np.nan)
    parent = np.full(count, -2, dtype=np.int64)
    for no, ln in body:
        cols = ln.split()
        if len(cols) != 3:
            raise ParseError(path, no, f"expected '<id> <value> <parentId>', got {ln!r}")
        try:
            nid = int(cols[0])
            val = float(cols[1])
            par = int(cols[2])
        except ValueError:
            raise ParseError(path, no, f"malformed node line {ln!r}") from None
        if not 0 <= nid < count:
            raise ParseError(path, no, f"node id {nid} outside 0..{count - 1}")
        if parent[nid] != -2:
            raise ParseError(path, no, f"duplicate node id {nid}")
        if not np.isfinite(val):
            raise ParseError(path, no, f"non-finite value for node {nid}")
        values[nid] = val
        parent[nid] = par
    # structural faults and shape violations alike: at the last line read
    try:
        return require_valid(MergeTree(values, parent))
    except MTDistError as exc:
        raise ParseError(path, no, str(exc)) from None


def read_text(path) -> str:
    """The contents of a UTF-8 text file, without a leading byte-order mark;
    other bytes raise :class:`ParseError`."""
    with open(path, "rb") as fh:
        data = fh.read()
    # skipped by hand: the utf-8-sig codec reports offsets past the mark
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        return data[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        at = bom + exc.start
        line = data.count(b"\n", 0, at) + 1
        raise ParseError(path, line, f"not UTF-8 text: byte {data[at]:#04x} at offset {at}") from None


def read_merge_tree(path) -> MergeTree:
    return parse_merge_tree(read_text(path), path=str(path))


def format_merge_tree(tree: MergeTree) -> str:
    out = [f"MT {len(tree)}"]
    for v in range(len(tree)):
        out.append(f"{v} {float(tree.values[v])!r} {int(tree.parent[v])}")
    return "\n".join(out) + "\n"


def write_merge_tree(path, tree: MergeTree) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_merge_tree(tree))
