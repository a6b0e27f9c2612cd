"""Rooted scalar-labeled merge trees and their validation.

A merge tree here is an unordered rooted tree whose nodes carry real scalar
values. The shape contract (checked by :func:`validate_merge_tree`):

* the root has exactly one child,
* every other inner node has at least two children,
* every child's value strictly exceeds its parent's value.

Node ids are dense integers ``0..n-1`` assigned at construction. Trees are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import codecs
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
        # copies, so that freezing them leaves the caller's arrays alone
        values = np.array(values, dtype=np.float64)
        parent = np.array(parent, dtype=np.int64)
        if values.ndim != 1 or parent.shape != values.shape:
            raise MTDistError("values and parent must be 1-d sequences of equal length")
        n = len(values)
        if n == 0:
            raise MTDistError("a merge tree needs at least one node")
        roots = np.flatnonzero(parent == -1)
        if len(roots) != 1:
            raise MTDistError(f"expected exactly one root (parent -1), found {len(roots)}")
        if ((parent < -1) | (parent >= n)).any():
            raise MTDistError("parent ids out of range")
        root = int(roots[0])
        par = parent.tolist()
        children: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(par):
            if p >= 0:
                children[p].append(v)
        # children are pushed in reverse, so they pop in id order. Every node
        # has one parent, so the walk meets each reached node once; a cycle
        # or a disconnected part leaves nodes unreached
        preorder = []
        stack = [root]
        while stack:
            v = stack.pop()
            preorder.append(v)
            stack += children[v][::-1]
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
        self.children = tuple(map(tuple, children))
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
        out = []
        stack = [v]
        while stack:
            x = stack.pop()
            out.append(x)
            stack.extend(reversed(self.children[x]))
        return out


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
# MT text format: header "MT <nodeCount>", then "<id> <value> <parentId|-1>".
# ---------------------------------------------------------------------------

def parse_merge_tree(text: str, path: str = "<string>") -> MergeTree:
    lines = text.splitlines()
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    rows = [(no, ln) for no, ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise ParseError(path, 1, "empty file, expected 'MT <nodeCount>' header")
    no, header = rows[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "MT":
        raise ParseError(path, no, f"bad header {header!r}, expected 'MT <nodeCount>'")
    try:
        count = int(parts[1])
    except ValueError:
        raise ParseError(path, no, f"bad node count {parts[1]!r}") from None
    body = rows[1:]
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
    try:
        tree = MergeTree(values, parent)
    except MTDistError as exc:
        raise ParseError(path, body[-1][0], str(exc)) from None
    return require_valid(tree)


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
