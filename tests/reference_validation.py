"""The ``validate_branch_mapping`` that walked parent chains for condition 4.

Kept verbatim as the reference of the equality test in ``test_mapping.py``.
"""

from mtdist.mapping import BranchMapping
from mtdist.metrics import aggregate
from mtdist.trees import MergeTree, ValidationReport


def _is_weak_descendant(tree: MergeTree, u: int, v: int) -> bool:
    """True when v lies on the root path of u (including u == v)."""
    while u != -1:
        if u == v:
            return True
        u = int(tree.parent[u])
    return False


def reference_validate_branch_mapping(mapping: BranchMapping) -> ValidationReport:
    """Check the four mapping conditions and the cost equation.

    Order preservation is checked both ways: start vertices of matched
    branches must compare identically (equal to equal, descendant to
    descendant) on both sides, which is the reading the recursion computes.
    """
    bad = []
    m = mapping
    if m.tree1 is None or m.tree2 is None:
        covered = set(m.deletions) | set(m.insertions)
        expect = set()
        if m.decomposition1 is not None:
            expect |= set(m.decomposition1.branches)
        if m.decomposition2 is not None:
            expect |= set(m.decomposition2.branches)
        if covered != expect or m.pairs:
            bad.append("one-sided mapping must delete or insert exactly all branches")
        costs = m.edit_costs()
        if abs(aggregate(costs, m.mode) - m.total_cost) > 1e-9:
            bad.append("total cost does not match the aggregated edit costs")
        return ValidationReport(ok=not bad, violations=tuple(bad))

    left = [a for a, _ in m.pairs]
    right = [b for _, b in m.pairs]
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        bad.append("condition 1 (one-to-one) violated")
    if m.decomposition1 is None or m.decomposition2 is None:
        bad.append("mapping lacks its decompositions")
        return ValidationReport(ok=False, violations=tuple(bad))
    if (m.decomposition1.main, m.decomposition2.main) not in set(m.pairs):
        bad.append("condition 2 (main branches paired) violated")
    paired = set(m.pairs)
    for a, b in m.pairs:
        pa = m.decomposition1.parent_branch(a)
        pb = m.decomposition2.parent_branch(b)
        if (pa is None) != (pb is None):
            bad.append(f"condition 3 (upward closure) violated at ({a.label},{b.label})")
        elif pa is not None and (pa, pb) not in paired:
            bad.append(f"condition 3 (upward closure) violated at ({a.label},{b.label})")
    for idx, (a, b) in enumerate(m.pairs):
        for a2, b2 in m.pairs[idx + 1 :]:
            d1 = _is_weak_descendant(m.tree1, a.start, a2.start)
            d2 = _is_weak_descendant(m.tree2, b.start, b2.start)
            u1 = _is_weak_descendant(m.tree1, a2.start, a.start)
            u2 = _is_weak_descendant(m.tree2, b2.start, b.start)
            if d1 != d2 or u1 != u2:
                bad.append(
                    f"condition 4 (order preservation) violated between "
                    f"({a.label},{b.label}) and ({a2.label},{b2.label})"
                )
    if set(left) | set(m.deletions) != set(m.decomposition1.branches):
        bad.append("pairs plus deletions do not cover decomposition 1")
    if set(right) | set(m.insertions) != set(m.decomposition2.branches):
        bad.append("pairs plus insertions do not cover decomposition 2")
    costs = m.edit_costs()
    if abs(aggregate(costs, m.mode) - m.total_cost) > 1e-9:
        bad.append("total cost does not match the aggregated edit costs")
    return ValidationReport(ok=not bad, violations=tuple(bad))
