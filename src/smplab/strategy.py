"""Adaptive decision trees, prefix-closed probing constraints, and
feasibility checking.

A decision tree probes the element at its root, then follows the arc labeled
with the revealed type. Constraints are stepwise: a sequence is feasible when
every prefix extension passes ``may_extend``, so prefix-closure holds by
construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .core import Scalar, Universe, ValidationError, check_finite
from .families import _on_one_root_path, _subtree_ranges


@dataclass(frozen=True)
class DecisionTree:
    """One node of an adaptive strategy; a leaf when ``element`` is None.

    ``children`` maps every type of ``element`` to the subtree taken when the
    probe reveals that type. Shared (DAG) subtrees are allowed. An element
    must not repeat on a root-leaf path; ``validate_tree`` checks that, and
    every evaluator runs its checks.
    """

    element: str | None
    children: Mapping[str, "DecisionTree"]

    def __post_init__(self):
        object.__setattr__(self, "children", dict(self.children))
        if self.element is None:
            if self.children:
                raise ValidationError("a leaf cannot have children")
        elif not self.children:
            raise ValidationError("an internal node needs one child arc per type")

    @property
    def is_leaf(self) -> bool:
        return self.element is None


def leaf() -> DecisionTree:
    return DecisionTree(None, {})


def probe(element: str, children: Mapping[str, DecisionTree]) -> DecisionTree:
    return DecisionTree(element, children)


def chain_tree(universe: Universe, sequence: Sequence[str]) -> DecisionTree:
    """The non-adaptive tree that probes a fixed sequence whatever it sees."""
    node = leaf()
    for e in reversed(sequence):
        node = probe(e, {t: node for t in universe.type_space[e]})
    return node


def validate_tree(tree: DecisionTree, universe: Universe) -> bool:
    """Check a tree against the universe; True if a node has two parents."""
    return _tree_nodes(tree, universe)[1]


def _tree_nodes(tree: DecisionTree, universe: Universe) -> tuple[list[DecisionTree], bool]:
    """Run ``validate_tree``'s checks; return the distinct internal nodes,
    children first with the root last, and whether a node has two parents.

    Each internal node needs a known element and one arc per type. No element
    may repeat on a root-leaf path; only one that labels two or more nodes can,
    so only those get a bit, ORed upward children first when there are any.
    """
    seen: set[int] = set()
    post: list[DecisionTree] = []
    expanded: list[DecisionTree] = []  # nodes whose children are still on the stack
    shared = False
    stack: list[DecisionTree | None] = [tree]
    while stack:
        node = stack.pop()
        if node is None:  # the children of the last expanded node are done
            post.append(expanded.pop())
            continue
        if node.is_leaf or id(node) in seen:
            shared = shared or not node.is_leaf
            continue
        seen.add(id(node))
        if node.element not in universe.type_space:
            raise ValidationError(f"unknown element {node.element!r} in tree")
        if set(node.children) != set(universe.type_space[node.element]):
            raise ValidationError(
                f"node for {node.element!r} must have exactly one arc per type"
            )
        expanded.append(node)
        stack.append(None)
        stack.extend(node.children.values())
    labels = Counter(node.element for node in post)
    bit = {e: 1 << i for i, e in enumerate(e for e, n in labels.items() if n > 1)}
    if bit:
        below: dict[int, int] = {}
        for node in post:
            mask = 0
            for child in node.children.values():
                mask |= below.get(id(child), 0)
            if mask & bit.get(node.element, 0):
                raise ValidationError(f"element {node.element!r} repeats on a probing path")
            below[id(node)] = mask | bit.get(node.element, 0)
    return post, shared


class ConstraintOracle:
    """Stepwise prefix-closed probing constraint."""

    kind = "abstract"

    def may_extend(self, prefix: tuple[str, ...], nxt: str) -> bool:
        raise NotImplementedError

    def allows(self, sequence: Sequence[str]) -> bool:
        seq = tuple(sequence)
        return all(self.may_extend(seq[:i], seq[i]) for i in range(len(seq)))


@dataclass(eq=True)
class BudgetConstraint(ConstraintOracle):
    """Total probing cost must stay within the budget."""

    cost: Mapping[str, Scalar]
    budget: Scalar

    kind = "budget"

    def __post_init__(self):
        self.cost = dict(self.cost)
        check_finite(self.budget, "budget")
        for e, c in self.cost.items():
            check_finite(c, f"cost of {e!r}")
            if c < 0:
                raise ValidationError(f"cost of {e!r} must be >= 0")

    def _cost_of(self, e: str) -> Scalar:
        try:
            return self.cost[e]
        except KeyError:
            raise ValidationError(f"no probing cost for element {e!r}")

    def may_extend(self, prefix, nxt):
        spent: Scalar = 0
        for e in prefix:
            spent = spent + self._cost_of(e)
        return spent + self._cost_of(nxt) <= self.budget


@dataclass(eq=True)
class CardinalityConstraint(ConstraintOracle):
    limit: int

    kind = "cardinality"

    def may_extend(self, prefix, nxt):
        return len(prefix) < self.limit


@dataclass(eq=True)
class DagPathConstraint(ConstraintOracle):
    """Sequences must trace a directed path starting at ``start``."""

    arcs: Mapping[str, frozenset[str]]
    start: str

    kind = "dag_path"

    def __post_init__(self):
        self.arcs = {e: frozenset(out) for e, out in self.arcs.items()}

    def may_extend(self, prefix, nxt):
        if not prefix:
            return nxt == self.start
        return nxt in self.arcs.get(prefix[-1], frozenset())


@dataclass(eq=True)
class TreeFanConstraint(ConstraintOracle):
    """Probed edges of a rooted tree must all touch one root-leaf vertex path.

    An edge (u, v) with u the parent touches the path to leaf L exactly when
    L lies in the subtree of u. Subtrees are nested or disjoint, so some leaf
    lies under the parent vertex of every probed edge exactly when those
    parent vertices lie on one root path.
    """

    edges: Mapping[str, tuple[str, str]]  # element -> (parent vertex, child vertex)
    root: str

    kind = "tree_fan"

    def __post_init__(self):
        self.edges = {e: (u, v) for e, (u, v) in self.edges.items()}
        self._subtree = _subtree_ranges(self.edges.values(), self.root)

    def may_extend(self, prefix, nxt):
        tops = []
        for e in (*prefix, nxt):
            if e not in self.edges:
                raise ValidationError(f"element {e!r} is not an edge of the tree")
            tops.append(self.edges[e][0])
        return _on_one_root_path(self._subtree, tops)


@dataclass(eq=True)
class TableConstraint(ConstraintOracle):
    """Explicit table of feasible sequences (used for serialized externals).

    ``may_extend`` consults the table directly; run the prefix-closure
    verifier on tables from outside sources.
    """

    sequences: frozenset[tuple[str, ...]]

    kind = "table"

    def __post_init__(self):
        self.sequences = frozenset(tuple(s) for s in self.sequences)

    def may_extend(self, prefix, nxt):
        return tuple(prefix) + (nxt,) in self.sequences


def constraint_budget(cost: Mapping[str, Scalar], budget: Scalar) -> BudgetConstraint:
    return BudgetConstraint(dict(cost), budget)


def constraint_cardinality(limit: int) -> CardinalityConstraint:
    return CardinalityConstraint(limit)


def constraint_dag_path(
    arcs: Mapping[str, Iterable[str]], start: str
) -> DagPathConstraint:
    return DagPathConstraint({e: frozenset(out) for e, out in arcs.items()}, start)


def constraint_tree_fan(
    tree_edges: Mapping[str, tuple[str, str]], root: str
) -> TreeFanConstraint:
    return TreeFanConstraint(dict(tree_edges), root)


def constraint_table(sequences: Iterable[Sequence[str]]) -> TableConstraint:
    return TableConstraint(frozenset(tuple(s) for s in sequences))


def _feasible_sequences(
    constraint: ConstraintOracle, order: Sequence[str], max_len: int
) -> Iterator[tuple[str, ...]]:
    """Every nonempty feasible sequence of distinct elements, up to ``max_len``.

    Preorder: each sequence comes before its extensions, and the extensions
    of one prefix come in ``order``. ``may_extend`` is called lazily, in the
    order a recursive walk would call it.
    """
    stack = [((), iter(order))] if max_len > 0 else []
    while stack:
        prefix, rest = stack[-1]
        for e in rest:
            if e not in prefix and constraint.may_extend(prefix, e):
                seq = prefix + (e,)
                yield seq
                if len(seq) < max_len:
                    stack.append((seq, iter(order)))
                break
        else:
            stack.pop()


def check_tree_feasible(
    tree: DecisionTree, constraint: ConstraintOracle
) -> tuple[bool, tuple[str, ...] | None]:
    """True iff every root-leaf element sequence is feasible.

    On failure returns the first violating prefix (ending at the rejected
    element) in child-arc order. A prefix constraint sees the whole prefix,
    so the cost is per root-leaf path; arcs of one node that share a child
    share its walk.
    """
    stack: list[tuple[DecisionTree, tuple[str, ...]]] = [] if tree.is_leaf else [(tree, ())]
    while stack:
        node, prefix = stack.pop()
        extended = prefix + (node.element,)
        if not constraint.may_extend(prefix, node.element):
            return False, extended
        distinct = {id(c): c for c in node.children.values() if not c.is_leaf}
        # pushed in reverse so the first child is walked first
        stack.extend((child, extended) for child in reversed(distinct.values()))
    return True, None
