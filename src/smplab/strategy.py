"""Adaptive decision trees, prefix-closed probing constraints, feasibility
checking, and random-walk path extraction.

A decision tree probes the element at its root, then follows the arc labeled
with the revealed type. Constraints are stepwise: a sequence is feasible when
every prefix extension passes ``may_extend``, so prefix-closure holds by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .core import Scalar, TypeVector, Universe, ValidationError, check_finite
from .families import _on_one_root_path, _subtree_ranges


@dataclass(frozen=True)
class DecisionTree:
    """One node of an adaptive strategy; a leaf when ``element`` is None.

    ``children`` maps every type of ``element`` to the subtree taken when the
    probe reveals that type. An element never repeats on a root-leaf path;
    this is enforced at construction. Shared (DAG) subtrees are allowed as
    long as the per-path invariant holds.
    """

    element: str | None
    children: Mapping[str, "DecisionTree"]

    def __post_init__(self):
        object.__setattr__(self, "children", dict(self.children))
        if self.element is None:
            if self.children:
                raise ValidationError("a leaf cannot have children")
            object.__setattr__(self, "_below", frozenset())
            return
        if not self.children:
            raise ValidationError("an internal node needs one child arc per type")
        below = {self.element}
        for child in self.children.values():
            if self.element in child.elements_below:
                raise ValidationError(
                    f"element {self.element!r} repeats on a probing path"
                )
            below |= child.elements_below
        object.__setattr__(self, "_below", frozenset(below))

    @property
    def is_leaf(self) -> bool:
        return self.element is None

    @property
    def elements_below(self) -> frozenset[str]:
        return self._below  # type: ignore[attr-defined]


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


def validate_tree(tree: DecisionTree, universe: Universe) -> None:
    """Check that every internal node has exactly one arc per type."""
    seen: set[int] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in seen or node.is_leaf:
            continue
        seen.add(id(node))
        if node.element not in universe.type_space:
            raise ValidationError(f"unknown element {node.element!r} in tree")
        expected = set(universe.type_space[node.element])
        if set(node.children) != expected:
            raise ValidationError(
                f"node for {node.element!r} must have exactly one arc per type"
            )
        stack.extend(node.children.values())


def random_walk_path(
    tree: DecisionTree, vector: TypeVector
) -> tuple[tuple[str, str], ...]:
    """Follow the arcs selected by ``vector`` from the root down to a leaf.

    Returns the walked ``(element, type)`` steps in root-to-leaf order.
    """
    steps: list[tuple[str, str]] = []
    node = tree
    while not node.is_leaf:
        e = node.element
        if e not in vector:
            raise ValidationError(f"type vector does not assign element {e!r}")
        t = vector[e]
        child = node.children.get(t)
        if child is None:
            raise ValidationError(f"node for {e!r} has no arc for type {t!r}")
        steps.append((e, t))
        node = child
    return tuple(steps)


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
    element) in child-arc order.
    """

    def walk(node: DecisionTree, prefix: tuple[str, ...]):
        if node.is_leaf:
            return None
        if not constraint.may_extend(prefix, node.element):
            return prefix + (node.element,)
        extended = prefix + (node.element,)
        for child in node.children.values():
            witness = walk(child, extended)
            if witness is not None:
                return witness
        return None

    witness = walk(tree, ())
    return witness is None, witness
