"""Adaptive decision trees, prefix-closed probing constraints, and
feasibility checking.

A decision tree probes the element at its root, then follows the arc labeled
with the revealed type. Constraints are stepwise: a sequence is feasible when
``step`` accepts each of its elements in turn from the state of the prefix
before it, so prefix-closure holds by construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterator, Mapping, Sequence

from .core import Scalar, Universe, ValidationError, check_finite
from .families import _deeper, _subtree_ranges


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """One node of an adaptive strategy; a leaf when ``element`` is None.

    ``children`` maps every type of ``element`` to the subtree taken when the
    probe reveals that type. Shared (DAG) subtrees are allowed. An element
    must not repeat on a root-leaf path; ``validate_tree`` checks that, and
    every evaluator runs its checks. Trees are equal when they probe the same
    elements on the same arcs, whatever they share; they are not hashable.
    """

    element: str | None
    children: Mapping[str, "DecisionTree"]

    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other):
        if not isinstance(other, DecisionTree):
            return NotImplemented
        seen: set[tuple[int, int]] = set()  # node pairs already compared
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if a.element != b.element or a.children.keys() != b.children.keys():
                return False
            stack.extend((child, b.children[t]) for t, child in a.children.items())
        return True

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
        if node.element is None or id(node) in seen:  # a leaf, or a node met before
            shared = shared or node.element is not None
            continue
        seen.add(id(node))
        if node.element not in universe.type_space:
            raise ValidationError(f"unknown element {node.element!r} in tree")
        if node.children.keys() != set(universe.type_space[node.element]):
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
    """Stepwise prefix-closed probing constraint.

    ``initial`` is the hashable state of the empty prefix; ``step(state, nxt)``
    is the state after appending ``nxt``, or None when ``nxt`` may not follow.
    Prefixes with one state allow the same extensions.
    """

    kind = "abstract"
    initial: Hashable

    def step(self, state: Hashable, nxt: str) -> Hashable | None:
        raise NotImplementedError

    def allows(self, sequence: Sequence[str]) -> bool:
        state = self.initial
        for e in sequence:
            state = self.step(state, e)
            if state is None:
                return False
        return True


@dataclass(eq=True)
class BudgetConstraint(ConstraintOracle):
    """Total probing cost must stay within the budget; the state is the cost
    spent, summed in prefix order."""

    cost: Mapping[str, Scalar]
    budget: Scalar

    kind = "budget"
    initial = 0

    def __post_init__(self):
        self.cost = dict(self.cost)
        check_finite(self.budget, "budget")
        for e, c in self.cost.items():
            check_finite(c, f"cost of {e!r}")
            if c < 0:
                raise ValidationError(f"cost of {e!r} must be >= 0")

    def step(self, state, nxt):
        if nxt not in self.cost:
            raise ValidationError(f"no probing cost for element {nxt!r}")
        spent = state + self.cost[nxt]
        return spent if spent <= self.budget else None


@dataclass(eq=True)
class CardinalityConstraint(ConstraintOracle):
    """At most ``limit`` probes; the state is the prefix length."""

    limit: int

    kind = "cardinality"
    initial = 0

    def __post_init__(self):
        if self.limit < 0:
            raise ValidationError(f"limit must be >= 0, got {self.limit!r}")

    def step(self, state, nxt):
        return state + 1 if state < self.limit else None


@dataclass(eq=True)
class DagPathConstraint(ConstraintOracle):
    """Sequences must trace a directed path starting at ``start``; the state
    is the last element, ``()`` before the first."""

    arcs: Mapping[str, frozenset[str]]
    start: str

    kind = "dag_path"
    initial = ()

    def __post_init__(self):
        self.arcs = {e: frozenset(out) for e, out in self.arcs.items()}

    def step(self, state, nxt):
        if state == ():
            return nxt if nxt == self.start else None
        return nxt if nxt in self.arcs.get(state, ()) else None


@dataclass(eq=True)
class TreeFanConstraint(ConstraintOracle):
    """Probed edges of a rooted tree must all touch one root-leaf vertex path.

    An edge (u, v) with u the parent touches the path to leaf L exactly when
    L lies in the subtree of u. Subtrees are nested or disjoint, so some leaf
    lies under the parent vertex of every probed edge exactly when those
    parent vertices lie on one root path. They then form one root chain, and
    a new parent vertex fits all of them iff it fits the deepest: that vertex,
    ``root`` before the first probe, is the state.
    """

    edges: Mapping[str, tuple[str, str]]  # element -> (parent vertex, child vertex)
    root: str

    kind = "tree_fan"

    def __post_init__(self):
        self.edges = {e: (u, v) for e, (u, v) in self.edges.items()}
        self._subtree = _subtree_ranges(self.edges.values(), self.root)
        self.initial = self.root

    def step(self, state, nxt):
        if nxt not in self.edges:
            raise ValidationError(f"element {nxt!r} is not an edge of the tree")
        return _deeper(self._subtree, state, self.edges[nxt][0])


@dataclass(eq=True)
class TableConstraint(ConstraintOracle):
    """Explicit table of feasible sequences (used for serialized externals).

    The state is the prefix itself, looked up in the table directly; run the
    prefix-closure verifier on tables from outside sources.
    """

    sequences: frozenset[tuple[str, ...]]

    kind = "table"
    initial = ()

    def __post_init__(self):
        self.sequences = frozenset(tuple(s) for s in self.sequences)

    def step(self, state, nxt):
        seq = state + (nxt,)
        return seq if seq in self.sequences else None


def _feasible_sequences(
    constraint: ConstraintOracle, order: Sequence[str], max_len: int
) -> Iterator[tuple[str, ...]]:
    """Nonempty feasible sequences of distinct elements, up to ``max_len``,
    one per (set, constraint state) pair; a repeat is skipped with its
    extensions, which repeat the earlier sequence's pairs.

    Preorder: each sequence comes before its extensions, and the extensions
    of one prefix come in ``order``, so the first sequence of a set is kept.
    """
    seen: set[tuple[int, Hashable]] = set()  # (set as a bitmask over ``order``, state)
    stack = [((), 0, constraint.initial, iter(enumerate(order)))] if max_len > 0 else []
    while stack:
        prefix, mask, state, rest = stack[-1]
        for i, e in rest:
            if mask >> i & 1 or (nxt := constraint.step(state, e)) is None:
                continue
            grown = mask | 1 << i
            if (grown, nxt) in seen:
                continue
            seen.add((grown, nxt))
            seq = prefix + (e,)
            yield seq
            if len(seq) < max_len:
                stack.append((seq, grown, nxt, iter(enumerate(order))))
            break
        else:
            stack.pop()


def check_tree_feasible(
    tree: DecisionTree, constraint: ConstraintOracle
) -> tuple[bool, tuple[str, ...] | None]:
    """True iff every root-leaf element sequence is feasible.

    On failure returns the first violating prefix (ending at the rejected
    element) in child-arc order. What lies below a node is feasible or not
    by the constraint state on arrival alone, so each (node, state) pair is
    walked once: a repeat comes only after the first visit's subtree passed.
    """
    seen: set[tuple[int, Hashable]] = set()
    stack = [(tree, constraint.initial, ())]
    while stack:
        node, state, prefix = stack.pop()
        if node.is_leaf or (id(node), state) in seen:
            continue
        seen.add((id(node), state))
        prefix = prefix + (node.element,)
        state = constraint.step(state, node.element)
        if state is None:
            return False, prefix
        # pushed in reverse so the first child is walked first
        stack.extend((child, state, prefix) for child in reversed(node.children.values()))
    return True, None
