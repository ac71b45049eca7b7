"""Downward-closed set systems over types: independence oracles, greedy
selection, and exact rank search.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .core import ExactCapExceeded, Scalar, ValidationError

#: Largest candidate set an exhaustive rank search will explore.
RANK_CAP = 20


class IndependenceOracle:
    """Independence oracle for a downward-closed family over a fixed ground set.

    The empty set is always independent. Sets containing types outside the
    ground are dependent, which makes such types loops.
    """

    kind = "abstract"
    is_matroid = False
    ground: frozenset[str]

    def is_independent(self, types: Iterable[str]) -> bool:
        """Whether the distinct ``types`` form an independent set."""
        return self._tester(types := list(dict.fromkeys(types)))(range(len(types)))

    def _tester(self, types: Sequence[str]) -> Callable[[Iterable[int]], bool]:
        """The test of positions of ``types``: one stepper, built once, accepts each in turn."""
        initial, step = self._stepper(types)

        def test(positions):
            state = initial
            return all((state := step(state, i)) is not None for i in positions)

        return test

    def _stepper(self, types: Sequence[str]) -> tuple[object, Callable[[object, int], object]]:
        """``(initial, step)`` over the positions of the distinct ``types``: ``step(state,
        i)`` is the state of the set plus ``types[i]`` (which it must not hold), or None
        when that is dependent, as it is for a type outside the ground."""
        raise NotImplementedError


@dataclass(eq=True)
class ExplicitFamily(IndependenceOracle):
    """Family given by an explicit list of independent sets (test fixture)."""

    ground: frozenset[str]
    sets: frozenset[frozenset[str]]

    kind = "explicit"

    def __post_init__(self):
        self.ground = frozenset(self.ground)
        self.sets = frozenset(frozenset(s) for s in self.sets)

    def _tester(self, types):  # by the listing, so a set that is not downward closed shows
        return lambda positions: ((key := frozenset(types[i] for i in positions)) <= self.ground
                                  and (not key or key in self.sets))

    def _stepper(self, types):  # the state is the set's positions
        test = self._tester(types)
        return frozenset(), lambda s, i: grown if test(grown := s | {i}) else None


@dataclass(eq=True)
class PartitionMatroid(IndependenceOracle):
    """Independent iff every part contains at most its capacity."""

    part_of: Mapping[str, str | int]
    capacity: Mapping[str | int, int]

    kind = "partition_matroid"
    is_matroid = True

    def __post_init__(self):
        self.part_of = dict(self.part_of)
        self.capacity = dict(self.capacity)
        missing = {p for p in self.part_of.values() if p not in self.capacity}
        if missing:
            raise ValidationError(f"parts without a capacity: {sorted(map(str, missing))}")
        for p, c in self.capacity.items():
            if not isinstance(c, int) or c < 0:
                raise ValidationError(f"capacity of part {p!r} must be an int >= 0")
        self.ground = frozenset(self.part_of)

    def _stepper(self, types):
        return _count_stepper([self], types)


def _count_stepper(matroids: Sequence[PartitionMatroid], types: Sequence[str]) -> tuple:
    """The stepper of an intersection of partition matroids: one int holds a bit field
    per part met, as wide as its capacity plus a top bit and started at
    2**(width - 1) - 1 - capacity, so the top bit sets when the part overflows."""
    initial = top = shift = 0
    ground = range(len(types))  # positions of types in every member's ground; the rest are loops
    for m in matroids:
        ground = [i for i in ground if types[i] in m.part_of]
    add = [0] * len(types)  # a loop keeps 0
    for m in matroids:
        field = {}
        for i in ground:
            if (p := m.part_of[types[i]]) not in field:
                width = m.capacity[p].bit_length() + 1
                initial |= ((1 << width - 1) - 1 - m.capacity[p]) << shift
                field[p], shift = shift, shift + width
                top |= 1 << shift - 1
            add[i] += 1 << field[p]

    def step(state, i):
        return None if not add[i] or (state + add[i]) & top else state + add[i]

    return initial, step


@dataclass(eq=True)
class MatchingFamily(IndependenceOracle):
    """Types map to graph edges; independent iff the edges form a matching."""

    edges: Mapping[str, tuple[str, str]]

    kind = "matching"

    def __post_init__(self):
        cleaned = {}
        for t, (u, v) in self.edges.items():
            if u == v:
                raise ValidationError(f"type {t!r} maps to a self-loop edge at {u!r}")
            cleaned[t] = (u, v)
        self.edges = cleaned
        self.ground = frozenset(cleaned)

    def _stepper(self, types):  # the state is a mask of the vertices covered
        vertex: dict[str, int] = {}
        ends = [0] * len(types)  # a type outside the ground keeps 0: a loop
        for i, t in enumerate(types):
            for v in self.edges.get(t, ()):
                ends[i] |= 1 << vertex.setdefault(v, len(vertex))
        return 0, lambda state, i: None if not ends[i] or state & ends[i] else state | ends[i]


@dataclass(eq=True)
class IntersectionFamily(IndependenceOracle):
    """Independent iff independent in every member family.

    The intersection of k matroids is a k-extendible system.
    """

    members: tuple[IndependenceOracle, ...]

    kind = "intersection"

    def __post_init__(self):
        self.members = tuple(self.members)
        if not self.members:
            raise ValidationError("intersection needs at least one family")
        ground = self.members[0].ground
        for i, m in enumerate(self.members):
            if m.ground != ground:
                raise ValidationError(f"members[{i}] has another ground set than members[0]")
        self.ground = ground

    @property
    def is_matroid(self) -> bool:  # type: ignore[override]
        return len(self.members) == 1 and self.members[0].is_matroid

    def _tester(self, types):  # every member's test, so a listed one answers by its listing
        tests = [m._tester(types) for m in self.members]
        return lambda positions: all(test(positions) for test in tests)

    def _stepper(self, types):  # partition matroids share one count state
        if all(isinstance(m, PartitionMatroid) for m in self.members):
            return _count_stepper(self.members, types)
        initial, steps = zip(*(m._stepper(types) for m in self.members))

        def step(state, i):  # the state is a tuple of the members' states
            grown = tuple(member(s, i) for member, s in zip(steps, state))
            return None if None in grown else grown

        return initial, step


def _deeper(ranges: Mapping[str, range], a: str, b: str) -> str | None:
    """The deeper of vertices ``a`` and ``b`` if one lies at or below the other, else None."""
    return b if ranges[b].start in ranges[a] else a if ranges[a].start in ranges[b] else None


def _subtree_ranges(edges: Iterable[tuple[str, str]], root: str) -> dict[str, range]:
    """Each vertex of the tree of ``(parent, child)`` edges, mapped to the
    preorder positions of its subtree: ``a`` is ``v`` or an ancestor of ``v``
    exactly when ``ranges[v].start in ranges[a]``.

    Raises ValidationError unless the edges form one tree hanging from ``root``.
    """
    parent: dict[str, str] = {}
    children: dict[str, list[str]] = {}
    for u, v in edges:
        if v == root:
            raise ValidationError("the root cannot be a child endpoint")
        if v in parent and parent[v] != u:
            raise ValidationError(f"vertex {v!r} has two parents")
        if v not in parent:
            parent[v] = u
            children.setdefault(u, []).append(v)
    order: list[str] = []
    stack = [root]
    while stack:  # depth-first, so every subtree is one run of ``order``
        v = stack.pop()
        order.append(v)
        stack.extend(children.get(v, ()))
    if len(order) <= len(parent):  # the rest hang from nothing or form cycles
        off = sorted(set(parent) - set(order))
        raise ValidationError(f"vertices not connected to the root: {off}")
    size = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return {v: range(i, i + size[v]) for i, v in enumerate(order)}


@dataclass(eq=True)
class PathChainFamily(IndependenceOracle):
    """Types map to edges of a rooted tree; independent iff all edges lie on
    one common root-leaf path (i.e. their lower endpoints form an ancestor
    chain)."""

    edges: Mapping[str, tuple[str, str]]  # type -> (parent vertex, child vertex)
    root: str

    kind = "path_chain"

    def __post_init__(self):
        self.edges = {t: (u, v) for t, (u, v) in self.edges.items()}
        self._subtree = _subtree_ranges(self.edges.values(), self.root)
        self.ground = frozenset(self.edges)

    def _stepper(self, types):  # the state is the deepest lower endpoint, the root at first
        low = [self.edges[t][1] if t in self.edges else None for t in types]
        return self.root, lambda s, i: None if low[i] is None else _deeper(self._subtree, s, low[i])


def make_uniform_matroid(ground: Iterable[str], rank: int) -> PartitionMatroid:
    return PartitionMatroid({t: "all" for t in ground}, {"all": rank})


def _bits(mask: int) -> list[int]:
    """The positions of the bits set in ``mask``, ascending."""
    got = []
    while mask:
        got.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return got


def _union(masks: Iterable[int]) -> int:
    return functools.reduce(operator.or_, masks, 0)


def _total(terms: Iterable[Scalar]) -> Scalar:
    """``terms`` added to 0 left to right on any Python (``sum()`` compensates from 3.12)."""
    return functools.reduce(operator.add, terms, 0)


def _greedy(step: Callable, state, cand: Iterable[int]) -> Iterator[int]:
    """The positions of ``cand`` that one greedy scan from ``state`` selects, in order."""
    for i in cand:
        if (grown := step(state, i)) is not None:
            state = grown
            yield i


def greedy_select(family: IndependenceOracle, ordered: Iterable[str]) -> tuple[str, ...]:
    """Scan once in the given order: select non-loops, skip loops (a type chosen
    already, outside the ground, or dependent on the chosen set).

    Returns the selected types in order; the returned set is a maximal
    independent subset of the scanned support.
    """
    ordered = list(dict.fromkeys(ordered))  # a type met again is chosen or still dependent
    initial, step = family._stepper(ordered)
    return tuple(ordered[i] for i in _greedy(step, initial, range(len(ordered))))


def max_rank(
    family: IndependenceOracle,
    types: Iterable[str],
    *,
    weights: Mapping[str, Scalar] | None = None,
) -> Scalar:
    """Maximum weight (cardinality when ``weights`` is None) of an independent
    subset of ``types``.

    Matroids use the exchange greedy, which is exact, and path chains the
    best root path. Other families fall back to an exhaustive
    branch-and-bound over independent subsets, capped at ``RANK_CAP`` candidates.
    """
    masks, value = _rank_form(family, types, weights)
    return value(_union(masks.values()))


def _rank_form(
    family: IndependenceOracle, types: Iterable[str], weights: Mapping[str, Scalar] | None
) -> tuple[dict[str, int], Callable[[int], Scalar]]:
    """``max_rank`` compiled over ``types``: a mask per type, and a table from the union
    of a set's masks to its rank. The candidates (in the ground, of positive weight) get
    a bit each in the order ``(-w, name)``: a set's candidates are its bits, ascending,
    and sums run in that order."""
    names = list(dict.fromkeys(types))
    w: dict[str, Scalar] = {
        t: 1 if weights is None else weights[t]
        for t in names
        if t in family.ground and (weights is None or weights.get(t, 0) > 0)
    }
    cand = sorted(w, key=lambda t: (-w[t], t))
    ws = [w[t] for t in cand]
    initial, step = family._stepper(cand)
    low = ([family._subtree[family.edges[t][1]] for t in cand]
           if isinstance(family, PathChainFamily) else None)

    @functools.cache  # a table per call: sets often share their candidates
    def value(mask: int) -> Scalar:
        got = _bits(mask)
        if family.is_matroid:
            return _total(ws[i] for i in _greedy(step, initial, got))
        if low is None:
            return _best_subset(step, initial, got, ws)[2]
        # the best root path: the candidates on the ancestor chain of one's lower endpoint
        best: Scalar = 0
        for pos in dict.fromkeys(low[i].start for i in got):
            total: Scalar = 0
            for i in got:
                if pos in low[i]:
                    total = total + ws[i]
            if total > best:
                best = total
        return best

    return dict.fromkeys(names, 0) | {t: 1 << i for i, t in enumerate(cand)}, value


def _best_subset(step: Callable, state, cand: Sequence[int], w: Sequence[Scalar]) -> tuple:
    """Heaviest subset of the positions ``cand`` that ``step`` accepts from ``state``,
    as ``(its state, its positions as a mask, its weight)``, ``w[i]`` weighing ``i``.

    Include-first branch-and-bound in ``cand`` order, pruned by the weight
    left in the suffix; sums follow ``cand`` order and the first best wins.
    Refuses more than ``RANK_CAP`` candidates.
    """
    if len(cand) > RANK_CAP:
        raise ExactCapExceeded(
            f"exact subset search infeasible: {len(cand)} candidates exceed the cap of {RANK_CAP}"
        )
    suffix: list[Scalar] = [0] * (len(cand) + 1)
    for j in reversed(range(len(cand))):
        suffix[j] = suffix[j + 1] + w[cand[j]]
    best = [state, 0, 0]

    def search(j: int, state, chosen: int, acc: Scalar) -> None:
        if acc > best[2]:
            best[:] = state, chosen, acc
        if j == len(cand) or acc + suffix[j] <= best[2]:
            return
        i = cand[j]
        if (grown := step(state, i)) is not None:
            search(j + 1, grown, chosen | 1 << i, acc + w[i])
        search(j + 1, state, chosen, acc)

    search(0, state, 0, 0)
    del search  # the closure refers to itself: a cycle only the collector would free
    return tuple(best)
