"""Downward-closed set systems over types: membership oracles, greedy
selection, and exact rank search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import ExactCapExceeded, Scalar, ValidationError

#: Largest candidate set an exhaustive rank search will explore.
DEFAULT_RANK_CAP = 20


class IndependenceOracle:
    """Membership oracle for a downward-closed family over a fixed ground set.

    The empty set is always independent. Sets containing types outside the
    ground are dependent, which makes such types loops.
    """

    kind = "abstract"
    is_matroid = False
    ground: frozenset[str]

    def is_independent(self, types: Iterable[str]) -> bool:
        key = types if isinstance(types, frozenset) else frozenset(types)
        return not key or (key <= self.ground and self._independent(key))

    def _independent(self, types: frozenset[str]) -> bool:
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

    def _independent(self, types):
        return types in self.sets


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

    def _independent(self, types):
        counts: dict = {}
        for t in types:
            p = self.part_of[t]
            n = counts.get(p, 0) + 1
            if n > self.capacity[p]:
                return False
            counts[p] = n
        return True


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

    def _independent(self, types):
        seen: set[str] = set()
        for t in types:
            u, v = self.edges[t]
            if u in seen or v in seen:
                return False
            seen.add(u)
            seen.add(v)
        return True


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
        for m in self.members[1:]:
            if m.ground != ground:
                raise ValidationError("intersected families must share one ground set")
        self.ground = ground

    @property
    def is_matroid(self) -> bool:  # type: ignore[override]
        return len(self.members) == 1 and self.members[0].is_matroid

    def _independent(self, types):
        return all(m.is_independent(types) for m in self.members)


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


def _on_one_root_path(ranges: Mapping[str, range], vertices: Sequence[str]) -> bool:
    """True iff ``vertices`` (at least one) all lie on one root path."""
    deepest = max(ranges[v].start for v in vertices)
    return all(deepest in ranges[v] for v in vertices)


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

    def _independent(self, types):
        return _on_one_root_path(self._subtree, [self.edges[t][1] for t in types])

    def _best_root_path(self, cand: Sequence[str], w: Mapping[str, Scalar]) -> Scalar:
        """Largest total weight of ``cand`` on one root path, summed in ``cand`` order.

        A maximal independent subset is every candidate on the ancestor chain
        of some candidate's lower endpoint.
        """
        low = {t: self._subtree[self.edges[t][1]] for t in cand}
        best: Scalar = 0
        for pos in dict.fromkeys(r.start for r in low.values()):  # in ``cand`` order
            total: Scalar = 0
            for t in cand:
                if pos in low[t]:
                    total = total + w[t]
            if total > best:
                best = total
        return best


def make_explicit_family(ground: Iterable[str], sets: Iterable[Iterable[str]]) -> ExplicitFamily:
    return ExplicitFamily(frozenset(ground), frozenset(frozenset(s) for s in sets))


def make_partition_matroid(
    parts: Mapping[str, str | int], capacity: Mapping[str | int, int]
) -> PartitionMatroid:
    return PartitionMatroid(dict(parts), dict(capacity))


def make_uniform_matroid(ground: Iterable[str], rank: int) -> PartitionMatroid:
    return PartitionMatroid({t: "all" for t in ground}, {"all": rank})


def intersect(oracles: Sequence[IndependenceOracle]) -> IntersectionFamily:
    return IntersectionFamily(tuple(oracles))


def make_matching_family(graph: Mapping[str, tuple[str, str]]) -> MatchingFamily:
    return MatchingFamily(dict(graph))


def make_path_chain_family(
    edges: Mapping[str, tuple[str, str]], root: str
) -> PathChainFamily:
    return PathChainFamily(dict(edges), root)


def greedy_add(
    family: IndependenceOracle, chosen: frozenset[str], type_id: str
) -> frozenset[str]:
    """One greedy step: ``chosen`` plus ``type_id`` if that stays independent.

    Otherwise ``chosen`` itself: a type already chosen, outside the ground,
    or dependent on ``chosen`` is a loop of the contracted family.
    """
    if type_id in chosen:
        return chosen
    grown = chosen | {type_id}
    return grown if family.is_independent(grown) else chosen


def greedy_select(family: IndependenceOracle, ordered: Iterable[str]) -> tuple[str, ...]:
    """Scan once in the given order: select non-loops, skip loops.

    Returns the selected types in order; the returned set is a maximal
    independent subset of the scanned support.
    """
    chosen: frozenset[str] = frozenset()
    picked: list[str] = []
    for t in ordered:
        grown = greedy_add(family, chosen, t)
        if len(grown) > len(chosen):
            picked.append(t)
        chosen = grown
    return tuple(picked)


def greedy_rank(family: IndependenceOracle, ordered: Iterable[str]) -> int:
    return len(greedy_select(family, ordered))


def max_rank(
    family: IndependenceOracle,
    types: Iterable[str],
    *,
    weights: Mapping[str, Scalar] | None = None,
    cap: int = DEFAULT_RANK_CAP,
) -> Scalar:
    """Maximum weight (cardinality when ``weights`` is None) of an independent
    subset of ``types``.

    Matroids use the exchange greedy, which is exact, and path chains the
    best root path. Other families fall back to an exhaustive
    branch-and-bound over independent subsets, capped at ``cap`` candidates.
    """
    cand = [
        t
        for t in frozenset(types) & family.ground
        if weights is None or weights.get(t, 0) > 0
    ]
    if not cand:
        return 0
    w: dict[str, Scalar] = {
        t: (1 if weights is None else weights[t]) for t in cand
    }
    cand.sort(key=lambda t: (-w[t], t))
    if family.is_matroid:
        chosen: frozenset[str] = frozenset()
        total: Scalar = 0
        for t in cand:
            ext = chosen | {t}
            if family.is_independent(ext):
                chosen = ext
                total = total + w[t]
        return total
    if isinstance(family, PathChainFamily):
        return family._best_root_path(cand, w)
    if len(cand) > cap:
        raise ExactCapExceeded(
            f"rank computation infeasible: {len(cand)} candidates exceed cap {cap}"
        )
    return _best_subset(family, cand, w)[1]


def _best_subset(
    family: IndependenceOracle,
    cand: Sequence[str],
    w: Mapping[str, Scalar],
    fixed: frozenset[str] = frozenset(),
) -> tuple[frozenset[str], Scalar]:
    """Heaviest subset of ``cand`` independent together with ``fixed`` (which
    ``cand`` must not meet), and its weight.

    Include-first branch-and-bound in ``cand`` order, pruned by the weight
    left in the suffix; sums follow ``cand`` order and the first best wins.
    """
    suffix: list[Scalar] = [0] * (len(cand) + 1)
    for i in reversed(range(len(cand))):
        suffix[i] = suffix[i + 1] + w[cand[i]]
    best: tuple[frozenset[str], Scalar] = (fixed, 0)

    def search(i: int, chosen: frozenset[str], acc: Scalar) -> None:
        nonlocal best
        if acc > best[1]:
            best = (chosen, acc)
        if i == len(cand) or acc + suffix[i] <= best[1]:
            return
        t = cand[i]
        ext = chosen | {t}
        if family.is_independent(ext):
            search(i + 1, ext, acc + w[t])
        search(i + 1, chosen, acc)

    search(0, fixed, 0)  # ``chosen`` carries ``fixed`` along
    return best[0] - fixed, best[1]
