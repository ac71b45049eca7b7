"""Brute-force structural verifiers used by every property suite, plus the
constructive witness extraction for the k-extendibility set-extension bound.

Every verifier is exhaustive at desk scale and returns ``(ok, witness)``
where the witness is the first counterexample found in a deterministic
search order (or None on success).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .core import Scalar, Universe, ValidationError
from .families import IndependenceOracle, IntersectionFamily, PartitionMatroid, _bits
from .strategy import ConstraintOracle, TableConstraint
from .valuation import ValuationFunction


class NotKExtendibleError(RuntimeError):
    """Raised when a claimed k-extendible family fails a witness search.

    ``counterexample`` holds the (A, B, e) triple with no removal set Z.
    """

    def __init__(self, message: str, counterexample):
        super().__init__(message)
        self.counterexample = counterexample


def _sorted_ground(ground: Iterable[str], cap: int, what: str) -> list[str]:
    items = sorted(ground)
    if len(items) > cap:
        raise ValidationError(f"{what} is exhaustive only up to {cap} ground types")
    return items


def _subset(items: Sequence[str], mask: int) -> frozenset[str]:
    return frozenset(t for i, t in enumerate(items) if mask >> i & 1)


#: Slack the submodularity and monotonicity checks allow for float rounding.
VALUE_TOL = 1e-9


def _value_table(f: ValuationFunction, items: Sequence[str]) -> tuple[list, Scalar]:
    """``f`` of every subset of ``items``, by bitmask, and the slack to compare with.

    Rational values below 2**20 with a common denominator D <= 2**29 come as int
    numerators over D, with the slack ``floor(VALUE_TOL * D)``: there a nonzero gap is
    at least 1/D and the float rounding in ``y + VALUE_TOL`` under 5e-10, so verdicts
    are those of comparing the values themselves with VALUE_TOL, as other values are.
    """
    masks, value = f._compiled(items)
    unions = [0]
    for t in items:
        unions += [u | masks[t] for u in unions]
    values: list[Scalar] = [value(u) for u in unions]
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return values, VALUE_TOL
    den = math.lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    if den > 1 << 29 or max(map(abs, nums)) >= den << 20:
        return values, VALUE_TOL
    return nums, math.floor(Fraction(VALUE_TOL) * den)


def check_submodular(
    f: ValuationFunction, ground: Iterable[str]
) -> tuple[bool, tuple[frozenset, frozenset] | None]:
    """Exhaustively test f(A|B) + f(A&B) <= f(A) + f(B) over the ground."""
    items = _sorted_ground(ground, 10, "check_submodular")
    n = len(items)
    values, tol = _value_table(f, items)
    for a in range(1 << n):
        fa = values[a]
        for b in range(a, 1 << n):
            if values[a | b] + values[a & b] > fa + values[b] + tol:
                return False, (_subset(items, a), _subset(items, b))
    return True, None


def check_monotone(
    f: ValuationFunction, ground: Iterable[str]
) -> tuple[bool, tuple[frozenset, frozenset] | None]:
    """Exhaustively test A <= B implies f(A) <= f(B) (one-element steps)."""
    items = _sorted_ground(ground, 12, "check_monotone")
    n = len(items)
    values, tol = _value_table(f, items)
    for m in range(1 << n):
        for i in range(n):
            if m >> i & 1 and values[m & ~(1 << i)] > values[m] + tol:
                return False, (_subset(items, m & ~(1 << i)), _subset(items, m))
    return True, None


def check_downward_closed(
    family: IndependenceOracle, ground: Iterable[str]
) -> tuple[bool, tuple[frozenset, frozenset] | None]:
    """Exhaustively test that removing one element keeps independence."""
    items = _sorted_ground(set(ground), 12, "check_downward_closed")
    n, test = len(items), family._tester(items)  # one test for every subset, by position
    independent = [test(_bits(m)) for m in range(1 << n)]
    for m in range(1 << n):
        if not independent[m]:
            continue
        for i in range(n):
            if m >> i & 1 and not independent[m & ~(1 << i)]:
                return False, (_subset(items, m & ~(1 << i)), _subset(items, m))
    return True, None


def check_prefix_closed(
    constraint: ConstraintOracle,
    universe: Universe,
    max_len: int,
) -> tuple[bool, tuple[str, ...] | None]:
    """Validate prefix-closure of a probing constraint.

    Stepwise oracles are prefix-closed by construction, so for them this
    only steps each element once from ``initial``: a budget cost or tree-fan
    edge depends on the element alone, so one that is missing raises there.
    Table-backed constraints are checked for real, up to ``max_len``: every
    declared sequence must have all its prefixes declared.
    """
    if isinstance(constraint, TableConstraint):
        for seq in sorted(s for s in constraint.sequences if len(s) <= max_len):
            if any(seq[:cut] not in constraint.sequences for cut in range(1, len(seq))):
                return False, seq
        return True, None
    for e in universe.elements:
        constraint.step(constraint.initial, e)
    return True, None


def _independent_sets(independent: Callable, items: Sequence[str]) -> list[frozenset[str]]:
    """Each set grown from the empty set by ever later items, staying independent, depth first."""
    out, stack = [], [(0, frozenset())]
    while stack:
        start, current = stack.pop()
        out.append(current)
        grown = [(i + 1, current | {items[i]}) for i in range(start, len(items))]
        stack.extend(g for g in reversed(grown) if independent(g[1]))
    return out


def _removal_set(
    independent: Callable, keep: frozenset[str], e: str, candidates: Sequence[str], k: int
) -> frozenset[str] | None:
    """The first Z of at most ``k`` ``candidates``, by size and then in
    ``itertools.combinations`` order, that leaves ``keep - Z + e`` independent."""
    for size in range(min(k, len(candidates)) + 1):
        for removal in itertools.combinations(candidates, size):
            if independent(keep - frozenset(removal) | {e}):
                return frozenset(removal)
    return None


def _independence(family: IndependenceOracle, items: Sequence[str]) -> Callable:
    """The test of frozensets of ``items`` on one ``family._tester``, each set once."""
    test, index = family._tester(items), {t: i for i, t in enumerate(items)}
    return functools.cache(lambda types: test([index[t] for t in types]))  # a list: read per member


def check_k_extendible(
    family: IndependenceOracle, ground: Iterable[str], k: int
) -> tuple[bool, tuple[frozenset, frozenset, str] | None]:
    """Exhaustive test of the k-extendibility exchange axiom.

    For every A <= B independent and every e with A+{e} independent, some
    Z <= B-A with |Z| <= k must leave B-Z+{e} independent. Returns the first
    failing (A, B, e) triple.
    """
    items = _sorted_ground(ground, 10, "check_k_extendible")
    independent = _independence(family, items)
    for big in _independent_sets(independent, items):
        big_list = sorted(big)
        nb = len(big_list)
        for amask in range(1 << nb):
            small = _subset(big_list, amask)
            rest = sorted(big - small)
            for e in items:
                if e in big:
                    continue
                if not independent(small | {e}):
                    continue
                if _removal_set(independent, big, e, rest, k) is None:
                    return False, (small, big, e)
    return True, None


def find_extension_witness(
    family: IndependenceOracle,
    k: int,
    base: Iterable[str],
    superset: Iterable[str],
    extension: Iterable[str],
) -> frozenset[str]:
    """Constructive removal set for extending an independent superset.

    Given A <= B independent and A+E independent, builds Z <= B-A with
    |Z| <= k*|E| and B-Z+E independent by inserting the extension elements
    one at a time, each step searching a witness of size at most k. Raises
    :class:`NotKExtendibleError` with the failing triple when a step has no
    witness (a counterexample to k-extendibility).
    """
    a = frozenset(base)
    b = frozenset(superset)
    e_all = frozenset(extension)
    if not a <= b:
        raise ValidationError("base must be a subset of superset")
    independent = _independence(family, sorted(b | e_all))  # every set tested lies within
    if not independent(b):
        raise ValidationError("superset must be independent")
    if not independent(a | e_all):
        raise ValidationError("base plus extension must be independent")

    removed: frozenset[str] = frozenset()
    inserted: frozenset[str] = frozenset()
    for e in sorted(e_all):
        candidates = sorted(b - removed - a - inserted)
        step = _removal_set(independent, b - removed | inserted, e, candidates, k)
        if step is None:
            raise NotKExtendibleError(
                f"no witness of size <= {k} while inserting {e!r}; "
                "the family is not k-extendible",
                (a | inserted, b - removed | inserted, e),
            )
        removed = removed | step
        inserted = inserted | {e}

    result = b - removed | e_all
    if not (removed <= b - a and len(removed) <= k * len(e_all)
            and independent(result)):
        raise AssertionError("extension witness invariants violated")
    return removed


def _prefix_chains(labels: Sequence[tuple], order: Iterable[int]) -> Iterator[list[int]]:
    """The positions ``order`` in label order, each as the stack of those so far whose labels
    are prefixes of (or equal to) its own, itself on top. The one list is yielded each time."""
    stack: list[int] = []
    for i in sorted(order, key=labels.__getitem__):
        while stack and labels[i][:len(labels[stack[-1]])] != labels[stack[-1]]:
            stack.pop()  # the top's label is not a prefix of this one
        stack.append(i)
        yield stack


def check_encoding(
    matroids: Sequence[PartitionMatroid],
    label_map: dict[str, tuple[tuple[int, ...], int]],
    *,
    set_samples: int = 10_000,
    seed: int = 0,
) -> tuple[bool, frozenset | None]:
    """Verify that the intersection of partition matroids realizes the
    ancestor-chain family of the labels in ``label_map``: a set of types is
    independent exactly when their labels are pairwise prefix-related (equal labels
    count).

    The check is exact: the two families are equal exactly when
    (a) no type is a loop, outside a member's ground or in a part of capacity 0;
    (b) every pair agrees;
    (c) no part of capacity c >= 2 holds a chain of c + 1 of its types.
    Proof: a non-chain holds an incomparable pair, which (b) makes dependent; a chain
    meets a part of capacity <= 1 at most once by (a) and (b), one of capacity c >= 2 at
    most c times by (c). Pairs go first, on int bit rows over the sorted types: a pair is
    dependent when it shares a part of capacity 1 or holds a loop, and related when its
    labels are prefix-related. The witness is the first mismatching pair in row-major
    order, else the first loop alone, else the first c + 1 types of a chain that
    overfills a part.

    ``set_samples`` and ``seed`` are accepted and ignored. Raises ValidationError if a
    member is not a PartitionMatroid, ``set_samples`` is not an int >= 0, there is no
    member, or the members' grounds differ.
    """
    if not isinstance(set_samples, int) or set_samples < 0:
        raise ValidationError(f"set_samples must be an int >= 0, got {set_samples!r}")
    for i, m in enumerate(matroids):
        if not isinstance(m, PartitionMatroid):
            raise ValidationError(
                f"check_encoding needs partition matroids; member {i} is {m.kind!r}"
            )
    IntersectionFamily(matroids)  # refuses no member and unequal grounds
    ground = sorted(label_map)
    labels = [label_map[t][0] for t in ground]
    loops, shared = 0, [0] * len(ground)  # shared[i]: types sharing a part of capacity 1
    overfull = []  # (c, its types) of each part of capacity c >= 2 holding more than c types
    for m in matroids:
        parts: dict = {}
        for i, t in enumerate(ground):
            if t in m.part_of and m.capacity[m.part_of[t]]:
                parts.setdefault(m.part_of[t], []).append(i)
            else:
                loops |= 1 << i
        for p, members in parts.items():
            if (cap := m.capacity[p]) == 1:
                part = sum(1 << i for i in members)
                for i in members:
                    shared[i] |= part
            elif len(members) > cap:
                overfull.append((cap, members))

    # each type under the one below it on its stack: a forest, so equal labels cost no more
    edges = [s[-2:] for s in _prefix_chains(labels, range(len(ground))) if len(s) > 1]
    up, down = [1 << i for i in range(len(ground))], [1 << i for i in range(len(ground))]
    for p, i in edges:  # parents first: each type's prefixes
        up[i] |= up[p]
    for p, i in reversed(edges):  # children first: each type's extensions
        down[p] |= down[i]
    everyone = (1 << len(ground)) - 1
    for i in range(len(ground)):
        dependent = everyone if loops >> i & 1 else shared[i] | loops
        wrong = ~(dependent ^ (up[i] | down[i])) & everyone & ~((2 << i) - 1)
        if wrong:
            return False, frozenset({ground[i], ground[(wrong & -wrong).bit_length() - 1]})
    if loops:
        return False, frozenset({ground[(loops & -loops).bit_length() - 1]})
    for cap, members in overfull:
        for chain in _prefix_chains(labels, members):
            if len(chain) > cap:
                return False, frozenset(ground[i] for i in chain)
    return True, None
