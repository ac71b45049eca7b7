"""Brute-force structural verifiers used by every property suite, plus the
constructive witness extraction for the k-extendibility set-extension bound.

Every verifier is exhaustive at desk scale and returns ``(ok, witness)``
where the witness is the first counterexample found in a deterministic
search order (or None on success).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

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


def check_k_extendible(
    family: IndependenceOracle, ground: Iterable[str], k: int
) -> tuple[bool, tuple[frozenset, frozenset, str] | None]:
    """Exhaustive test of the k-extendibility exchange axiom.

    For every A <= B independent and every e with A+{e} independent, some
    Z <= B-A with |Z| <= k must leave B-Z+{e} independent. Returns the first
    failing (A, B, e) triple.
    """
    items = _sorted_ground(ground, 10, "check_k_extendible")
    independent = functools.cache(family.is_independent)  # each of the 2**10 sets, once
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
    if not family.is_independent(b):
        raise ValidationError("superset must be independent")
    if not family.is_independent(a | e_all):
        raise ValidationError("base plus extension must be independent")

    removed: frozenset[str] = frozenset()
    inserted: frozenset[str] = frozenset()
    for e in sorted(e_all):
        candidates = sorted(b - removed - a - inserted)
        step = _removal_set(family.is_independent, b - removed | inserted, e, candidates, k)
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
            and family.is_independent(result)):
        raise AssertionError("extension witness invariants violated")
    return removed


#: Pair cells (row type x column type) the encoding check decides per block, and an
#: eighth as many sets of types; it bounds the check's temporary arrays.
ENCODING_PAIR_BLOCK = 1 << 18

#: Largest ground the encoding check tests every set of, not a sample of sets.
ENCODING_EXHAUSTIVE_SETS = 12


def _label_intervals(labels: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Preorder position and subtree end of each label among the distinct
    labels: ``a`` is a prefix of (or equal to) ``b`` exactly when
    ``pos[a] <= pos[b] < end[a]``."""
    distinct = sorted(set(labels))
    rank = {lab: i for i, lab in enumerate(distinct)}
    # the labels extending ``lab`` sort right after it, before ``lab + (inf,)``
    end = {lab: bisect.bisect_left(distinct, lab + (math.inf,)) for lab in distinct}
    return (
        np.array([rank[lab] for lab in labels], dtype=np.int64),
        np.array([end[lab] for lab in labels], dtype=np.int64),
    )


def _pair_keys(
    matroids: Sequence[PartitionMatroid], types: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Pair-independence of partition matroids as arrays.

    Returns ``keys`` of shape (matroids, types) and a per-type ``loop`` flag:
    a pair of distinct types is dependent in matroid ``m`` exactly when
    ``keys[m]`` is equal on them or either is a loop. Types in a part of
    capacity < 2 get that part's code; every other type gets a key of its own.
    A type outside the ground or in a part of capacity 0 is a loop.
    """
    keys = np.empty((len(matroids), len(types)), dtype=np.int64)
    loop = np.zeros(len(types), dtype=bool)
    for m, matroid in enumerate(matroids):
        code: dict = {}
        row = []
        for i, t in enumerate(types):
            if t in matroid.part_of:
                part = matroid.part_of[t]
                cap = matroid.capacity[part]
            else:  # outside the ground
                part, cap = None, 0
            if cap == 0:
                loop[i] = True
            # own keys are negative, so never a part code
            row.append(code.setdefault(part, len(code)) if cap < 2 else -1 - i)
        keys[m] = row
    return keys, loop


def _first_pair_mismatch(
    keys: np.ndarray, loop: np.ndarray, pos: np.ndarray, end: np.ndarray
) -> tuple[int, int] | None:
    """First pair ``i < j`` in row-major order whose pair-independence differs
    from label comparability, decided in row blocks of the upper triangle."""
    n = len(loop)
    rows_per_block = max(1, ENCODING_PAIR_BLOCK // max(n, 1))
    for r0 in range(0, n - 1, rows_per_block):
        r = slice(r0, min(r0 + rows_per_block, n - 1))
        c = slice(r0 + 1, n)
        dependent = loop[r, None] | loop[None, c]
        for key in keys:
            dependent |= key[r, None] == key[None, c]
        pr, pc = pos[r, None], pos[None, c]
        comparable = ((pr <= pc) & (pc < end[r, None])) | ((pc <= pr) & (pr < end[None, c]))
        mismatch = dependent == comparable  # independent != comparable
        mismatch &= np.arange(c.start, n)[None, :] > np.arange(r.start, r.stop)[:, None]
        if mismatch.any():
            i, j = divmod(int(mismatch.argmax()), n - c.start)
            return r.start + i, c.start + j
    return None


def _sampled_sets(n: int, count: int, seed: int) -> Iterator[list[int]]:
    """``count`` lists of 2 to ``min(8, n)`` distinct indices below ``n``: the ones
    ``rng.sample(range(n), rng.randint(2, min(8, n)))`` draws with ``rng =
    random.Random(seed)`` on CPython 3.11, taken from ``getrandbits`` by the same rules.
    An index below ``m`` is ``m.bit_length()`` random bits, drawn again while ``>= m``.
    Among more than 21 indices (85 for a set of 6-8) an index already taken is drawn
    again; among fewer, a position in a pool of the untaken ones is drawn and the
    pool's last index fills it."""
    bits = random.Random(seed).getrandbits
    sizes = min(8, n) - 1  # how many sizes there are: 2 to min(8, n)
    size_bits, n_bits = sizes.bit_length(), n.bit_length()
    for _ in range(count):
        while (size := bits(size_bits)) >= sizes:
            pass
        size += 2
        s: list[int] = []
        if n > (21 if size <= 5 else 85):
            while len(s) < size:
                if (j := bits(n_bits)) < n and j not in s:
                    s.append(j)
        else:
            pool = list(range(n))
            for m in range(n, n - size, -1):
                while (j := bits(m.bit_length())) >= m:
                    pass
                s.append(pool[j])
                pool[j] = pool[m - 1]
        yield s


def check_encoding(
    matroids: Sequence[PartitionMatroid],
    label_map: dict[str, tuple[tuple[int, ...], int]],
    *,
    set_samples: int = 10_000,
    seed: int = 0,
) -> tuple[bool, frozenset | None]:
    """Verify that the intersection of partition matroids realizes the
    ancestor-chain family of the labels in ``label_map``.

    Pairs are checked exhaustively, with arrays: two types are jointly
    independent exactly when their labels are prefix-related (equal labels
    count). Pair-independence comes from each matroid's part codes and
    capacities, comparability from preorder intervals over the sorted labels.
    Sets, all of them up to ``ENCODING_EXHAUSTIVE_SETS`` types, else ``set_samples``
    seeded random ones from ``_sampled_sets`` (the sets ``random.sample`` drew on CPython
    3.11), are independent by the count stepper iff a chain. A sample can
    miss a fault only one set shows: a matroid capping a root path's three k = 3 types
    at 2 passes on all 39 at seeds 0-2. The witness is the first mismatch, pairs first.
    Raises ValidationError if a member is not a PartitionMatroid or ``set_samples`` is
    not an int >= 0.
    """
    if not isinstance(set_samples, int) or set_samples < 0:
        raise ValidationError(f"set_samples must be an int >= 0, got {set_samples!r}")
    for i, m in enumerate(matroids):
        if not isinstance(m, PartitionMatroid):
            raise ValidationError(
                f"check_encoding needs partition matroids; member {i} is {m.kind!r}"
            )
    ground = sorted(label_map)
    initial, step = IntersectionFamily(matroids)._stepper(ground)
    pos, end = _label_intervals([label_map[t][0] for t in ground])

    keys, loop = _pair_keys(matroids, ground)
    pair = _first_pair_mismatch(keys, loop, pos, end)
    if pair is not None:
        return False, frozenset(ground[i] for i in pair)

    n = len(ground)
    if n <= ENCODING_EXHAUSTIVE_SETS:
        sets = (c for size in range(3, n + 1) for c in itertools.combinations(range(n), size))
    else:
        sets = _sampled_sets(n, set_samples, seed)
    while block := list(itertools.islice(sets, max(1, ENCODING_PAIR_BLOCK >> 3))):
        # a chain: every member's subtree holds the deepest member's preorder position
        members = np.fromiter(itertools.chain.from_iterable(block), dtype=np.int64)
        sizes = np.fromiter(map(len, block), dtype=np.int64, count=len(block))
        starts = np.cumsum(sizes) - sizes
        deepest = np.maximum.reduceat(pos[members], starts)
        chains = np.logical_and.reduceat(np.repeat(deepest, sizes) < end[members], starts)
        for s, chain in zip(block, chains.tolist()):
            state = initial
            for i in s:
                if (state := step(state, i)) is None:
                    break
            if (state is not None) != chain:
                return False, frozenset(ground[i] for i in s)
    return True, None
