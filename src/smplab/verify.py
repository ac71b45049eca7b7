"""Brute-force structural verifiers used by every property suite, plus the
constructive witness extraction for the k-extendibility set-extension bound.

Every verifier is exhaustive at desk scale and returns ``(ok, witness)``
where the witness is the first counterexample found in a deterministic
search order (or None on success).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .core import Scalar, Universe, ValidationError
from .families import IndependenceOracle
from .strategy import ConstraintOracle, TableConstraint, _feasible_sequences
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


def check_submodular(
    f: ValuationFunction, ground: Iterable[str], tol: float = 1e-9
) -> tuple[bool, tuple[frozenset, frozenset] | None]:
    """Exhaustively test f(A|B) + f(A&B) <= f(A) + f(B) over the ground."""
    items = _sorted_ground(ground, 10, "check_submodular")
    n = len(items)
    values: list[Scalar] = [f(_subset(items, m)) for m in range(1 << n)]
    for a in range(1 << n):
        fa = values[a]
        for b in range(a, 1 << n):
            if values[a | b] + values[a & b] > fa + values[b] + tol:
                return False, (_subset(items, a), _subset(items, b))
    return True, None


def check_monotone(
    f: ValuationFunction, ground: Iterable[str], tol: float = 1e-9
) -> tuple[bool, tuple[frozenset, frozenset] | None]:
    """Exhaustively test A <= B implies f(A) <= f(B) (one-element steps)."""
    items = _sorted_ground(ground, 12, "check_monotone")
    n = len(items)
    values: list[Scalar] = [f(_subset(items, m)) for m in range(1 << n)]
    for m in range(1 << n):
        for i in range(n):
            if m >> i & 1 and values[m & ~(1 << i)] > values[m] + tol:
                return False, (_subset(items, m & ~(1 << i)), _subset(items, m))
    return True, None


def check_downward_closed(
    family: IndependenceOracle, ground: Iterable[str]
) -> tuple[bool, tuple[frozenset, frozenset] | None]:
    """Exhaustively test that removing one element keeps independence."""
    items = _sorted_ground(ground, 12, "check_downward_closed")
    n = len(items)
    independent = [family.is_independent(_subset(items, m)) for m in range(1 << n)]
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
    *,
    walk_cap: int = 200_000,
) -> tuple[bool, tuple[str, ...] | None]:
    """Validate prefix-closure of a probing constraint.

    Stepwise oracles are prefix-closed by construction, so for them this
    exhaustively walks the feasible sequences (surfacing crashes or cap
    blowups). Table-backed constraints are checked for real: every declared
    sequence must have all its prefixes declared.
    """
    if isinstance(constraint, TableConstraint):
        for seq in sorted(s for s in constraint.sequences if len(s) <= max_len):
            if any(seq[:cut] not in constraint.sequences for cut in range(1, len(seq))):
                return False, seq
        return True, None

    for seen, _ in enumerate(_feasible_sequences(constraint, universe.elements, max_len), 1):
        if seen > walk_cap:
            raise ValidationError("prefix-closure walk exceeded its cap")
    return True, None


def _independent_sets(
    family: IndependenceOracle, items: Sequence[str]
) -> list[frozenset[str]]:
    out: list[frozenset[str]] = []

    def grow(start: int, current: frozenset[str]) -> None:
        out.append(current)
        for i in range(start, len(items)):
            ext = current | {items[i]}
            if family.is_independent(ext):
                grow(i + 1, ext)

    grow(0, frozenset())
    return out


def check_k_extendible(
    family: IndependenceOracle, ground: Iterable[str], k: int
) -> tuple[bool, tuple[frozenset, frozenset, str] | None]:
    """Exhaustive test of the k-extendibility exchange axiom.

    For every A <= B independent and every e with A+{e} independent, some
    Z <= B-A with |Z| <= k must leave B-Z+{e} independent. Returns the first
    failing (A, B, e) triple.
    """
    items = _sorted_ground(ground, 10, "check_k_extendible")
    for big in _independent_sets(family, items):
        big_list = sorted(big)
        nb = len(big_list)
        for amask in range(1 << nb):
            small = _subset(big_list, amask)
            rest = sorted(big - small)
            for e in items:
                if e in big:
                    continue
                if not family.is_independent(small | {e}):
                    continue
                found = False
                for size in range(min(k, len(rest)) + 1):
                    for removal in itertools.combinations(rest, size):
                        if family.is_independent(big - frozenset(removal) | {e}):
                            found = True
                            break
                    if found:
                        break
                if not found:
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
        if family.is_independent(b - removed | inserted | {e}):
            inserted = inserted | {e}
            continue
        candidates = sorted(b - removed - a - inserted)
        step: frozenset[str] | None = None
        for size in range(1, min(k, len(candidates)) + 1):
            for combo in itertools.combinations(candidates, size):
                trial = frozenset(combo)
                if family.is_independent(b - removed - trial | inserted | {e}):
                    step = trial
                    break
            if step is not None:
                break
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


def _ancestor_comparable(
    la: tuple[int, ...], lb: tuple[int, ...]
) -> bool:
    shorter, longer = (la, lb) if len(la) <= len(lb) else (lb, la)
    return longer[: len(shorter)] == shorter


def check_encoding(
    matroids: Sequence[IndependenceOracle],
    label_map: dict[str, tuple[tuple[int, ...], int]],
    *,
    set_samples: int = 10_000,
    seed: int = 0,
    exhaustive_set_limit: int = 12,
) -> tuple[bool, frozenset | None]:
    """Verify that the matroid intersection realizes the ancestor-chain family.

    Pairs are checked exhaustively: two edges are jointly independent exactly
    when their vertices are ancestor-related. Sets are checked exhaustively
    when the ground is small, else on ``set_samples`` seeded random subsets:
    intersection-independent iff every pair is ancestor-related.
    """
    from .families import intersect  # local import keeps module load light
    import random as _random

    inter = intersect(list(matroids))
    ground = sorted(label_map)

    def chain(types: Iterable[str]) -> bool:
        labs = [label_map[t][0] for t in types]
        return all(
            _ancestor_comparable(x, y) for x, y in itertools.combinations(labs, 2)
        )

    for a, b in itertools.combinations(ground, 2):
        expected = _ancestor_comparable(label_map[a][0], label_map[b][0])
        if inter.is_independent({a, b}) != expected:
            return False, frozenset({a, b})

    if len(ground) <= exhaustive_set_limit:
        for size in range(3, len(ground) + 1):
            for combo in itertools.combinations(ground, size):
                s = frozenset(combo)
                if inter.is_independent(s) != chain(s):
                    return False, s
    else:
        rng = _random.Random(seed)
        for _ in range(set_samples):
            size = rng.randint(2, min(8, len(ground)))
            s = frozenset(rng.sample(ground, size))
            if inter.is_independent(s) != chain(s):
                return False, s
    return True, None
