"""Ground-set model: elements, type spaces, independent type distributions,
and deterministic sampling or exact enumeration of joint type assignments.

Element and type identifiers are plain strings. Type identifiers are unique
across the whole universe, so sets of types need no element qualification.
Probabilities may be floats or :class:`fractions.Fraction`; the exact
evaluators keep whatever arithmetic the inputs use, which allows bit-exact
cross-checks when every probability is rational.

All objects here are immutable after construction and safe to share between
threads. Randomness is counter-addressable: a draw is fully determined by
``(seed, stream, counter)``, so concurrent samplers never share state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

Scalar = int | float | Fraction

#: Largest number of joint type assignments an exact enumeration will expand.
DEFAULT_ASSIGNMENT_CAP = 1 << 20

_PROB_SUM_TOL = 1e-12
_SEED_DOMAIN = 0x5350  # namespaces this project's streams inside SeedSequence


class ValidationError(ValueError):
    """Malformed model input or a broken construction invariant."""


class ExactCapExceeded(RuntimeError):
    """Exact mode is infeasible at this size; use the Monte Carlo evaluators."""


def check_finite(value: Scalar, what: str) -> None:
    """Reject NaN and infinities, which slip through every ordered comparison."""
    if not isinstance(value, (int, Fraction)) and not math.isfinite(value):
        raise ValidationError(f"{what} is {value!r}, not a finite number")


@dataclass(frozen=True)
class Universe:
    """Ordered ground set with one finite type space per element.

    Invariants: element ids are distinct, every element has at least one
    type, and type ids are globally distinct across elements.
    """

    elements: tuple[str, ...]
    type_space: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(
            self, "type_space", {e: tuple(ts) for e, ts in self.type_space.items()}
        )
        if len(set(self.elements)) != len(self.elements):
            raise ValidationError("element ids must be distinct")
        if set(self.type_space) != set(self.elements):
            raise ValidationError("type_space keys must match the element list")
        seen: set[str] = set()
        for e in self.elements:
            types = self.type_space[e]
            if not types:
                raise ValidationError(f"element {e!r} has no types")
            tset = set(types)
            if len(tset) != len(types) or (seen & tset):
                raise ValidationError("type ids must be globally distinct")
            seen |= tset
        object.__setattr__(self, "_all_types", frozenset(seen))

    @property
    def all_types(self) -> frozenset[str]:
        return self._all_types  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.elements)


def universe_from_type_space(type_space: Mapping[str, Iterable[str]]) -> Universe:
    """Build a universe using the mapping's key order as the element order."""
    return Universe(tuple(type_space), {e: tuple(ts) for e, ts in type_space.items()})


class TypeDistribution:
    """Independent per-element probability vectors over each element's types.

    Each vector must sum to 1 within ``1e-12``; entries may be floats,
    ints, or Fractions. Instances are immutable by convention.
    """

    def __init__(self, probs: Mapping[str, Mapping[str, Scalar]]):
        table: dict[str, dict[str, Scalar]] = {}
        for e, row in probs.items():
            row = dict(row)
            total: Scalar = 0
            for t, p in row.items():
                check_finite(p, f"probability of type {t!r}")
                if p < 0 or p > 1:
                    raise ValidationError(
                        f"probability of type {t!r} is {p!r}, outside [0, 1]"
                    )
                total = total + p
            if abs(total - 1) > _PROB_SUM_TOL:
                raise ValidationError(
                    f"probabilities for element {e!r} sum to {total!r}, not 1"
                )
            table[e] = row
        self.probs = table
        self._cumulative_cache: dict[tuple, np.ndarray] = {}

    def prob(self, element: str, type_id: str) -> Scalar:
        return self.probs[element][type_id]

    def validate_against(self, universe: Universe) -> None:
        if set(self.probs) != set(universe.elements):
            raise ValidationError("distribution does not cover exactly the universe")
        for e in universe.elements:
            if set(self.probs[e]) != set(universe.type_space[e]):
                raise ValidationError(
                    f"distribution for element {e!r} does not match its type space"
                )

    def _cumulative(self, element: str, order: tuple[str, ...]) -> np.ndarray:
        key = (element, order)
        cum = self._cumulative_cache.get(key)
        if cum is None:
            row = self.probs[element]
            cum = np.cumsum([float(row[t]) for t in order])
            self._cumulative_cache[key] = cum
        return cum

    def __eq__(self, other) -> bool:
        return isinstance(other, TypeDistribution) and self.probs == other.probs

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TypeDistribution({self.probs!r})"


@dataclass(frozen=True)
class TypeVector:
    """Assignment of a type to each element of some subset of the universe."""

    assignment: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))

    def __getitem__(self, element: str) -> str:
        return self.assignment[element]

    def __contains__(self, element: str) -> bool:
        return element in self.assignment

    def __len__(self) -> int:
        return len(self.assignment)

    def items(self):
        return self.assignment.items()

    @property
    def elements(self) -> frozenset[str]:
        return frozenset(self.assignment)

    @property
    def types(self) -> frozenset[str]:
        return frozenset(self.assignment.values())


def restrict(vector: TypeVector, subset: Iterable[str]) -> TypeVector:
    """Project a type vector onto a subset of its assigned elements."""
    wanted = set(subset)
    missing = wanted - set(vector.assignment)
    if missing:
        raise ValidationError(f"cannot restrict to unassigned elements: {sorted(missing)}")
    return TypeVector({e: t for e, t in vector.assignment.items() if e in wanted})


@dataclass(frozen=True)
class RandomStream:
    """Named, counter-addressable random stream.

    ``(seed, stream, counter)`` fully determine every draw, so samples are
    reproducible and order-independent across workers.
    """

    seed: int
    stream: int = 0
    counter: int = 0

    def __post_init__(self):
        for name in ("seed", "stream", "counter"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValidationError(f"{name} must be a non-negative integer, got {v!r}")

    def at(self, counter: int) -> "RandomStream":
        return replace(self, counter=counter)

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            [_SEED_DOMAIN, self.seed, self.stream, self.counter]
        )


def sample_type_codes(
    universe: Universe,
    dist: TypeDistribution,
    stream: RandomStream,
    count: int,
) -> np.ndarray:
    """Draw ``count`` joint type profiles as integer codes, one block per stream.

    Entry ``[i, j]`` is the position of row ``i``'s type for element
    ``universe.elements[j]`` within that element's type space. The whole
    block is a single counter-addressed draw, which is what the Monte Carlo
    evaluators parallelize over.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    gen = stream.generator()
    u = gen.random((count, len(universe.elements)))
    # columns with equal cumulative vectors share one searchsorted call
    groups: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for j, e in enumerate(universe.elements):
        cum = dist._cumulative(e, universe.type_space[e])
        groups.setdefault(cum.tobytes(), (cum, []))[1].append(j)
    codes = np.empty(u.shape, dtype=np.intp)
    for cum, cols in groups.values():
        picked = u if len(cols) == u.shape[1] else u[:, cols]  # one group: no copy
        got = np.searchsorted(cum, picked, side="right")
        codes[:, cols] = np.minimum(got, len(cum) - 1, out=got)
    return codes


def sample_type_profiles(
    universe: Universe,
    dist: TypeDistribution,
    stream: RandomStream,
    count: int,
) -> list[tuple[str, ...]]:
    """The rows of :func:`sample_type_codes` as tuples of type ids."""
    orders = [universe.type_space[e] for e in universe.elements]
    return [
        tuple(order[c] for order, c in zip(orders, row))
        for row in sample_type_codes(universe, dist, stream, count).tolist()
    ]


def sample_type_vector(
    universe: Universe, dist: TypeDistribution, stream: RandomStream
) -> TypeVector:
    """One independent draw per element, deterministic in the stream address."""
    dist.validate_against(universe)
    row = sample_type_profiles(universe, dist, stream, 1)[0]
    return TypeVector(dict(zip(universe.elements, row)))


def check_assignment_count(
    universe: Universe, elements: Iterable[str], cap: int
) -> None:
    """Raise :class:`ExactCapExceeded` when the joint type assignments over
    ``elements`` (the product of their type-space sizes) exceed ``cap``."""
    total = 1
    for e in elements:
        total *= len(universe.type_space[e])
        if total > cap:
            raise ExactCapExceeded(
                f"exact mode infeasible: more than {cap} joint assignments; "
                "use the Monte Carlo evaluators"
            )


def iter_type_profiles(
    universe: Universe,
    dist: TypeDistribution,
    elements: Sequence[str],
    cap: int = DEFAULT_ASSIGNMENT_CAP,
) -> Iterator[tuple[tuple[str, ...], Scalar]]:
    """Yield every joint assignment over ``elements`` with its probability.

    Probabilities multiply per-element masses and keep exact arithmetic when
    the inputs are rational. Raises :class:`ExactCapExceeded` when the
    product of type-space sizes exceeds ``cap``.
    """
    check_assignment_count(universe, elements, cap)
    spaces = [universe.type_space[e] for e in elements]
    for combo in itertools.product(*spaces):
        p: Scalar = 1
        for e, t in zip(elements, combo):
            p = p * dist.prob(e, t)
        yield combo, p


def enumerate_assignments(
    universe: Universe,
    dist: TypeDistribution,
    subset: Iterable[str],
    cap: int = DEFAULT_ASSIGNMENT_CAP,
) -> Iterator[tuple[TypeVector, Scalar]]:
    """Enumerate partial type vectors over ``subset`` exactly once each."""
    wanted = set(subset)
    unknown = wanted - set(universe.elements)
    if unknown:
        raise ValidationError(f"unknown elements: {sorted(unknown)}")
    elems = tuple(e for e in universe.elements if e in wanted)
    for combo, p in iter_type_profiles(universe, dist, elems, cap=cap):
        yield TypeVector(dict(zip(elems, combo))), p
