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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

Scalar = int | float | Fraction

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

    Entries may be floats, ints, or Fractions. A vector of ints and Fractions
    must sum to exactly 1, one holding a float to 1 within ``1e-12``.
    Instances are immutable by convention.
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
            exact = isinstance(total, (int, Fraction))  # no float in the row
            if total != 1 if exact else abs(total - 1) > _PROB_SUM_TOL:
                raise ValidationError(
                    f"probabilities for element {e!r} sum to {total!r}, not 1"
                )
            table[e] = row
        self.probs = table

    def prob(self, element: str, type_id: str) -> Scalar:
        return self.probs[element][type_id]

    def row(self, element: str, types: Sequence[str]) -> list[Scalar]:
        """The probabilities of ``element``'s ``types``, in order; a missing row or
        type raises ValidationError naming the first one missing."""
        try:
            row = self.probs[element]
            return [row[t] for t in types]
        except KeyError:
            field = f"[{element!r}]" if (row := self.probs.get(element)) is None else (
                f"[{element!r}][{next(t for t in types if t not in row)!r}]")
            raise ValidationError(f"distribution{field} is missing") from None

    def validate_against(self, universe: Universe) -> None:
        for e in [*universe.elements, *self.probs]:
            if set(self.probs.get(e, ())) != set(universe.type_space.get(e, ())):
                raise ValidationError(f"distribution[{e!r}] does not match universe.types[{e!r}]")

    def __eq__(self, other) -> bool:
        return isinstance(other, TypeDistribution) and self.probs == other.probs

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TypeDistribution({self.probs!r})"


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
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValidationError(f"{name} must be a non-negative integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            [_SEED_DOMAIN, self.seed, self.stream, self.counter]
        )


def _type_thresholds(
    universe: Universe, dist: TypeDistribution, elements: Sequence[str]
) -> np.ndarray:
    """Per element of ``elements``, in order, the running sums of its type probabilities
    but the last, padded with +inf to one less than the widest of their type spaces."""
    spaces = [universe.type_space[e] for e in elements]
    width = max(map(len, spaces), default=1)
    rows = [[float(p) for p in dist.row(e, ts)[:-1]] + [np.inf] * (width - len(ts) + 1)
            for e, ts in zip(elements, spaces)]
    return np.cumsum(np.reshape(rows, (len(spaces), width)), axis=1)[:, :-1]


def _type_codes(u: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Each draw's code, the count of its element's thresholds (last axis) at most
    the draw: ``searchsorted(cum, u, side="right")`` clipped to ``len(cum) - 1``."""
    return (u[..., None] >= thresholds).sum(axis=-1)


def iter_type_profiles(
    universe: Universe,
    dist: TypeDistribution,
    elements: Sequence[str],
) -> Iterator[tuple[tuple[str, ...], Scalar]]:
    """Yield every joint assignment over ``elements`` with its probability.

    Probabilities multiply per-element masses and keep exact arithmetic when
    the inputs are rational.
    """
    spaces = [universe.type_space[e] for e in elements]
    for combo in itertools.product(*spaces):
        p: Scalar = 1
        for e, t in zip(elements, combo):
            p = p * dist.prob(e, t)
        yield combo, p
