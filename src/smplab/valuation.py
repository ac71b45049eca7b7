"""Monotone combinatorial valuations over sets of type ids.

Every valuation maps a set of types to a non-negative value, is monotone,
and gives the empty set value 0. Values keep the arithmetic of their inputs
(int, float, or Fraction). Valuations keep no state between calls. An
evaluator compiles a valuation once per call over the types it will meet
(``_compiled``): a set is then the union of its types' int masks, and any
table lives only as long as the compiled form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping

from .core import Scalar, ValidationError, check_finite
from .families import IndependenceOracle, _bits, _rank_form, _total, _union


class ValuationFunction:
    """Base class; subclasses implement ``_compiled``."""

    kind = "abstract"
    #: True when ``_compiled``'s masks are what the types reach: ``f(F | X) - f(F)``,
    #: X within B, then depends on F only via ``mask(F) & mask(B)``.
    masks_reach = False

    def __call__(self, types: Iterable[str]) -> Scalar:
        masks, value = self._compiled(types)
        return value(_union(masks.values()))

    def _compiled(self, types: Iterable[str]) -> tuple[dict[str, int], Callable[[int], Scalar]]:
        """``f`` for one call over ``types``: a mask per type, and ``value`` with ``f(S) ==
        value(union of the masks of S)``."""
        raise NotImplementedError


@dataclass(eq=True)
class ExplicitValuation(ValuationFunction):
    """Table-backed valuation for tests and tiny hand-built instances."""

    ground: frozenset[str]
    table: Mapping[frozenset[str], Scalar]

    kind = "explicit"

    def __post_init__(self):
        self.ground = frozenset(self.ground)
        self.table = {frozenset(k): v for k, v in self.table.items()}
        for k, v in self.table.items():
            check_finite(v, f"table value for {sorted(k)}")
            if not k and v != 0:
                raise ValidationError(f"table value for [] must be 0, got {v!r}")

    def _compiled(self, types):
        names = list(dict.fromkeys(types))  # a bit each; a table per call from mask to entry

        @functools.cache
        def value(mask: int) -> Scalar:
            key = frozenset(names[i] for i in _bits(mask))
            if key and key not in self.table:
                raise ValidationError(f"explicit valuation has no entry for {sorted(key)}")
            return self.table.get(key, 0)

        return {t: 1 << i for i, t in enumerate(names)}, value


@dataclass(eq=True)
class WeightedCoverageValuation(ValuationFunction):
    """Total weight of the items that the given types reach.

    f(S) sums ``weight`` over the union of ``reach_of[t]``, t in S: monotone
    submodular by construction; types without a reach add nothing. ``kind``
    is the instance-file form only: ``coverage`` puts weight 1 on the cover
    sets; ``partition_weighted`` reaches one part per type, the weighted rank
    of a partition matroid that keeps one type per part.
    """

    reach_of: Mapping[str, frozenset]
    weight: Mapping[Hashable, Scalar]
    kind: str

    masks_reach = True

    def __post_init__(self):
        if self.kind not in ("coverage", "partition_weighted"):
            raise ValidationError(f"unknown weighted coverage kind {self.kind!r}")
        item = "part" if self.kind == "partition_weighted" else "item"
        self.reach_of = {t: frozenset(s) for t, s in self.reach_of.items()}
        self.weight = dict(self.weight)
        for x, w in self.weight.items():
            check_finite(w, f"weight of {item} {x!r}")
            if w < 0:
                raise ValidationError(f"{item} {x!r} has negative weight {w!r}")
        missing = {x for s in self.reach_of.values() for x in s if x not in self.weight}
        if missing:
            raise ValidationError(f"{item}s without a weight: {sorted(map(str, missing))}")

    def _compiled(self, types):
        # an item's bit is its place in ``weight``; a table per call from a covered mask
        bit = {x: 1 << i for i, x in enumerate(self.weight)}
        terms = list(self.weight.values())
        value = functools.cache(lambda covered: _total(terms[i] for i in _bits(covered)))
        return {t: sum(bit[x] for x in self.reach_of.get(t, ())) for t in types}, value


@dataclass(eq=True)
class WeightedRankValuation(ValuationFunction):
    """Maximum total weight of an independent subset of the argument.

    Exact greedy on matroids; exhaustive (capped) search on general
    downward-closed families. Types outside the family ground or with zero
    weight never contribute.
    """

    family: IndependenceOracle
    weights: Mapping[str, Scalar]

    kind = "weighted_rank"

    def __post_init__(self):
        self.weights = dict(self.weights)
        for t, w in self.weights.items():
            check_finite(w, f"weight of type {t!r}")
            if w < 0:
                raise ValidationError(f"type {t!r} has negative weight {w!r}")

    def _compiled(self, types):
        return _rank_form(self.family, types, self.weights)


def coverage_valuation(cover_sets: Mapping[str, Iterable]) -> WeightedCoverageValuation:
    reach_of = {t: frozenset(s) for t, s in cover_sets.items()}
    weight = dict.fromkeys((x for s in reach_of.values() for x in s), 1)
    return WeightedCoverageValuation(reach_of, weight, "coverage")


def partition_weighted_valuation(
    part_of: Mapping[str, str | int], part_weight: Mapping[str | int, Scalar]
) -> WeightedCoverageValuation:
    return WeightedCoverageValuation(
        {t: frozenset((p,)) for t, p in part_of.items()}, part_weight, "partition_weighted"
    )
