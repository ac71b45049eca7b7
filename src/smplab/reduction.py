"""Weighted-to-unweighted reduction for rank functions of k-extendible
systems: dyadic weight classes, bucketing, representative selection by
non-adaptive value, and the greedy-optimal combiner.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .core import Scalar, TypeDistribution, Universe, ValidationError
from .evaluate import _NO_MC_ADVICE, EvalReport, _Prepared, _WorkMeter, _probed_sets, _walk_values
from .families import IndependenceOracle, _best_subset, _bits, _total, _union
from .strategy import DecisionTree
from .valuation import ValuationFunction, WeightedRankValuation


def two_power(j: int) -> Scalar:
    """2**j as an exact int (j >= 0) or Fraction (j < 0)."""
    return 1 << j if j >= 0 else Fraction(1, 1 << -j)


def weight_class(w: Scalar) -> int:
    """The unique j with 2**(j-1) < w <= 2**j, exact for all scalar kinds."""
    if w <= 0:
        raise ValidationError("weight classes are defined for positive weights only")
    if isinstance(w, int):
        return (w - 1).bit_length()
    j = math.ceil(math.log2(w))
    while two_power(j - 1) >= w:
        j -= 1
    while w > two_power(j):
        j += 1
    return j


@dataclass
class ClassDecomposition:
    """Partition of the positive-weight types into dyadic weight classes.

    ``classes[j]`` is the unweighted rank valuation restricted to class-j
    types; ``class_of`` sends each positive-weight type to its class.
    """

    family: IndependenceOracle
    class_of: dict[str, int]
    class_types: dict[int, frozenset[str]]
    classes: dict[int, ValuationFunction]
    lo: int
    hi: int


def class_decompose(
    weights: Mapping[str, Scalar], family: IndependenceOracle
) -> ClassDecomposition:
    """Assign every positive-weight type to the class holding its weight."""
    class_of: dict[str, int] = {}
    for t, w in weights.items():
        if w < 0:
            raise ValidationError(f"type {t!r} has negative weight {w!r}")
        if w > 0:
            class_of[t] = weight_class(w)
    if not class_of:
        raise ValidationError("all weights are zero; nothing to decompose")
    class_types: dict[int, frozenset[str]] = {}
    for j in sorted(set(class_of.values())):
        class_types[j] = frozenset(t for t, jj in class_of.items() if jj == j)
    classes = {
        j: WeightedRankValuation(family, {t: 1 for t in sorted(members)})
        for j, members in class_types.items()
    }
    return ClassDecomposition(
        family=family,
        class_of=class_of,
        class_types=class_types,
        classes=classes,
        lo=min(class_types),
        hi=max(class_types),
    )


@dataclass(frozen=True)
class Bucket:
    """Classes hi down to lo (inclusive); index 1 holds the heaviest classes."""

    index: int
    lo: int
    hi: int

    def classes(self) -> range:
        return range(self.lo, self.hi + 1)


def bucket_width(k: int) -> int:
    if k < 2:
        raise ValidationError("bucketing needs k >= 2")
    return math.ceil(2 * math.log2(k))


def bucketize(hi: int, lo: int, k: int) -> list[Bucket]:
    """Split classes lo..hi into disjoint width-ceil(2*log2 k) buckets.

    Bucket i covers classes (hi - i*W, hi - (i-1)*W]; the last bucket may pad
    below lo so widths stay uniform.
    """
    if hi < lo:
        raise ValidationError("hi must be >= lo")
    width = bucket_width(k)
    count = -(-(hi - lo + 1) // width)
    return [
        Bucket(index=i, lo=hi - i * width + 1, hi=hi - (i - 1) * width)
        for i in range(1, count + 1)
    ]


@dataclass(frozen=True)
class RepresentativeChoice:
    """Per-bucket argmax classes and the parity kept by the combiner."""

    parity: str  # "odd" | "even"
    by_bucket: Mapping[int, int]  # bucket index -> chosen class j(i)
    selected: tuple[tuple[int, int], ...]  # (bucket index, class) kept, ascending


def select_representatives(
    scaled_values: Mapping[int, Scalar], buckets: list[Bucket]
) -> RepresentativeChoice:
    """Pick the best class per bucket, then the better parity of buckets.

    ``scaled_values[j]`` should be 2**j times the class-j non-adaptive value.
    Ties inside a bucket go to the larger class.
    """
    by_bucket: dict[int, int] = {}
    for bucket in buckets:
        present = [j for j in bucket.classes() if j in scaled_values]
        if not present:
            continue
        by_bucket[bucket.index] = max(present, key=lambda j: (scaled_values[j], j))
    odd_sum: Scalar = 0
    even_sum: Scalar = 0
    for i, j in by_bucket.items():
        if i % 2 == 1:
            odd_sum = odd_sum + scaled_values[j]
        else:
            even_sum = even_sum + scaled_values[j]
    parity = "odd" if odd_sum >= even_sum else "even"
    wanted = 1 if parity == "odd" else 0
    selected = tuple(
        (i, by_bucket[i]) for i in sorted(by_bucket) if i % 2 == wanted
    )
    return RepresentativeChoice(parity=parity, by_bucket=by_bucket, selected=selected)


def greedy_optimal_combine(
    path_types: frozenset[str],
    decomposition: ClassDecomposition,
    representatives: RepresentativeChoice,
    family: IndependenceOracle,
) -> frozenset[str]:
    """Combine the selected classes over the observed true types.

    Buckets are visited in decreasing weight order; each contributes a
    maximum independent extension from its representative class, which then
    stays fixed. The returned set is independent in the family.
    """
    flat, pick = _combine_form(decomposition, representatives, family)
    return frozenset(flat[i] for i in _bits(pick(_union(
        1 << i for i, t in enumerate(flat) if t in path_types))))


def _combine_form(
    decomposition: ClassDecomposition, representatives: RepresentativeChoice,
    family: IndependenceOracle,
) -> tuple[list[str], Callable[[int], int]]:
    """``greedy_optimal_combine`` compiled: its candidates, by selected class and then
    name, and ``pick``, from a mask of candidates to the mask of the selection."""
    runs = [sorted(decomposition.class_types.get(j, frozenset()) & family.ground)
            for _, j in representatives.selected]
    ends = itertools.accumulate(map(len, runs))
    spans = [(1 << end) - (1 << end - len(run)) for end, run in zip(ends, runs)]
    flat = [t for run in runs for t in run]
    initial, step = family._stepper(flat)
    ones = [1] * len(flat)

    def pick(mask: int) -> int:
        state, chosen = initial, 0
        for span in spans:
            state, got, _ = _best_subset(step, state, _bits(mask & span), ones)
            chosen |= got
        return chosen

    return flat, pick


def combined_value(
    tree: DecisionTree,
    weights: Mapping[str, Scalar],
    family: IndependenceOracle,
    k: int,
    universe: Universe,
    dist: TypeDistribution,
) -> EvalReport:
    """Expected true-weight value of the greedy-optimal combined selection.

    Per-class non-adaptive values drive the representative choice. The
    combined selection's weight is a function of the set of true types, so
    its expectation over virtual paths and fresh true types is the
    random-walk value of that function, crediting each selected type with
    its actual weight. The tree is checked and its distinct probed sets
    listed once; one fresh-draw pass per set values every class, and one more
    values the combined weight.
    """
    prep = _Prepared(tree, universe, dist)
    decomposition = class_decompose(weights, family)
    sets = _probed_sets(prep, _WorkMeter(_NO_MC_ADVICE))
    classes = decomposition.classes
    values = _walk_values(sets, [prep.form(c) for c in classes.values()], prep.rows)
    class_alg = dict(zip(classes, values))
    scaled = {j: two_power(j) * v for j, v in class_alg.items()}
    buckets = bucketize(decomposition.hi, decomposition.lo, k)
    representatives = select_representatives(scaled, buckets)

    flat, pick = _combine_form(decomposition, representatives, family)
    masks = dict.fromkeys(prep.names, 0) | {t: 1 << i for i, t in enumerate(flat)}

    @functools.cache  # a table per call
    def combined_weight(mask: int) -> Scalar:
        return _total(weights[t] for t in sorted(flat[i] for i in _bits(pick(mask))))

    total = _walk_values(sets, [(masks, combined_weight)], prep.rows)[0]

    trace = {
        "class_alg": class_alg,
        "scaled_class_alg": scaled,
        "bucket_width": bucket_width(k),
        "parity": representatives.parity,
        "representatives": dict(representatives.by_bucket),
        "selected": representatives.selected,
    }
    return EvalReport(value=total, mode="exact", trace=trace)
