"""Weighted-to-unweighted reduction for rank functions of k-extendible
systems: dyadic weight classes, bucketing, representative selection by
non-adaptive value, and the greedy-optimal combiner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .core import (
    DEFAULT_ASSIGNMENT_CAP,
    ExactCapExceeded,
    Scalar,
    TypeDistribution,
    Universe,
    ValidationError,
)
from .evaluate import DEFAULT_WORK_CAP, EvalReport, alg_exact
from .families import IndependenceOracle, _best_subset
from .strategy import DecisionTree, validate_tree
from .valuation import ValuationFunction, weighted_rank


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
        j: weighted_rank(family, {t: 1 for t in sorted(members)})
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
    *,
    cap: int = 20,
) -> frozenset[str]:
    """Combine the selected classes over the observed true types.

    Buckets are visited in decreasing weight order; each contributes a
    maximum independent extension from its representative class, which then
    stays fixed. The returned set is independent in the family.
    """
    chosen: frozenset[str] = frozenset()
    for _, j in representatives.selected:
        members = decomposition.class_types.get(j, frozenset())
        candidates = sorted(path_types & members & family.ground)
        if len(candidates) > cap:
            raise ExactCapExceeded(
                f"combiner bucket has {len(candidates)} candidates, above cap {cap}"
            )
        chosen |= _best_subset(family, candidates, dict.fromkeys(candidates, 1), chosen)[0]
    return chosen


def combined_value(
    tree: DecisionTree,
    weights: Mapping[str, Scalar],
    family: IndependenceOracle,
    k: int,
    universe: Universe,
    dist: TypeDistribution,
    *,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
    work_cap: int = DEFAULT_WORK_CAP,
    combine_cap: int = 20,
) -> EvalReport:
    """Expected true-weight value of the greedy-optimal combined selection.

    Per-class non-adaptive values drive the representative choice. The
    combined selection's weight is a function of the set of true types, so
    its expectation over virtual paths and fresh true types is the
    random-walk value of that function, crediting each selected type with
    its actual weight.
    """
    validate_tree(tree, universe)
    decomposition = class_decompose(weights, family)
    class_alg = {
        j: alg_exact(tree, f_j, universe, dist,
                     assignment_cap=assignment_cap, work_cap=work_cap).value
        for j, f_j in decomposition.classes.items()
    }
    scaled = {j: two_power(j) * v for j, v in class_alg.items()}
    buckets = bucketize(decomposition.hi, decomposition.lo, k)
    representatives = select_representatives(scaled, buckets)

    def combined_weight(types: frozenset[str]) -> Scalar:
        picked = greedy_optimal_combine(
            types, decomposition, representatives, family, cap=combine_cap
        )
        return sum(weights[t] for t in sorted(picked))

    total = alg_exact(tree, combined_weight, universe, dist,
                      assignment_cap=assignment_cap, work_cap=work_cap).value

    trace = {
        "class_alg": class_alg,
        "scaled_class_alg": scaled,
        "bucket_width": bucket_width(k),
        "parity": representatives.parity,
        "representatives": dict(representatives.by_bucket),
        "selected": representatives.selected,
    }
    return EvalReport(value=total, mode="exact", trace=trace)
