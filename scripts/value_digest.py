#!/usr/bin/env python3
"""Print every exact result of a fixed battery, one line each, so that a
refactor that must not move a bit can be checked with ``diff``.

A float prints as its ``float.hex``, any other value as its type and
``repr``; a refused evaluation prints its message. The battery is
``gen_random_instance`` seeds 0-149 under three parameter sets (default,
rank-only with ``weight_high=8``, coverage-only), the triangle at eps 1/3
and 1/10 and ``gen_tree_lb`` at (3, 2, 1/3) and (3, 3, 1/3), each with its
Fraction probabilities and again with floats; at eps 1/10 and (3, 3, 1/3)
``adap_exact``'s reach memo and the greedy's selection memo work at scale.
Each instance gets ``adap_exact``, ``alg_exact`` and
``best_nonadaptive_exact`` at ``max_len`` 3; one with an independence
family also gets ``greedy_interleaved_exact`` with its ``online_value`` and
``combined_value`` with its class values. Searches at the default work cap:
``alg_exact`` on the triangle at eps 1/5 and 1/20 and
``best_nonadaptive_exact`` on the triangle at eps 1/4, over every element,
print Fraction values by the weighted-coverage item routes; the same two
searches at 1/5 and 1/4 under the rank of a partition matroid that equals
the coverage take the fresh-draw routes and print their refusals. The
random instances, the triangle at 1/3 and ``gen_tree_lb(3, 2, 1/3)``
also get the path-sum reference ``adap_by_path_enumeration``. The triangle's
closed forms ``submodular_lb_adap_recurrence`` and ``submodular_lb_alg_opt``
print at eps 1/4, 1/10 and 1/20 in Fraction.

The Monte Carlo lines give ``adap_mc`` and ``alg_mc`` value and stderr at
1 and 2 workers, seed 7 and 2,048 trials, on the triangle at eps 1/5 in
Fraction (the table route) and at 0.2 in float (coverage arrays), on
``gen_tree_lb(3, 2, 1/3)`` in float (path-chain arrays) and with Fraction
weights (the table route over a rank), and on ``gen_random_instance`` seeds
0-29 of the default parameters.

The encoding lines give ``check_encoding``'s verdict and sorted witness at
seeds 0 and 1, which the exact check accepts and ignores, for the k = 2 and 3
encodings, a seeded 40-type subset of k = 5, one more matroid that caps a
root path's three k = 3 types at 2 (on 12, 13 and all 39 types), a loop no
pair shows (``e0:on``'s part in the first k = 3 matroid at capacity 0, on the
three incomparable types ``e0:on``, ``e1:on`` and ``e2:on``), and four
seeded corruptions of each of the first three: a part flipped, a capacity
set to 0 or 2, a type dropped from every ground, a label shared.

The independence lines give, per family, its verdict on every subset of its
ground (how many are independent and a SHA-256 of the verdicts, in
``itertools.combinations`` order by size), each subset tested by position
through one ``_tester`` over the sorted ground, as ``check_downward_closed``
does, and ``greedy_select`` over the ground in sorted and in reversed order.
The families are the weighted-rank families of the rank-only seeds 0-149,
``gen_tree_lb(3, 2, 1/3)``'s path chains, an intersection of a partition
matroid and a matching, one of path chains and that partition matroid, and
an ``ExplicitFamily`` that is not downward closed, alone and intersected
with a partition matroid.

It prints 7,827 lines in about 17 s on a 2-vCPU VM, 13 s of them in the
independence lines (13 million subsets, one test per family).

Usage: PYTHONPATH=src python scripts/value_digest.py > digest.txt
"""

import hashlib
import itertools
import random
import sys
from fractions import Fraction

from smplab import (
    ExactCapExceeded,
    ExplicitFamily,
    IntersectionFamily,
    MatchingFamily,
    PartitionMatroid,
    PathChainFamily,
    RandomInstanceParams,
    TypeDistribution,
    WeightedRankValuation,
    adap_by_path_enumeration,
    adap_exact,
    adap_mc,
    alg_exact,
    alg_mc,
    best_nonadaptive_exact,
    check_encoding,
    combined_value,
    gen_prime_matroid_encoding,
    gen_random_instance,
    gen_submodular_lb,
    gen_tree_lb,
    greedy_interleaved_exact,
    greedy_select,
    submodular_lb_adap_recurrence,
    submodular_lb_alg_opt,
)

PARAMS = {
    "default": RandomInstanceParams(),
    "rank": RandomInstanceParams(
        valuation_kinds=("matroid_intersection_rank", "matching_rank"), weight_high=8),
    "coverage": RandomInstanceParams(valuation_kinds=("coverage",)),
}

MC_TRIALS, MC_SEED = 2048, 7


def show(value) -> str:
    return value.hex() if isinstance(value, float) else f"{type(value).__name__} {value!r}"


def greedy(b, dist) -> dict:
    rep = greedy_interleaved_exact(b.tree, b.family, b.universe, dist)
    return {"value": rep.value, "online_value": rep.trace["online_value"]}


def combined(b, dist) -> dict:
    k = max(b.metadata.get("k") or 2, 2)  # a 1-extendible family is 2-extendible too
    rep = combined_value(b.tree, b.weights, b.family, k, b.universe, dist)
    classes = {f"class_alg[{j}]": v for j, v in rep.trace["class_alg"].items()}
    return {"value": rep.value, **classes}


def results(b, dist, paths: bool):
    """(evaluator, thunk) pairs; each thunk returns the evaluator's results by name."""
    args = (b.tree, b.valuation, b.universe, dist)
    yield "adap", lambda: {"value": adap_exact(*args).value}
    if paths:
        yield "path-sum", lambda: {"value": adap_by_path_enumeration(*args)}
    yield "alg", lambda: {"value": alg_exact(*args).value}
    yield "best-na", lambda: dict(zip(("sequence", "value"), best_nonadaptive_exact(
        b.universe, dist, b.valuation, b.constraint, 3)))
    if b.family is not None:
        yield "greedy", lambda: greedy(b, dist)
        yield "combined", lambda: combined(b, dist)


def digest(label: str, b, paths: bool = False) -> None:
    floated = TypeDistribution({e: {t: float(p) for t, p in row.items()}
                                for e, row in b.dist.probs.items()})
    for arithmetic, dist in (("fraction", b.dist), ("float", floated)):
        for evaluator, thunk in results(b, dist, paths):
            searched(f"{label} {arithmetic} {evaluator}", thunk)


def searched(label: str, thunk) -> None:
    """A line per result of ``thunk`` by name, or one for its refusal."""
    try:
        lines = [f"{name} {show(value)}" for name, value in thunk().items()]
    except ExactCapExceeded as refused:
        lines = [f"refused: {refused}"]
    for line in lines:
        print(f"{label} {line}")


def rank_twin(b) -> WeightedRankValuation:
    """The triangle's column coverage as the weighted rank of a partition matroid that
    keeps one type per column: equal values, but on the fresh-draw routes."""
    column = {t: next(iter(items)) for t, items in b.valuation.reach_of.items()}
    return WeightedRankValuation(PartitionMatroid(column, dict.fromkeys(b.valuation.weight, 1)),
                                 {t: b.valuation.weight[c] for t, c in column.items()})


def edge_searches() -> None:
    """Searches at the default work cap: the triangle's coverage, which the item routes
    value, and its rank twin, whose fresh draws pass the cap, so the message states it."""
    t5, t4 = gen_submodular_lb(Fraction(1, 5)), gen_submodular_lb(Fraction(1, 4))
    t20 = gen_submodular_lb(Fraction(1, 20))
    for label, b, f in (("", t5, t5.valuation), (" rank", t5, rank_twin(t5)),
                        ("", t20, t20.valuation)):
        searched(f"triangle:{b.metadata['eps']} fraction alg{label}",
                 lambda: {"value": alg_exact(b.tree, f, b.universe, b.dist).value})
    for label, f in (("", t4.valuation), (" rank", rank_twin(t4))):
        searched(f"triangle:1/4 fraction best-na{label}", lambda: dict(zip(
            ("sequence", "value"), best_nonadaptive_exact(
                t4.universe, t4.dist, f, t4.constraint, len(t4.universe)))))


def closed_forms() -> None:
    for eps in (Fraction(1, 4), Fraction(1, 10), Fraction(1, 20)):
        for name, form in (("adap", submodular_lb_adap_recurrence),
                           ("alg-opt", submodular_lb_alg_opt)):
            print(f"closed-form:{eps} fraction {name} {show(form(eps))}")


def monte_carlo(label: str, b, valuation=None) -> None:
    """Both Monte Carlo estimates of ``b`` (under ``valuation`` if given) at 1 and 2 workers."""
    for fn in (adap_mc, alg_mc):
        for workers in (1, 2):
            rep = fn(b.tree, valuation or b.valuation, b.universe, b.dist, MC_TRIALS, MC_SEED,
                     workers=workers)
            print(f"{label} mc {fn.__name__} workers={workers} "
                  f"value {rep.value.hex()} stderr {rep.stderr.hex()}")


def corrupted(matroids, label_map, how: str, rng: random.Random) -> tuple:
    """An encoding with one seeded type's part flipped or its part's capacity set to 0 or
    2 in one matroid, the type dropped from every ground, or another type's label."""
    matroids, label_map = list(matroids), dict(label_map)
    t = rng.choice(sorted(label_map))
    if how == "same_label":
        label_map[t] = label_map[rng.choice(sorted(label_map))]
        return matroids, label_map
    for i in range(len(matroids)) if how == "drop_all" else [rng.randrange(len(matroids))]:
        part_of, capacity = dict(matroids[i].part_of), dict(matroids[i].capacity)
        if how == "flip":
            part_of[t] = rng.choice(sorted(capacity))
        elif how == "capacity":
            capacity[part_of[t]] = rng.choice((0, 2))
        else:
            del part_of[t]
        matroids[i] = PartitionMatroid(part_of, capacity)
    return matroids, label_map


def encodings() -> None:
    cases = {f"k={k}": gen_prime_matroid_encoding(k) for k in (2, 3)}
    m5, l5 = gen_prime_matroid_encoding(5)
    cases["k=5:40"] = m5, {t: l5[t] for t in random.Random(0).sample(sorted(l5), 40)}
    for label, (matroids, label_map) in list(cases.items()):
        for how in ("flip", "capacity", "drop_all", "same_label"):
            for seed in range(4):
                cases[f"{label} {how}:{seed}"] = corrupted(
                    matroids, label_map, how, random.Random(f"{label}-{how}-{seed}"))
    m3, l3 = cases["k=3"]
    triple = {"e0:on", "e0.0:on", "e0.0.0:on"}
    extra = PartitionMatroid({t: "path" if t in triple else t for t in l3},
                             {"path": 2} | {t: 1 for t in l3 if t not in triple})
    others = sorted(set(l3) - triple)
    for size in (12, 13, 39):
        chosen = [*triple, *random.Random(0).sample(others, size - 3)]
        cases[f"k=3 triple:{size}"] = [*m3, extra], {t: l3[t] for t in chosen}
    first = m3[0]
    cases["k=3 loop"] = (
        [PartitionMatroid(first.part_of, first.capacity | {first.part_of["e0:on"]: 0}), *m3[1:]],
        {t: l3[t] for t in ("e0:on", "e1:on", "e2:on")})
    for label, (matroids, label_map) in cases.items():
        for seed in (0, 1):
            ok, witness = check_encoding(matroids, label_map, seed=seed)
            print(f"encoding:{label} seed={seed} ok {ok} witness {sorted(witness or ())}")


def independence_families():
    """(label, family) of the rank-only random seeds, the w-ary tree's path chains, two
    intersections with members of other kinds and a family that is not downward closed,
    alone and intersected with a partition matroid."""
    for seed in range(150):
        yield f"rank:{seed}", gen_random_instance(seed, PARAMS["rank"]).valuation.family
    yield "tree:3,2,1/3", gen_tree_lb(3, 2, Fraction(1, 3)).family
    other = PartitionMatroid({"a": "x", "b": "y", "c": "y", "d": "x", "e": "y"},
                             {"x": 1, "y": 2})
    matching = MatchingFamily({"a": ("u", "v"), "b": ("v", "w"), "c": ("w", "x"),
                               "d": ("x", "u"), "e": ("y", "z")})
    chain = PathChainFamily({"a": ("r", ""), "b": ("", "2"), "c": ("", "3"),
                             "d": ("2", "4"), "e": ("r", "5")}, "r")
    yield "mixed", IntersectionFamily((other, matching))
    yield "mixed_chain", IntersectionFamily((chain, other))
    explicit = ExplicitFamily("abc", ["", "a", "ab", "bc", "abc"])
    yield "explicit", explicit
    yield "explicit_partition", IntersectionFamily(
        (explicit, PartitionMatroid({"a": 0, "b": 0, "c": 1}, {0: 1, 1: 1})))


def independence() -> None:
    for label, family in independence_families():
        items = sorted(family.ground)
        test = family._tester(items)  # one test for every subset, by position
        verdicts = hashlib.sha256()
        count = 0
        for size in range(len(items) + 1):
            got = bytes(map(test, itertools.combinations(range(len(items)), size)))
            verdicts.update(got)
            count += sum(got)
        print(f"independence:{label} subsets {1 << len(items)} independent {count} "
              f"sha256 {verdicts.hexdigest()[:16]}")
        for name, order in (("sorted", items), ("reversed", items[::-1])):
            print(f"independence:{label} greedy {name} {list(greedy_select(family, order))}")


def main() -> int:
    for kind, params in PARAMS.items():
        for seed in range(150):
            digest(f"random:{kind}:{seed}", gen_random_instance(seed, params), paths=True)
    digest("triangle:1/3", gen_submodular_lb(Fraction(1, 3)), paths=True)
    digest("triangle:1/10", gen_submodular_lb(Fraction(1, 10)))
    digest("tree:3,2,1/3", gen_tree_lb(3, 2, Fraction(1, 3)), paths=True)
    digest("tree:3,3,1/3", gen_tree_lb(3, 3, Fraction(1, 3)))
    edge_searches()
    closed_forms()
    monte_carlo("triangle:1/5 fraction", gen_submodular_lb(Fraction(1, 5)))
    monte_carlo("triangle:0.2 float", gen_submodular_lb(0.2))
    tree = gen_tree_lb(3, 2, Fraction(1, 3))
    monte_carlo("tree:3,2,1/3 float", gen_tree_lb(3, 2, 1 / 3))
    monte_carlo("tree:3,2,1/3 fraction-weights", tree, WeightedRankValuation(
        tree.valuation.family, dict.fromkeys(tree.valuation.weights, Fraction(1))))
    for seed in range(30):
        monte_carlo(f"random:default:{seed}", gen_random_instance(seed, PARAMS["default"]))
    encodings()
    independence()
    return 0


if __name__ == "__main__":
    sys.exit(main())
