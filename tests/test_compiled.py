"""The per-call compiled forms against references that do not use them:
family steppers against ``reference_independent``, compiled ranks against brute
force, compiled coverage against the reference valuations, and the stepped
greedy against joint enumeration."""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

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
    adap_exact,
    alg_exact,
    bucketize,
    class_decompose,
    coverage_valuation,
    gen_random_instance,
    greedy_interleaved_exact,
    greedy_optimal_combine,
    greedy_select,
    max_rank,
    partition_weighted_valuation,
    select_representatives,
    universe_from_type_space,
)
from smplab.families import _count_stepper
from smplab.strategy import chain_tree
from smplab.valuation import ExplicitValuation
from smplab.verify import VALUE_TOL, check_monotone, check_submodular
from oracles import (
    brute_greedy_interleaved,
    brute_max_weight_independent,
    powerset,
    reference_coverage,
    reference_independent,
    reference_partition_weighted,
)

#: types the families below do not hold, which every stepper must treat as loops
OUTSIDE = ("z0", "z1")


def families():
    """One family of every kind, over the ground a..e."""
    ground = list("abcde")
    part_of = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 2}
    partition = PartitionMatroid(part_of, {0: 2, 1: 0, 2: 3})
    other = PartitionMatroid({"a": "x", "b": "y", "c": "y", "d": "x", "e": "y"}, {"x": 1, "y": 2})
    matching = MatchingFamily({"a": ("u", "v"), "b": ("v", "w"), "c": ("w", "x"),
                               "d": ("x", "u"), "e": ("y", "z")})
    explicit = ExplicitFamily(ground, [s for s in powerset(ground) if len(s) <= 2])
    # "" is a vertex id a file may give: a lower endpoint that is falsy, not missing
    chain = PathChainFamily({"a": ("r", ""), "b": ("", "2"), "c": ("", "3"),
                             "d": ("2", "4"), "e": ("r", "5")}, "r")
    return {
        "partition": partition,
        "matching": matching,
        "partitions": IntersectionFamily((partition, other)),
        "mixed": IntersectionFamily((other, matching)),
        "mixed_chain": IntersectionFamily((chain, other)),
        "explicit": explicit,
        "path_chain": chain,
    }


def union(masks):
    return functools.reduce(operator.or_, masks, 0)


def same(a, b):
    """Equal in type and value; floats bit for bit."""
    return type(a) is type(b) and (a.hex() == b.hex() if isinstance(a, float) else a == b)


def random_families(seeds):
    """The weighted ranks of weighted-rank instances among ``gen_random_instance`` seeds."""
    params = RandomInstanceParams(max_elements=4, max_types=2, valuation_kinds=(
        "matroid_intersection_rank", "matching_rank"), weight_high=6)
    return [gen_random_instance(s, params).valuation for s in seeds]


def assert_build_up(family, types, order):
    """Step ``order`` (positions of ``types``) from the empty set, as far as it stays
    independent, checking each step against ``reference_independent``."""
    initial, step = family._stepper(types)
    state = initial
    for j, i in enumerate(order):
        state = step(state, i)
        built = frozenset(types[k] for k in order[: j + 1])
        assert (state is not None) == reference_independent(family, built), built
        if state is None:
            return


@pytest.mark.parametrize("name", list(families()))
def test_stepper_agrees_with_is_independent_on_every_build_up(name):
    family = families()[name]
    types = [*sorted(family.ground), *OUTSIDE]
    for order in itertools.permutations(range(len(types))):
        assert_build_up(family, types, order)


@pytest.mark.parametrize("name", list(families()))
def test_tester_and_is_independent_agree_with_the_reference(name):
    family = families()[name]
    types = [*sorted(family.ground), *OUTSIDE]
    test = family._tester(types)
    for positions in powerset(range(len(types))):
        subset = [types[i] for i in positions]
        expected = reference_independent(family, subset)
        assert test(positions) == expected, subset
        assert family.is_independent(reversed(subset)) == expected, subset


def test_stepper_of_random_families():
    rng = random.Random(3)
    for f in random_families(range(40)):
        types = sorted(f.family.ground)
        for size in range(len(types) + 1):
            for subset in itertools.combinations(range(len(types)), size):
                assert_build_up(f.family, types, subset)
                assert_build_up(f.family, types, rng.sample(subset, size))


@pytest.mark.parametrize("name", ["mixed", "mixed_chain"])
def test_mixed_intersection_greedy_and_rank_equal_brute_force(name):
    # members of other kinds step a tuple of their states (the build-ups are checked
    # by test_stepper_agrees_with_is_independent_on_every_build_up)
    family = families()[name]
    independent = functools.partial(reference_independent, family)
    types = [*sorted(family.ground), *OUTSIDE]
    assert isinstance(family._stepper(types)[0], tuple)
    for order in itertools.permutations(types):
        chosen = []
        for t in order:
            if independent([*chosen, t]):
                chosen.append(t)
        assert greedy_select(family, order) == tuple(chosen), order
    for s in powerset(types):
        assert max_rank(family, s) == brute_max_weight_independent(independent, s), s


def test_count_stepper_keeps_a_loop_of_an_earlier_member():
    # b is outside the first member's ground but inside the second's: still a loop
    # (IntersectionFamily refuses unequal grounds, so this builds the stepper itself)
    members = [PartitionMatroid({"a": 0}, {0: 1}),
               PartitionMatroid({"a": 0, "b": 1}, {0: 1, 1: 1})]
    for order in (members, members[::-1]):
        initial, step = _count_stepper(order, ["a", "b"])
        assert step(initial, 1) is None
        assert step(initial, 0) is not None
        assert step(step(initial, 0), 1) is None


def weight_cases(ground, rng):
    """Int, Fraction and float weights, a zero among them and one type left out."""
    kept = list(ground)[1:]
    return [
        {t: rng.randint(0, 4) for t in kept},
        {t: Fraction(rng.randint(0, 9), rng.randint(1, 4)) for t in kept},
        {t: rng.choice((0.0, 0.1, 0.25, 1 / 3, 2.5)) for t in kept},
    ]


@pytest.mark.parametrize("name", list(families()))
def test_compiled_rank_equals_brute_force(name):
    family = families()[name]
    independent = functools.partial(reference_independent, family)
    types = [*sorted(family.ground), *OUTSIDE]
    for weights in weight_cases(family.ground, random.Random(name)):
        f = WeightedRankValuation(family, weights)
        masks, value = f._compiled(types)
        for s in powerset(types):
            got = value(union(masks[t] for t in s))
            want = brute_max_weight_independent(independent, s, weights)
            assert same(got, f(s)), s  # compiled over s alone: the same sums in order
            if any(isinstance(w, float) for w in weights.values()):
                assert math.isclose(got, want, rel_tol=1e-12), (name, s)
            else:
                assert (got, type(got) is Fraction) == (want, type(want) is Fraction), s


def test_compiled_rank_of_random_families():
    for f in random_families(range(40)):
        types = sorted(f.family.ground)
        masks, value = f._compiled(types)
        independent = functools.partial(reference_independent, f.family)
        for s in powerset(types):
            want = brute_max_weight_independent(independent, s, f.weights)
            assert value(union(masks[t] for t in s)) == want


def test_compiled_coverage_equals_the_references():
    rng = random.Random(5)
    types = [f"t{i}" for i in range(6)]
    for trial in range(60):
        cover = {t: frozenset(rng.sample(range(7), rng.randint(0, 3))) for t in types[:5]}
        part_of = {t: f"p{rng.randrange(4)}" for t in types[:5]}
        draw = (rng.random, lambda: Fraction(rng.randint(0, 8), 3))[trial % 2]
        part_weight = {f"p{i}": draw() for i in rng.sample(range(4), 4)}
        for f, reference in (
            (coverage_valuation(cover), lambda s: reference_coverage(cover, s)[0]),
            (partition_weighted_valuation(part_of, part_weight),
             lambda s: reference_partition_weighted(part_of, part_weight, s)[0]),
        ):
            masks, value = f._compiled(types)
            for s in powerset(types):
                assert same(value(union(masks[t] for t in s)), reference(s)), s


def float_variant(inst):
    """``inst``'s distribution with float probabilities."""
    return TypeDistribution({e: {t: float(p) for t, p in row.items()}
                             for e, row in inst.dist.probs.items()})


def test_stepped_greedy_equals_joint_enumeration():
    params = RandomInstanceParams(max_elements=4, max_types=2, valuation_kinds=(
        "matroid_intersection_rank", "matching_rank"))
    for seed in range(30):
        inst = gen_random_instance(seed, params)
        args = (inst.tree, inst.family, inst.universe)
        got = greedy_interleaved_exact(*args, inst.dist)
        assert got.value == brute_greedy_interleaved(*args, inst.dist)
        assert got.trace["online_value"] == brute_greedy_interleaved(
            *args, inst.dist, online=True)
        approx = greedy_interleaved_exact(*args, float_variant(inst)).value
        assert math.isclose(approx, got.value, rel_tol=1e-9)


def test_rank_cap_refuses_through_the_evaluators():
    edges = {f"e{i}": (f"u{2 * i}", f"u{2 * i + 1}") for i in range(21)}
    f = WeightedRankValuation(MatchingFamily(edges), dict.fromkeys(edges, 1))
    universe = universe_from_type_space({f"x{i}": (f"e{i}",) for i in range(21)})
    dist = TypeDistribution({f"x{i}": {f"e{i}": 1} for i in range(21)})
    tree = chain_tree(universe, universe.elements)
    for evaluate in (adap_exact, alg_exact):
        with pytest.raises(ExactCapExceeded, match="21 candidates exceed the cap of 20"):
            evaluate(tree, f, universe, dist)


def reference_combine(observed, deco, choice, family):
    """The combiner by subset enumeration: per selected class, the independent
    extension of the largest size that, candidate by candidate in name order,
    takes the earlier ones first (the branch-and-bound's first best)."""
    chosen = frozenset()
    for _, j in choice.selected:
        cand = sorted(observed & deco.class_types[j] & family.ground)
        ext = [s for s in powerset(cand) if reference_independent(family, chosen | s)]
        chosen |= max(ext, key=lambda s: (len(s), [t in s for t in cand]))
    return chosen


@pytest.mark.parametrize("name", ["partition", "matching", "partitions", "mixed", "explicit"])
def test_combiner_equals_subset_enumeration(name):
    family = families()[name]
    rng = random.Random(name)
    for _ in range(60):
        weights = {t: rng.choice((1, 2, 3, 8, 16, 64)) for t in family.ground}
        deco = class_decompose(weights, family)
        scaled = {j: rng.random() for j in deco.class_types}
        choice = select_representatives(scaled, bucketize(deco.hi, deco.lo, 2))
        for observed in powerset([*family.ground, *OUTSIDE]):
            assert greedy_optimal_combine(observed, deco, choice, family) == reference_combine(
                observed, deco, choice, family), (weights, sorted(observed))


def reference_checks(f, items):
    """``check_submodular`` and ``check_monotone`` on values from ``f`` one set at a
    time, compared with ``VALUE_TOL`` as they are."""
    sub = [frozenset(t for i, t in enumerate(items) if m >> i & 1) for m in range(1 << len(items))]
    v = [f(s) for s in sub]
    full = range(1 << len(items))
    submodular = next(((sub[a], sub[b]) for a in full for b in range(a, len(sub))
                       if v[a | b] + v[a & b] > v[a] + v[b] + VALUE_TOL), None)
    monotone = next(((sub[m & ~(1 << i)], sub[m]) for m in full for i in range(len(items))
                     if m >> i & 1 and v[m & ~(1 << i)] > v[m] + VALUE_TOL), None)
    return (submodular is None, submodular), (monotone is None, monotone)


@pytest.mark.parametrize("scale, delta", [
    (1, 1), (1, 0), (Fraction(1, 3), Fraction(1, 1 << 28)), (Fraction(1, 3), Fraction(1, 1 << 31)),
    (1 << 60, 1), (1 << 19, 1), (1 << 21, 1), (0.5, 1e-10), (0.5, 1e-8), (Fraction(1, 7), 1e-12),
])
def test_verifier_tables_keep_the_verdicts_and_witnesses(scale, delta):
    # a coverage's values scaled, one entry moved by delta: the int route must give
    # the verdict and witness of comparing the values themselves
    rng = random.Random(repr((scale, delta)))
    items = ["a", "b", "c", "d"]
    for _ in range(20):
        cover = coverage_valuation({t: set(rng.sample(range(5), 2)) for t in items})
        table = {s: cover(s) * scale for s in powerset(items)}
        moved = frozenset(rng.sample(items, rng.randint(1, 4)))
        table[moved] = table[moved] + rng.choice((delta, -delta))
        f = ExplicitValuation(items, table)
        assert (check_submodular(f, items), check_monotone(f, items)) == reference_checks(f, items)
