"""The exact kernels' two routes: sums in int numerators when every probability
of a row is an int or a Fraction, and Scalar sums in arc or draw order when a
probability or a value is a float."""

import collections
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import pytest

import smplab.evaluate

from smplab import (
    CardinalityConstraint,
    ExactCapExceeded,
    RandomInstanceParams,
    TypeDistribution,
    ValidationError,
    adap_exact,
    alg_exact,
    best_nonadaptive_exact,
    chain_tree,
    combined_value,
    coverage_valuation,
    gen_random_instance,
    gen_submodular_lb,
    gen_tree_lb,
    greedy_interleaved_exact,
    make_uniform_matroid,
    submodular_lb_alg_opt,
    universe_from_type_space,
)
from smplab.evaluate import _Prepared, _WorkMeter, _draw_sums, _probed_sets, _scalar, _walk
from smplab.evaluate import _coverage_hits, _coverage_product, _coverage_walk, _walk_values
from smplab.evaluate import _weighted_sum
from smplab.families import _union
from smplab.strategy import _feasible_sequences
from smplab.valuation import WeightedCoverageValuation, WeightedRankValuation
from oracles import (
    brute_adap,
    brute_alg,
    brute_best_nonadaptive,
    brute_combined,
    brute_greedy_interleaved,
    zero_first_types,
)

RANK_KINDS = ("matroid_intersection_rank", "matching_rank")


def sure_rows(dist, elements):
    """``dist`` with each of ``elements`` sure of its first type, in ints."""
    return TypeDistribution({
        e: {t: int(t == next(iter(row))) for t in row} if e in elements else row
        for e, row in dist.probs.items()
    })


def routes(inst):
    """The instance's Fraction rows; int rows on every other element but the
    root's, which keeps its Fractions; and int rows only."""
    elements = inst.universe.elements
    mixed = [e for e in elements[1::2] if e != inst.tree.element]
    return [inst.dist, sure_rows(inst.dist, mixed), sure_rows(inst.dist, elements)]


def instances(seeds, **params):
    made = [gen_random_instance(s, RandomInstanceParams(max_elements=4, **params))
            for s in seeds]
    return [inst for inst in made if not inst.tree.is_leaf]


def assert_same(got, want):
    # an all-int computation stays an int, as it does in Fractions
    assert got == want and type(got) is type(want), (got, want)


class TestRationalRouteAgainstBruteForce:
    def test_adap_alg_and_best_nonadaptive(self):
        # coverage, partition-weighted (weights over 4) and rank valuations
        for inst in instances(range(60), max_types=3):
            for dist in routes(inst):
                args = (inst.tree, inst.valuation, inst.universe, dist)
                assert_same(adap_exact(*args).value, brute_adap(*args))
                assert_same(alg_exact(*args).value, brute_alg(*args))
                search = (inst.universe, dist, inst.valuation, inst.constraint, 3)
                got, want = best_nonadaptive_exact(*search), brute_best_nonadaptive(*search)
                assert got[0] == want[0]
                assert_same(got[1], want[1])

    def test_greedy_value_and_online_value(self):
        for inst in instances(range(30), max_types=2, valuation_kinds=RANK_KINDS):
            for dist in routes(inst):
                args = (inst.tree, inst.family, inst.universe, dist)
                rep = greedy_interleaved_exact(*args)
                assert_same(rep.value, brute_greedy_interleaved(*args))
                online = brute_greedy_interleaved(*args, online=True)
                assert_same(rep.trace["online_value"], online)

    @pytest.mark.parametrize("scale_weights", [1, Fraction(1, 4)], ids=["int", "fraction"])
    def test_combined_value(self, scale_weights):
        params = dict(max_types=2, valuation_kinds=RANK_KINDS, k_extendible=2, weight_high=64)
        for inst in instances(range(16), **params):
            weights = {t: w * scale_weights for t, w in inst.weights.items()}
            for dist in routes(inst):
                args = (inst.tree, weights, inst.family, 2, inst.universe, dist)
                assert_same(combined_value(*args).value, brute_combined(*args))


def _floated(dist):
    return TypeDistribution({e: {t: float(p) for t, p in row.items()}
                             for e, row in dist.probs.items()})


def _odd_rows_floated(dist):
    return TypeDistribution({e: {t: float(p) for t, p in row.items()} if i % 2 else row
                             for i, (e, row) in enumerate(dist.probs.items())})


def _float_results():
    """Float results that must not move by an ulp, by instance and evaluator."""
    tri = gen_submodular_lb(0.25)
    uniform = make_uniform_matroid(sorted(tri.universe.all_types), 2)
    greedy = greedy_interleaved_exact(tri.tree, uniform, tri.universe, tri.dist)
    # the eps = 1/4 triangle's 1024 probed sets take seconds in floats; 1/3 has the same shape
    tri3 = gen_submodular_lb(1 / 3.)
    yield "tri adap", adap_exact(tri.tree, tri.valuation, tri.universe, tri.dist).value
    yield "tri greedy", greedy.value
    yield "tri greedy online", greedy.trace["online_value"]
    yield "tri3 alg", alg_exact(tri3.tree, tri3.valuation, tri3.universe, tri3.dist).value
    tree = gen_tree_lb(3, 2, 1 / 3.)
    args = (tree.tree, tree.valuation, tree.universe, tree.dist)
    greedy = greedy_interleaved_exact(tree.tree, tree.family, tree.universe, tree.dist)
    yield "tree adap", adap_exact(*args).value
    yield "tree alg", alg_exact(*args).value
    yield "tree greedy", greedy.value
    yield "tree greedy online", greedy.trace["online_value"]
    params = RandomInstanceParams(valuation_kinds=RANK_KINDS, k_extendible=2, weight_high=1024)
    inst = gen_random_instance(20, params)
    dist = _floated(inst.dist)
    args = (inst.tree, inst.valuation, inst.universe, dist)
    greedy = greedy_interleaved_exact(inst.tree, inst.family, inst.universe, dist)
    yield "random adap", adap_exact(*args).value
    yield "random alg", alg_exact(*args).value
    yield "random greedy", greedy.value
    yield "random greedy online", greedy.trace["online_value"]
    yield "random combined", combined_value(
        inst.tree, inst.weights, inst.family, 2, inst.universe, dist).value
    # Fraction probabilities, float weights: coverage values are ints (0) or floats
    inst = gen_random_instance(7, RandomInstanceParams(valuation_kinds=("coverage",)))
    items = sorted(inst.valuation.weight)
    f = WeightedCoverageValuation(inst.valuation.reach_of,
                                  {x: 0.1 * (1 + n) for n, x in enumerate(items)}, "coverage")
    yield "mixed adap", adap_exact(inst.tree, f, inst.universe, inst.dist).value
    yield "mixed alg", alg_exact(inst.tree, f, inst.universe, inst.dist).value
    yield "mixed best", best_nonadaptive_exact(
        inst.universe, inst.dist, f, inst.constraint, 3)[1]
    # Fraction probabilities, float weights: the classes are ints, the combined weight floats
    inst = gen_random_instance(20, params)
    weights = {t: 0.1 * w for t, w in inst.weights.items()}
    yield "mixed combined", combined_value(
        inst.tree, weights, inst.family, 2, inst.universe, inst.dist).value
    # float rows on every other element: the first probed set has one, the other three not
    inst = gen_random_instance(28, RandomInstanceParams())
    dist = _odd_rows_floated(inst.dist)
    yield "rows mixed alg", alg_exact(inst.tree, inst.valuation, inst.universe, dist).value
    yield "rows mixed best", best_nonadaptive_exact(
        inst.universe, dist, inst.valuation, inst.constraint, 3)[1]
    inst = gen_random_instance(32, RandomInstanceParams())
    yield "rows mixed combined", combined_value(
        inst.tree, inst.weights, inst.family, 2, inst.universe, _odd_rows_floated(inst.dist)).value


FLOAT_HEX = {
    "tri adap": "0x1.8f585a0000000p+0",
    "tri greedy": "0x1.0000000000000p+1",
    "tri greedy online": "0x1.a000000000000p+0",
    "tri3 alg": "0x1.e208a97f014a1p-1",
    "tree adap": "0x1.aaaaaaaaaaaacp+0",
    "tree alg": "0x1.5d68ffa619fcap+0",
    "tree greedy": "0x1.01f4daadb9fb0p+1",
    "tree greedy online": "0x1.358c399d45937p+0",
    "random adap": "0x1.a442128bd367ep+9",
    "random alg": "0x1.b20ab93b76f58p+9",
    "random greedy": "0x1.c070f5d449935p+0",
    "random greedy online": "0x1.29d6a30a8aae5p+0",
    "random combined": "0x1.7d4d7634b8a0cp+9",
    "mixed adap": "0x1.ac3514ff26befp-1",
    "mixed alg": "0x1.cf88198edcf4bp-1",
    "mixed best": "0x1.426c684fbc479p+0",
    "mixed combined": "0x1.dbdda69d76082p+5",
    "rows mixed alg": "0x1.9a45b6f9b0c4fp+1",
    "rows mixed best": "0x1.1f07c1f07c1f0p+2",
    "rows mixed combined": "0x1.26152832c6e04p+0",
}


def test_float_results_are_bit_identical():
    got = {name: value.hex() for name, value in _float_results()}
    assert got == FLOAT_HEX


def test_float_and_rational_rows_against_brute_force():
    # float rows on every other element: the sets with one list their draws, and the
    # grouped tables kept between the others must follow the orders all the same; the
    # greedy's nodes with a float row sum their children's int or pair entries
    for inst in instances(range(60), max_types=3):
        dist = _odd_rows_floated(inst.dist)
        args = (inst.tree, inst.valuation, inst.universe, dist)
        assert math.isclose(adap_exact(*args).value, brute_adap(*args), rel_tol=1e-12)
        assert math.isclose(alg_exact(*args).value, brute_alg(*args), rel_tol=1e-12)
        search = (inst.universe, dist, inst.valuation, inst.constraint, 4)
        got, want = best_nonadaptive_exact(*search), brute_best_nonadaptive(*search)
        assert math.isclose(got[1], want[1], rel_tol=1e-12)
        if inst.family is not None:
            args = (inst.tree, inst.family, inst.universe, dist)
            rep = greedy_interleaved_exact(*args)
            assert math.isclose(rep.value, brute_greedy_interleaved(*args), rel_tol=1e-12)
            online = brute_greedy_interleaved(*args, online=True)
            assert math.isclose(rep.trace["online_value"], online, rel_tol=1e-12)


def _listed_draws(order, form, rows):
    """The ``_draw_sums`` entry of a probed set of probability 1 by the lazy listing:
    every joint draw of ``order`` in ``iter_type_profiles`` order, valued at its own
    union of masks."""
    masks, f = form
    combos = itertools.product(*[rows[e][1].items() for e in order])
    draws = [(math.prod(w for _, w in combo), f(_union(masks[t] for t, _ in combo)), 0)
             for combo in combos]
    return _weighted_sum(draws, math.prod(rows[e][2] for e in order),
                         any(rows[e][3] for e in order))


@pytest.mark.parametrize("kinds", [{}, {"valuation_kinds": RANK_KINDS, "weight_high": 8},
                                   {"valuation_kinds": ("coverage",)}],
                         ids=["default", "rank", "coverage"])
def test_grouped_draw_sums_equal_the_lazy_listing(kinds):
    for seed in range(40):
        inst = gen_random_instance(seed, RandomInstanceParams(**kinds))
        for dist in routes(inst) if not inst.tree.is_leaf else [inst.dist]:
            prep = _Prepared(inst.tree, inst.universe, dist)
            orders = [order for order, _ in _probed_sets(prep, _WorkMeter())]
            form = prep.form(inst.valuation)
            grouped = list(_draw_sums([(order, 1) for order in orders], form, prep.rows))
            for order, got in zip(orders, grouped, strict=True):
                # Fraction-equal and of one type: an all-int set stays an int
                assert_same(_scalar(got), _scalar(_listed_draws(order, form, prep.rows)))


def _coverage_variants(inst):
    """``inst``'s valuation; with each item's weight over 3, as Fractions; and with every
    other item's weight a Fraction, so a value turns Fraction once it covers one."""
    f = inst.valuation
    thirds = {x: Fraction(w, 3) for x, w in f.weight.items()}
    mixed = {x: Fraction(w) if i % 2 else w for i, (x, w) in enumerate(f.weight.items())}
    return [f] + [WeightedCoverageValuation(f.reach_of, w, f.kind) for w in (thirds, mixed)]


def test_coverage_routes_equal_the_draw_routes():
    # alg's item DP against the probed sets' fresh draws, and best-na's product against
    # the draws of each set of at most 3 elements: Fraction-equal and of one type
    params = RandomInstanceParams(valuation_kinds=("coverage", "partition_weighted"))
    checked = 0
    for seed in range(200):
        inst = gen_random_instance(seed, params)
        trees = [inst.tree, chain_tree(inst.universe, inst.universe.elements)]
        dists = [*routes(inst), zero_first_types(inst.dist)]
        orders = [c for r in range(4) for c in itertools.combinations(inst.universe.elements, r)]
        for dist, f in itertools.product(dists, _coverage_variants(inst)):
            for tree in trees[: 1 + seed % 2]:  # a chain DAG on odd seeds
                prep = _Prepared(tree, inst.universe, dist)
                hits = _coverage_hits(prep, f)
                draws = _walk_values(_probed_sets(prep, _WorkMeter()), [prep.form(f)], prep.rows)
                assert_same(_coverage_walk(prep, f, hits), draws[0])
            prep = _Prepared(None, inst.universe, dist)
            hits, form = _coverage_hits(prep, f), prep.form(f)
            for order, want in zip(orders, _draw_sums([(c, 1) for c in orders], form, prep.rows)):
                got = _coverage_product(order, f, hits, prep.rows, _WorkMeter())
                assert_same(got, _scalar(want))
            checked += 1
    assert checked > 1000


def test_coverage_routes_keep_floats_on_the_draw_routes():
    # a float row, a float weight or another valuation: no item route (a row whose
    # Fractions sum short of 1 is refused when it is built)
    inst = gen_random_instance(3, RandomInstanceParams(valuation_kinds=("coverage",)))
    prep = _Prepared(inst.tree, inst.universe, inst.dist)
    assert _coverage_hits(prep, inst.valuation) is not None
    f = inst.valuation
    floated = WeightedCoverageValuation(f.reach_of, {x: float(w) for x, w in f.weight.items()},
                                        f.kind)
    assert _coverage_hits(prep, floated) is None
    assert _coverage_hits(_Prepared(inst.tree, inst.universe, _odd_rows_floated(inst.dist)),
                          f) is None
    e = inst.tree.element
    row = inst.dist.probs[e]
    t = next(iter(row))
    with pytest.raises(ValidationError):
        TypeDistribution({**inst.dist.probs, e: {**row, t: row[t] - Fraction(1, 10**13)}})
    rank = gen_random_instance(0, RandomInstanceParams(valuation_kinds=RANK_KINDS))
    assert _coverage_hits(_Prepared(rank.tree, rank.universe, rank.dist), rank.valuation) is None


def test_coverage_walk_memory_on_the_triangle():
    # a node's table is dropped once its last parent has read it: at eps 1/10 keeping
    # every table peaks near 2.6 MB traced and this near 1.0 MB (at 1/20: 47 and 7.6 MB)
    bundle = gen_submodular_lb(Fraction(1, 10))
    tracemalloc.start()
    try:
        value = alg_exact(bundle.tree, bundle.valuation, bundle.universe, bundle.dist).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == submodular_lb_alg_opt(Fraction(1, 10))
    assert peak <= 1_500_000


def test_grouped_draw_sums_memory_on_a_long_chain():
    # one probed set of 14 two-type elements under a rank-5 uniform matroid: 2**14
    # distinct union masks; each set builds its own table, so only the last two tables
    # are live, where keeping one table per element of the order peaks near 3.7 MB
    space = {f"e{i:02d}": (f"e{i:02d}.a", f"e{i:02d}.b") for i in range(14)}
    universe = universe_from_type_space(space)
    dist = TypeDistribution({e: {a: Fraction(1, 3), b: Fraction(2, 3)}
                             for e, (a, b) in space.items()})
    f = WeightedRankValuation(make_uniform_matroid(universe.all_types, 5),
                              dict.fromkeys(universe.all_types, 1))
    tree = chain_tree(universe, universe.elements)
    tracemalloc.start()
    try:
        value = alg_exact(tree, f, universe, dist).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 5
    assert peak <= 3_000_000


_KERNELS = {
    "adap_exact": lambda b: adap_exact(b.tree, b.valuation, b.universe, b.dist),
    "alg_exact": lambda b: alg_exact(b.tree, b.valuation, b.universe, b.dist),
    "greedy_interleaved_exact": lambda b: greedy_interleaved_exact(
        b.tree, b.family, b.universe, b.dist),
}


def _refusal(kernel, bundle, cap):
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(smplab.evaluate, "WORK_CAP", cap)
            kernel(bundle)
    except ExactCapExceeded as refused:
        return str(refused)
    return None


#: The least work cap each kernel fits in on ``gen_tree_lb(k, w, 1/3)``, by (k, w).
LEAST_CAPS = {
    "adap_exact": {(2, 2): 30, (3, 2): 126, (3, 3): 1022},
    "alg_exact": {(2, 2): 60, (3, 2): 504, (3, 3): 9198},
    "greedy_interleaved_exact": {(2, 2): 88, (3, 2): 352, (3, 3): 1800},
}


@pytest.mark.parametrize("name", list(_KERNELS))
def test_both_routes_refuse_at_the_same_cap(name):
    kernel = _KERNELS[name]
    for (k, w), least in LEAST_CAPS[name].items():
        exact, approx = gen_tree_lb(k, w, Fraction(1, 3)), gen_tree_lb(k, w, 1 / 3.)
        lo, hi = 0, 1
        while _refusal(kernel, exact, hi) is not None:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:  # the least cap the exact copy fits in
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _refusal(kernel, exact, mid) is not None else (lo, mid)
        message = _refusal(kernel, exact, hi - 1)
        assert message is not None and f"work cap of {hi - 1}" in message
        assert _refusal(kernel, approx, hi - 1) == message
        assert _refusal(kernel, approx, hi) is None
        assert hi == least, (k, w)


def test_best_nonadaptive_memory_per_distinct_set(monkeypatch):
    # 20 one-type elements: every sequence that the search meets is a new set, and
    # the work cap ends it; the search keeps a bitmask and a first sequence per set.
    # Float rows keep the fresh-draw charges
    n, cap = 20, 50_000
    names = [f"e{i:02d}" for i in range(n)]
    universe = universe_from_type_space({e: (f"{e}.on",) for e in names})
    dist = TypeDistribution({e: {f"{e}.on": 1.0} for e in names})
    f = coverage_valuation({f"{e}.on": {e} for e in names})
    used = sets = 0
    for seq in _feasible_sequences(CardinalityConstraint(n), names, n):
        used += len(seq)  # a set of one-type elements has one draw arc per element
        if used > cap:
            break
        sets += 1
    monkeypatch.setattr(smplab.evaluate, "WORK_CAP", cap)
    tracemalloc.start()
    try:
        with pytest.raises(ExactCapExceeded, match=f"work cap of {cap}: fresh draws"):
            best_nonadaptive_exact(universe, dist, f, CardinalityConstraint(n), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sets > 3000
    assert peak / sets < 600  # bytes; a frozenset key and a draw order per set take over 1200


def _diamonds(levels: int, key, value, limit: int):
    """A recursion for ``_walk`` over a chain of ``levels`` diamonds: the node at
    each level has two arcs to the one node below, so a walk that never reuses
    a value expands level l 2**l times. It returns ``value`` at every node and
    counts its expansions, failing once they pass ``limit``."""
    expanded = collections.Counter()

    def expand(level: int):
        expanded[level] += 1
        assert expanded.total() <= limit, "expanded past the limit"
        for _ in range(2 if level < levels else 0):
            yield key(level + 1), (level + 1,)
        return value

    return expand, expanded


@pytest.mark.parametrize("value", [None, 0, False], ids=["None", "0", "False"])
def test_walk_reuses_every_value_once_per_key(value):
    # a memo that takes a stored None, 0 or False for a miss would expand 2**40 times
    expand, expanded = _diamonds(40, lambda level: level, value, limit=100)
    assert _walk(expand, 0) is value
    assert expanded == dict.fromkeys(range(41), 1)
    _walk(expand, 0)  # the memo lives for one walk
    assert expanded == dict.fromkeys(range(41), 2)


def test_walk_expands_a_none_key_every_time():
    expand, expanded = _diamonds(5, lambda level: None, 1, limit=100)
    assert _walk(expand, 0) == 1
    assert expanded == {level: 2**level for level in range(6)}


def test_walk_runs_deeper_than_the_recursion_limit():
    depth = 5 * sys.getrecursionlimit()

    def expand(level: int):
        if level == depth:
            return 0
        return 1 + (yield level + 1, (level + 1,))

    assert _walk(expand, 0) == depth
