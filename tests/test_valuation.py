"""Valuations: weighted rank, coverage, partition weights, explicit tables."""

import functools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from smplab import (
    ExactCapExceeded,
    IntersectionFamily,
    MatchingFamily,
    PartitionMatroid,
    PathChainFamily,
    ValidationError,
    WeightedRankValuation,
    check_submodular,
    coverage_valuation,
    make_uniform_matroid,
    partition_weighted_valuation,
)
from smplab.valuation import ExplicitValuation, ValuationFunction, WeightedCoverageValuation
from oracles import (
    brute_max_matching,
    brute_max_weight_independent,
    powerset,
    reference_coverage,
    reference_partition_weighted,
)


def _random_path_chain(rng, types):
    """A path-chain family on a random rooted tree, and a reference oracle
    that tests every pair of lower endpoints for ancestry."""
    parent = {}
    edges = {}
    for i, t in enumerate(types):
        u = rng.choice(["r"] + [f"v{j}" for j in range(i)])
        parent[f"v{i}"] = u
        edges[t] = (u, f"v{i}")

    def up(v):
        line = {v}
        while v in parent:
            v = parent[v]
            line.add(v)
        return line

    def is_chain(sub):
        lows = [edges[t][1] for t in sub]
        return all(a in up(b) or b in up(a) for a in lows for b in lows)

    return PathChainFamily(edges, "r"), is_chain


class TestWeightedRank:
    def test_empty(self):
        fam = make_uniform_matroid(["t1", "t2"], 1)
        f = WeightedRankValuation(fam, {"t1": 3, "t2": 5})
        assert f(set()) == 0

    def test_rank_one_picks_heaviest(self):
        fam = make_uniform_matroid(["t1", "t2"], 1)
        f = WeightedRankValuation(fam, {"t1": 3, "t2": 5})
        assert f({"t1", "t2"}) == 5

    def test_path_matching_unit_weights(self):
        edges = {"ab": ("a", "b"), "bc": ("b", "c"), "cd": ("c", "d")}
        fam = MatchingFamily(edges)
        f = WeightedRankValuation(fam, {t: 1 for t in edges})
        assert f(set(edges)) == 2 == brute_max_matching(edges, set(edges))

    def test_matches_brute_force_on_random_families(self):
        rng = random.Random(11)
        for trial in range(50):
            types = [f"t{i}" for i in range(6)]
            is_independent = None
            if trial >= 30:
                fam, is_independent = _random_path_chain(rng, types)
            elif trial % 2:
                fam = MatchingFamily(
                    {t: tuple(rng.sample("uvwxy", 2)) for t in types}
                )
            else:
                members = [
                    PartitionMatroid(
                        {t: f"p{rng.randrange(3)}" for t in types},
                        {f"p{i}": rng.randint(1, 2) for i in range(3)},
                    )
                    for _ in range(rng.randint(1, 2))
                ]
                fam = IntersectionFamily(members)
            weights = {t: rng.randint(0, 6) for t in types}
            f = WeightedRankValuation(fam, weights)
            for _ in range(8):
                sub = frozenset(rng.sample(types, rng.randint(0, 6)))
                assert f(sub) == brute_max_weight_independent(
                    is_independent or fam.is_independent, sub, weights
                )

    def test_path_chain_rank_is_the_whole_path(self):
        # one root-leaf path: every subset is independent, so the rank is the
        # total weight, with no cap on the candidate count
        edges = {f"e{i}": (f"v{i}", f"v{i + 1}") for i in range(24)}
        weights = {t: Fraction(i + 1, 7) for i, t in enumerate(edges)}
        f = WeightedRankValuation(PathChainFamily(edges, "v0"), weights)
        assert f(set(edges)) == sum(weights.values())

    def test_subadditive_on_small_cases(self):
        edges = {"ab": ("a", "b"), "bc": ("b", "c"), "cd": ("c", "d")}
        fam = MatchingFamily(edges)
        f = WeightedRankValuation(fam, {"ab": 2, "bc": 3, "cd": 1})
        ground = list(edges)
        for a in powerset(ground):
            for b in powerset(ground):
                assert f(a | b) <= f(a) + f(b)

    def test_rank_cap_on_non_matroid(self):
        edges = {f"e{i}": (f"u{2*i}", f"u{2*i+1}") for i in range(21)}
        fam = MatchingFamily(edges)
        f = WeightedRankValuation(fam, {t: 1 for t in edges})
        with pytest.raises(ExactCapExceeded):
            f(set(edges))

    def test_negative_weight_rejected(self):
        fam = make_uniform_matroid(["t"], 1)
        with pytest.raises(Exception):
            WeightedRankValuation(fam, {"t": -1})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, bad):
        fam = make_uniform_matroid(["t"], 1)
        with pytest.raises(ValidationError, match="weight of type 't'.*not a finite"):
            WeightedRankValuation(fam, {"t": bad})


class TestCoverage:
    def test_empty(self):
        assert coverage_valuation({})(set()) == 0

    def test_disjoint_additive(self):
        f = coverage_valuation({"x": {1, 2}, "y": {3, 4, 5}})
        assert f({"x", "y"}) == 5

    def test_overlap(self):
        f = coverage_valuation({"x": {1, 2}, "y": {2, 3}})
        assert f({"x", "y"}) == 3

    def test_submodular_exhaustively(self):
        rng = random.Random(2)
        cover = {f"t{i}": set(rng.sample(range(7), rng.randint(0, 4))) for i in range(7)}
        ok, witness = check_submodular(coverage_valuation(cover), list(cover))
        assert ok, witness


class TestPartitionWeighted:
    def test_empty(self):
        f = partition_weighted_valuation({}, {})
        assert f(set()) == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_part_weight_rejected(self, bad):
        with pytest.raises(ValidationError, match="weight of part 'p'.*not a finite"):
            partition_weighted_valuation({"t": "p"}, {"p": bad})

    def test_one_value_per_part(self):
        f = partition_weighted_valuation({"t1": "p", "t2": "p"}, {"p": 0.9})
        assert f({"t1", "t2"}) == 0.9

    def test_geometric_part_weights(self):
        # two parts weighted 1 and (1 - eps) at eps = 1/2
        eps = Fraction(1, 2)
        f = partition_weighted_valuation(
            {"t0": "p0", "t1": "p1"}, {"p0": 1, "p1": 1 - eps}
        )
        assert f({"t0", "t1"}) == Fraction(3, 2)

    def test_submodular_exhaustively(self):
        f = partition_weighted_valuation(
            {"a": "p0", "b": "p0", "c": "p1", "d": "p2"},
            {"p0": 1, "p1": 0.5, "p2": 0.25},
        )
        ok, witness = check_submodular(f, ["a", "b", "c", "d"])
        assert ok, witness


class TestWeightedCoverage:
    def test_both_kinds_match_their_reference_valuations(self):
        # float part weights in shuffled declaration order: equal values need
        # the same summation order, not just the same parts
        rng = random.Random(12)
        types = [f"t{i}" for i in range(8)]
        draws = (rng.random, lambda: Fraction(rng.randint(0, 8), 4), lambda: rng.randint(0, 5))
        for trial in range(300):
            cover = {t: frozenset(rng.sample(range(8), rng.randint(0, 4)))
                     for t in types if rng.random() < 0.9}
            part_of = {t: f"p{rng.randrange(5)}" for t in types if rng.random() < 0.8}
            draw = draws[trial % 3]
            part_weight = {f"p{i}": draw() for i in rng.sample(range(6), 6)}
            cov = coverage_valuation(cover)
            part = partition_weighted_valuation(part_of, part_weight)
            for _ in range(10):
                s = frozenset(rng.sample(types, rng.randint(0, 8)))
                for f, (value, reach) in (
                    (cov, reference_coverage(cover, s)),
                    (part, reference_partition_weighted(part_of, part_weight, s)),
                ):
                    assert (type(f(s)), f(s)) == (type(value), value)
                    assert reach_of(f, s) == reach

    def test_kind_is_one_of_the_two_file_kinds(self):
        with pytest.raises(ValidationError, match="unknown weighted coverage kind 'matroid'"):
            WeightedCoverageValuation({"t": {"x"}}, {"x": 1}, "matroid")

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: WeightedCoverageValuation({"t": {"x"}}, {}, "coverage"),
             r"items without a weight: \['x'\]"),
            (lambda: partition_weighted_valuation({"t": "p", "u": "q"}, {"p": 1}),
             r"parts without a weight: \['q'\]"),
            (lambda: partition_weighted_valuation({"t": "p"}, {"p": Fraction(-1, 2)}),
             "part 'p' has negative weight"),
        ],
    )
    def test_every_reached_item_has_a_non_negative_weight(self, make, message):
        with pytest.raises(ValidationError, match=message):
            make()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_explicit_table_value_rejected(bad):
    with pytest.raises(ValidationError, match=r"table value for \['t'\].*not a finite"):
        ExplicitValuation(frozenset({"t"}), {frozenset(): 0, frozenset({"t"}): bad})


def test_nonzero_empty_set_value_rejected():
    # adap_exact's root decomposition assumes f(empty) = 0; path sums do not
    table = {frozenset(): 1, frozenset({"a1"}): 2, frozenset({"a2"}): 3}
    with pytest.raises(ValidationError, match=r"table value for \[\] must be 0, got 1"):
        ExplicitValuation(frozenset({"a1", "a2"}), table)
    zero = ExplicitValuation(frozenset({"a1"}), {frozenset(): Fraction(0), frozenset({"a1"}): 2})
    assert zero(frozenset()) == 0


def test_explicit_table_names_a_missing_entry():
    f = ExplicitValuation(frozenset({"a1", "a2"}), {frozenset({"a1"}): 2})
    assert (f([]), f(["a1", "a1"])) == (0, 2)
    with pytest.raises(ValidationError, match=r"explicit valuation has no entry for \['a1', 'a2'\]"):
        f(["a2", "a1"])


def test_a_valuation_without_a_compiled_form_refuses_to_be_called():
    class Bare(ValuationFunction):
        pass

    with pytest.raises(NotImplementedError):
        Bare()({"a"})


def test_monotone_on_a_thousand_seeded_pairs():
    rng = random.Random(31)
    types = [f"t{i}" for i in range(12)]
    valuations = [
        coverage_valuation(
            {t: set(rng.sample(range(10), rng.randint(0, 5))) for t in types}
        ),
        partition_weighted_valuation(
            {t: f"p{rng.randrange(5)}" for t in types if rng.random() < 0.8},
            {f"p{i}": Fraction(rng.randint(1, 8), 4) for i in range(5)},
        ),
        WeightedRankValuation(
            MatchingFamily({t: tuple(rng.sample("uvwxyz", 2)) for t in types}),
            {t: rng.randint(0, 5) for t in types},
        ),
    ]
    for _ in range(1000):
        f = rng.choice(valuations)
        big = frozenset(rng.sample(types, rng.randint(0, 12)))
        small = frozenset(t for t in big if rng.random() < 0.6)
        assert f(small) <= f(big)


@settings(max_examples=150)
@given(data=st.data())
def test_monotone_on_random_pairs(data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    kind = data.draw(st.sampled_from(["coverage", "partition", "rank"]))
    types = [f"t{i}" for i in range(8)]
    if kind == "coverage":
        f = coverage_valuation(
            {t: set(rng.sample(range(9), rng.randint(0, 4))) for t in types}
        )
    elif kind == "partition":
        f = partition_weighted_valuation(
            {t: f"p{rng.randrange(4)}" for t in types if rng.random() < 0.8},
            {f"p{i}": rng.randint(1, 8) / 4 for i in range(4)},
        )
    else:
        f = WeightedRankValuation(
            MatchingFamily({t: tuple(rng.sample("uvwxyz", 2)) for t in types}),
            {t: rng.randint(0, 5) for t in types},
        )
    small = frozenset(data.draw(st.sets(st.sampled_from(types))))
    extra = frozenset(data.draw(st.sets(st.sampled_from(types))))
    assert f(small) <= f(small | extra)


def reach_of(f, types):
    """The items that the compiled masks of ``types`` name, by their place in ``weight``."""
    masks, _ = f._compiled(types)
    union = functools.reduce(operator.or_, masks.values(), 0)
    return frozenset(x for i, x in enumerate(f.weight) if union >> i & 1)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reach_decides_the_marginals_below(data):
    # adap_exact keys a subtree's value on reach(fixed) & reach(types below),
    # the union of the compiled masks:
    # fixed sets that agree there must have equal marginals on every X below
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    types = [f"t{i}" for i in range(5)]
    if data.draw(st.booleans()):
        f = coverage_valuation(
            {t: set(rng.sample(range(6), rng.randint(0, 3))) for t in types}
        )
    else:
        f = partition_weighted_valuation(
            {t: f"p{rng.randrange(4)}" for t in types if rng.random() < 0.8},
            {f"p{i}": Fraction(rng.randint(1, 8), 4) for i in range(4)},
        )
    below = frozenset(data.draw(st.sets(st.sampled_from(types))))
    a = frozenset(data.draw(st.sets(st.sampled_from(types))))
    assert f.masks_reach
    assert reach_of(f, a | below) == reach_of(f, a) | reach_of(f, below)
    marginals = {}
    for fixed in powerset(types):
        key = reach_of(f, fixed) & reach_of(f, below)
        got = [f(fixed | x) - f(fixed) for x in powerset(below)]
        assert marginals.setdefault(key, got) == got, (sorted(fixed), sorted(below))


def test_reach_defaults_to_unknown():
    # masks that are not reach: adap_exact keys no subtree on them
    fam = make_uniform_matroid(["t1", "t2"], 1)
    assert not WeightedRankValuation(fam, {"t1": 1, "t2": 1}).masks_reach
    assert not ValuationFunction().masks_reach
