"""Weighted-to-unweighted reduction: classes, buckets, combiner, bounds."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from smplab import (
    ExactCapExceeded,
    MatchingFamily,
    RandomInstanceParams,
    TypeDistribution,
    ValidationError,
    adap_exact,
    alg_exact,
    bucketize,
    chain_tree,
    class_decompose,
    combined_value,
    gen_random_instance,
    greedy_optimal_combine,
    make_uniform_matroid,
    max_rank,
    select_representatives,
    universe_from_type_space,
    weight_class,
)
from smplab import evaluate, reduction, strategy
from smplab.reduction import Bucket, bucket_width, two_power
from oracles import brute_combined


class TestWeightClass:
    @pytest.mark.parametrize(
        "weight,expected",
        [
            (5, 3),  # 4 < 5 <= 8
            (1, 0),
            (0.3, -1),  # 1/4 < 0.3 <= 1/2
            (4, 2),
            (8, 3),
            (1024, 10),
            (0.25, -2),
            (Fraction(1, 3), -1),
            (Fraction(1, 2), -1),
        ],
    )
    def test_examples(self, weight, expected):
        assert weight_class(weight) == expected

    def test_interval_reconstruction(self):
        rng = random.Random(0)
        for _ in range(300):
            w = rng.choice(
                [rng.randint(1, 1 << 12), rng.uniform(1e-3, 1e3), Fraction(rng.randint(1, 99), rng.randint(1, 99))]
            )
            j = weight_class(w)
            assert two_power(j - 1) < w <= two_power(j)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValidationError):
            weight_class(0)


class TestClassDecompose:
    def family(self):
        return MatchingFamily(
            {"ab": ("a", "b"), "bc": ("b", "c"), "cd": ("c", "d"), "de": ("d", "e")}
        )

    def test_partition_of_positive_weights(self):
        weights = {"ab": 5, "bc": 1, "cd": 0, "de": 6}
        deco = class_decompose(weights, self.family())
        assert deco.class_of == {"ab": 3, "bc": 0, "de": 3}
        assert deco.class_types[3] == {"ab", "de"}
        assert "cd" not in deco.class_of  # zero weight dropped
        assert (deco.lo, deco.hi) == (0, 3)

    def test_class_valuations_are_restricted_ranks(self):
        deco = class_decompose({"ab": 5, "bc": 1, "cd": 8}, self.family())
        f3 = deco.classes[3]
        assert f3({"ab", "cd"}) == 2
        assert f3({"ab", "bc"}) == 1  # bc is outside class 3

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValidationError):
            class_decompose({"ab": 0}, self.family())

    def test_class_intervals_reconstruct(self):
        rng = random.Random(17)
        for _ in range(50):
            weights = {t: rng.randint(1, 1 << 10) for t in self.family().ground}
            deco = class_decompose(weights, self.family())
            assert set(deco.class_of) == set(weights)  # all positive here
            for t, j in deco.class_of.items():
                assert two_power(j - 1) < weights[t] <= two_power(j)


class TestBucketize:
    def test_k4_spec_example(self):
        assert bucketize(7, 0, 4) == [Bucket(1, 4, 7), Bucket(2, 0, 3)]

    def test_k2_single_bucket(self):
        assert bucketize(1, 0, 2) == [Bucket(1, 0, 1)]

    def test_padded_single_class(self):
        assert bucketize(3, 3, 4) == [Bucket(1, 0, 3)]

    def test_k3_width_is_four(self):
        assert bucket_width(3) == 4
        assert bucketize(5, -3, 3) == [Bucket(1, 2, 5), Bucket(2, -2, 1), Bucket(3, -6, -3)]

    def test_k_below_two_rejected(self):
        with pytest.raises(ValidationError):
            bucketize(3, 0, 1)

    def test_buckets_partition_the_range(self):
        for k in (2, 3, 4, 5):
            for hi, lo in ((10, 0), (3, -5), (0, 0)):
                got = sorted(
                    j for b in bucketize(hi, lo, k) for j in b.classes() if lo <= j <= hi
                )
                assert got == list(range(lo, hi + 1))


class TestSelectRepresentatives:
    def test_single_bucket_takes_argmax_parity_odd(self):
        choice = select_representatives({0: 1.0, 1: 3.0}, bucketize(1, 0, 2))
        assert choice.parity == "odd"
        assert choice.by_bucket == {1: 1}
        assert choice.selected == ((1, 1),)

    def test_value_concentrated_in_even_bucket(self):
        buckets = bucketize(3, 0, 2)  # widths 2: buckets (2,3), (0,1)
        choice = select_representatives({3: 0.1, 1: 9.0}, buckets)
        assert choice.parity == "even"
        assert choice.selected == ((2, 1),)

    def test_tie_prefers_larger_class(self):
        choice = select_representatives({0: 2.0, 1: 2.0}, bucketize(1, 0, 2))
        assert choice.by_bucket == {1: 1}

    def test_uniform_values_keep_half_the_buckets(self):
        k = 2
        width = bucket_width(k)
        buckets = bucketize(7, 0, k)
        values = {j: 1.0 for j in range(8)}
        choice = select_representatives(values, buckets)
        kept = sum(values[j] for _, j in choice.selected)
        total = sum(values.values())
        assert kept >= total / (2 * width)

    def test_empty_buckets_skipped(self):
        buckets = bucketize(4, 0, 2)
        choice = select_representatives({4: 1.0, 0: 1.0}, buckets)
        assert set(choice.by_bucket) == {1, 3}

    def test_selected_sum_counting_bound(self):
        # kept scaled mass is at least the total over twice the bucket width
        rng = random.Random(23)
        for k in (2, 3, 4):
            width = bucket_width(k)
            for _ in range(50):
                hi = rng.randint(0, 10)
                lo = hi - rng.randint(0, 10)
                values = {
                    j: rng.random() for j in range(lo, hi + 1) if rng.random() < 0.8
                }
                if not values:
                    continue
                buckets = bucketize(hi, lo, k)
                choice = select_representatives(values, buckets)
                kept = sum(values[j] for _, j in choice.selected)
                assert kept >= sum(values.values()) / (2 * width) - 1e-12


class TestCombiner:
    def family(self):
        return MatchingFamily(
            {
                "ab": ("a", "b"),
                "cd": ("c", "d"),
                "bc": ("b", "c"),
                "ef": ("e", "f"),
            }
        )

    def deco(self, weights):
        return class_decompose(weights, self.family())

    def test_single_bucket_takes_class_maximum(self):
        weights = {"ab": 4, "cd": 4, "bc": 4, "ef": 4}
        deco = self.deco(weights)
        choice = select_representatives({2: 1.0}, bucketize(2, 2, 2))
        got = greedy_optimal_combine(
            frozenset(weights), deco, choice, self.family()
        )
        assert got == {"ab", "cd", "ef"}

    def test_disjoint_odd_buckets_add_up(self):
        # classes 3 and -2 sit in odd buckets 1 and 3 for k=2
        weights = {"ab": 8, "cd": 8, "ef": Fraction(1, 4)}
        deco = self.deco(weights)
        buckets = bucketize(3, -2, 2)
        choice = select_representatives({3: 5.0, -2: 1.0}, buckets)
        assert choice.selected == ((1, 3), (3, -2))
        got = greedy_optimal_combine(frozenset(weights), deco, choice, self.family())
        assert got == {"ab", "cd", "ef"}

    def test_even_parity_drops_odd_buckets(self):
        weights = {"ab": 8, "cd": 8, "ef": 1}
        deco = self.deco(weights)
        buckets = bucketize(3, 0, 2)
        choice = select_representatives({3: 1.0, 0: 9.0}, buckets)
        assert choice.parity == "even"
        got = greedy_optimal_combine(frozenset(weights), deco, choice, self.family())
        assert got == {"ef"}

    def test_higher_bucket_fixed_first_blocks_lower(self):
        quarter = Fraction(1, 4)
        weights = {"bc": 8, "ab": quarter, "cd": quarter, "ef": quarter}
        deco = self.deco(weights)
        buckets = bucketize(3, -2, 2)
        choice = select_representatives({3: 5.0, -2: 1.0}, buckets)
        got = greedy_optimal_combine(frozenset(weights), deco, choice, self.family())
        assert got == {"bc", "ef"}  # bc excludes both its neighbors

    def test_interference_bound_per_realization(self):
        # the combiner keeps at least |A_i| - k*|fixed| members per class
        rng = random.Random(8)
        fam = self.family()
        k = 2
        for _ in range(200):
            weights = {t: rng.choice((1, 2, 8, 16)) for t in fam.ground}
            deco = class_decompose(weights, fam)
            scaled = {j: float(two_power(j)) for j in deco.class_types}
            choice = select_representatives(scaled, bucketize(deco.hi, deco.lo, k))
            observed = frozenset(t for t in fam.ground if rng.random() < 0.7)
            fixed: frozenset = frozenset()
            for _, j in choice.selected:
                members = observed & deco.class_types[j]
                best_alone = deco.classes[j](members)
                picked = greedy_optimal_combine(members, deco, choice_only(j, choice), fam)
                # recompute the incremental pick against the running fixed set
                from smplab.families import _best_subset, _bits

                order = [*sorted(fixed), *sorted(members)]
                state, step = fam._stepper(order)
                for i in range(len(fixed)):
                    state = step(state, i)
                got = _best_subset(step, state, range(len(fixed), len(order)), [1] * len(order))[1]
                inc = frozenset(order[i] for i in _bits(got))
                assert len(inc) >= best_alone - k * len(fixed)
                assert fam.is_independent(fixed | inc)
                fixed |= inc

    def test_refuses_past_the_rank_cap_as_max_rank_does(self):
        edges = {f"e{i}": (f"u{2 * i}", f"u{2 * i + 1}") for i in range(21)}
        fam = MatchingFamily(edges)
        deco = class_decompose(dict.fromkeys(edges, 1), fam)
        choice = select_representatives({0: 1}, bucketize(deco.hi, deco.lo, 2))
        message = "21 candidates exceed the cap of 20"
        with pytest.raises(ExactCapExceeded, match=message):
            max_rank(fam, edges)
        with pytest.raises(ExactCapExceeded, match=message):
            greedy_optimal_combine(frozenset(edges), deco, choice, fam)

    def test_output_always_independent(self):
        rng = random.Random(13)
        fam = self.family()
        for _ in range(100):
            weights = {t: rng.randint(1, 1024) for t in fam.ground}
            deco = class_decompose(weights, fam)
            scaled = {j: rng.random() for j in deco.class_types}
            choice = select_representatives(scaled, bucketize(deco.hi, deco.lo, 2))
            observed = frozenset(t for t in fam.ground if rng.random() < 0.6)
            got = greedy_optimal_combine(observed, deco, choice, fam)
            assert fam.is_independent(got)
            assert got <= observed


def choice_only(j, choice):
    keep = tuple((i, jj) for i, jj in choice.selected if jj == j)
    from smplab.reduction import RepresentativeChoice

    return RepresentativeChoice(choice.parity, dict(keep), keep)


class TestCombinedValue:
    def weighted_instances(self, seeds, k):
        params = RandomInstanceParams(
            valuation_kinds=("matroid_intersection_rank", "matching_rank"),
            k_extendible=k,
            weight_high=1024,
        )
        return [gen_random_instance(s, params) for s in seeds]

    def test_selected_class_and_end_to_end_bounds(self):
        for k in (2, 3):
            for inst in self.weighted_instances(range(25), k):
                k_eff = inst.metadata["k"]
                rep = combined_value(
                    inst.tree, inst.weights, inst.family, k_eff, inst.universe, inst.dist
                )
                selected_sum = sum(
                    rep.trace["scaled_class_alg"][j] for _, j in rep.trace["selected"]
                )
                assert rep.value >= selected_sum / 4 - 1e-9
                adap = adap_exact(
                    inst.tree, inst.valuation, inst.universe, inst.dist
                ).value
                assert rep.value >= adap / (32 * k_eff * math.log2(k_eff)) - 1e-9

    @pytest.mark.parametrize("k", (2, 3))
    def test_matches_joint_enumeration_oracle(self, k):
        params = RandomInstanceParams(
            max_elements=4,
            max_types=2,
            valuation_kinds=("matroid_intersection_rank", "matching_rank"),
            k_extendible=k,
            weight_high=1024,
        )
        for seed in range(5):
            inst = gen_random_instance(seed, params)
            args = (inst.tree, inst.weights, inst.family, inst.metadata["k"],
                    inst.universe, inst.dist)
            assert combined_value(*args).value == brute_combined(*args)

    def test_upper_decomposition_and_per_class_bounds(self):
        for inst in self.weighted_instances(range(25, 40), 2):
            k = inst.metadata["k"]
            deco = class_decompose(inst.weights, inst.family)
            adap_total = adap_exact(
                inst.tree, inst.valuation, inst.universe, inst.dist
            ).value
            scaled_sum = 0
            for j, f_j in deco.classes.items():
                adap_j = adap_exact(inst.tree, f_j, inst.universe, inst.dist).value
                alg_j = alg_exact(inst.tree, f_j, inst.universe, inst.dist).value
                assert alg_j >= adap_j / (2 * k) - 1e-9
                scaled_sum += two_power(j) * adap_j
            assert adap_total <= scaled_sum + 1e-9

    def test_checks_the_tree_and_lists_its_paths_once(self, monkeypatch):
        # one prepared instance and one listing of its probed sets value every class
        # and the combination; before, each checked the tree and listed its paths
        # again (7 checks, 6 listings)
        calls = {"nodes": 0, "paths": 0}

        def counted(fn, key):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(evaluate, "_tree_nodes", counted(strategy._tree_nodes, "nodes"))
        monkeypatch.setattr(reduction, "_probed_sets", counted(evaluate._probed_sets, "paths"))
        for inst in self.weighted_instances(range(3), 2):
            assert len(class_decompose(inst.weights, inst.family).classes) == 5
            calls.update(nodes=0, paths=0)
            combined_value(inst.tree, inst.weights, inst.family, 2, inst.universe, inst.dist)
            assert calls == {"nodes": 1, "paths": 1}

    def test_memory_stays_flat_in_the_path_count(self):
        # 16384 virtual paths, all probing one 14-element set: the sums keep
        # one entry per distinct set; one entry per path would peak near 1.7 MB
        space = {f"e{i}": (f"e{i}.a", f"e{i}.b") for i in range(14)}
        universe = universe_from_type_space(space)
        dist = TypeDistribution({e: dict.fromkeys(ts, 0.5) for e, ts in space.items()})
        weights = {t: int(t == "e0.a") for t in universe.all_types}
        family = make_uniform_matroid(universe.all_types, 1)
        tree = chain_tree(universe, universe.elements)
        tracemalloc.start()
        try:
            rep = combined_value(tree, weights, family, 2, universe, dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.value == 0.5
        assert peak < 1_000_000

    def test_single_class_instance_collapses(self):
        # all weights in one class: the combiner is the class-restricted pick
        inst = self.weighted_instances([99], 2)[0]
        weights = {t: 8 for t in inst.family.ground}
        rep = combined_value(
            inst.tree, weights, inst.family, 2, inst.universe, inst.dist
        )
        assert list(rep.trace["class_alg"]) == [3]
        alg3 = rep.trace["class_alg"][3]
        assert rep.value == 8 * alg3
