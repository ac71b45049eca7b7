"""Verifiers: witnesses on planted failures, extension-witness construction."""

import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from smplab import (
    BudgetConstraint,
    CardinalityConstraint,
    ExplicitFamily,
    IntersectionFamily,
    MatchingFamily,
    NotKExtendibleError,
    PartitionMatroid,
    TableConstraint,
    TreeFanConstraint,
    ValidationError,
    check_downward_closed,
    check_encoding,
    check_k_extendible,
    check_prefix_closed,
    check_submodular,
    coverage_valuation,
    find_extension_witness,
    gen_prime_matroid_encoding,
    greedy_select,
    make_uniform_matroid,
    universe_from_type_space,
)
from smplab import verify
from smplab.valuation import ExplicitValuation
from oracles import (
    powerset,
    reference_chain,
    reference_check_encoding,
    reference_independent,
)


class TestCheckSubmodular:
    def test_cardinality_passes(self):
        f = coverage_valuation({t: {t} for t in "abc"})
        ok, witness = check_submodular(f, list("abc"))
        assert ok and witness is None

    def test_coverage_passes(self):
        f = coverage_valuation({"a": {1, 2}, "b": {2, 3}, "c": {4}})
        assert check_submodular(f, list("abc"))[0]

    def test_strictly_supermodular_table_fails_with_witness(self):
        table = {
            frozenset(): 0,
            frozenset({"a"}): 0,
            frozenset({"b"}): 0,
            frozenset({"a", "b"}): 2,
        }
        f = ExplicitValuation(frozenset("ab"), table)
        ok, witness = check_submodular(f, ["a", "b"])
        assert not ok
        a, b = witness
        assert a | b == {"a", "b"} and a & b == frozenset()

    def test_witness_refails_when_rechecked(self):
        table = {
            frozenset(): 0,
            frozenset({"a"}): 0,
            frozenset({"b"}): 0,
            frozenset({"a", "b"}): 2,
        }
        f = ExplicitValuation(frozenset("ab"), table)
        _, witness = check_submodular(f, ["a", "b"])
        a, b = witness
        assert f(a | b) + f(a & b) > f(a) + f(b)

    def test_ground_cap(self):
        f = coverage_valuation({f"t{i}": {i} for i in range(11)})
        with pytest.raises(ValidationError):
            check_submodular(f, [f"t{i}" for i in range(11)])


class TestCheckDownwardClosed:
    def test_matroid_passes(self):
        fam = PartitionMatroid({"a": "p", "b": "p", "c": "q"}, {"p": 1, "q": 1})
        assert check_downward_closed(fam, ["a", "b", "c"])[0]

    def test_missing_subset_detected(self):
        fam = ExplicitFamily(["a", "b"], [[], ["a", "b"]])
        ok, witness = check_downward_closed(fam, ["a", "b"])
        assert not ok
        sub, sup = witness
        assert sup == {"a", "b"} and len(sub) == 1

    def test_intersection_with_a_listed_member_answers_by_membership(self):
        # {a, b} is listed but {a} is not, so no order of stepping may decide {a, b}
        listed = ExplicitFamily("ab", ["", "b", "ab"])
        apart = PartitionMatroid({"a": 0, "b": 1}, {0: 1, 1: 1})
        for fam in (IntersectionFamily((listed, apart)), IntersectionFamily((apart, listed)),
                    IntersectionFamily((IntersectionFamily((listed,)), apart))):
            for s in powerset("ab"):
                for order in itertools.permutations(s):
                    assert fam.is_independent(order) == reference_independent(fam, s), order
            assert check_downward_closed(fam, ["a", "b"]) == (False, ({"a"}, {"a", "b"}))


class TestCheckPrefixClosed:
    def test_budget_passes(self):
        universe = universe_from_type_space({e: (f"{e}.x",) for e in "abc"})
        c = BudgetConstraint({e: 1 for e in "abc"}, 2)
        assert check_prefix_closed(c, universe, 3)[0]

    def test_table_violation(self):
        universe = universe_from_type_space({e: (f"{e}.x",) for e in "ab"})
        c = TableConstraint([("a", "b")])
        ok, witness = check_prefix_closed(c, universe, 2)
        assert not ok and witness == ("a", "b")

    def test_stepwise_check_steps_each_element_once(self):
        # 18 elements under a cardinality limit of 18 have 2**18 distinct
        # (set, length) pairs; one step per element visits none of them
        universe = universe_from_type_space({f"e{i}": (f"e{i}.x",) for i in range(18)})
        tracemalloc.start()
        try:
            got = check_prefix_closed(CardinalityConstraint(18), universe, 18)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == (True, None)
        assert peak < 1 << 20, f"peak {peak / 2**20:.1f} MB"

    @pytest.mark.parametrize(
        "constraint, named",
        [
            (BudgetConstraint({"a": 1}, 2), "no probing cost for element 'b'"),
            (TreeFanConstraint({"a": ("r", "v")}, "r"), "element 'b' is not an edge of the tree"),
        ],
        ids=["budget", "tree_fan"],
    )
    def test_stepwise_check_raises_on_a_missing_label(self, constraint, named):
        universe = universe_from_type_space({e: (f"{e}.x",) for e in "ab"})
        with pytest.raises(ValidationError, match=named):
            check_prefix_closed(constraint, universe, 2)


class TestCheckKExtendible:
    def test_matroid_is_one_extendible(self):
        fam = make_uniform_matroid(["a", "b", "c"], 2)
        assert check_k_extendible(fam, ["a", "b", "c"], 1)[0]

    def test_matching_is_two_extendible(self):
        fam = MatchingFamily(
            {"ab": ("a", "b"), "bc": ("b", "c"), "cd": ("c", "d")}
        )
        assert check_k_extendible(fam, ["ab", "bc", "cd"], 2)[0]

    def test_matching_not_one_extendible(self):
        fam = MatchingFamily(
            {"ab": ("a", "b"), "bc": ("b", "c"), "cd": ("c", "d")}
        )
        ok, witness = check_k_extendible(fam, ["ab", "bc", "cd"], 1)
        assert not ok
        small, big, e = witness
        # witness re-fails: no single removal admits e
        assert fam.is_independent(big) and fam.is_independent(small | {e})
        assert not any(
            fam.is_independent(big - {z} | {e}) for z in big - small
        ) and not fam.is_independent(big | {e})


class TestFindExtensionWitness:
    def path_family(self):
        return MatchingFamily(
            {"ab": ("a", "b"), "bc": ("b", "c"), "cd": ("c", "d")}
        )

    def test_empty_extension(self):
        fam = self.path_family()
        assert find_extension_witness(fam, 2, set(), {"ab", "cd"}, set()) == frozenset()

    def test_extension_inside_superset(self):
        fam = make_uniform_matroid(["a", "b", "c"], 2)
        z = find_extension_witness(fam, 1, {"a"}, {"a", "b"}, {"c"})
        assert len(z) <= 1
        assert fam.is_independent({"a", "b", "c"} - z)

    def test_path_matching_example(self):
        z = find_extension_witness(self.path_family(), 2, set(), {"ab", "cd"}, {"bc"})
        assert z == frozenset({"ab", "cd"})

    def test_not_extendible_raises_with_counterexample(self):
        with pytest.raises(NotKExtendibleError) as info:
            find_extension_witness(self.path_family(), 1, set(), {"ab", "cd"}, {"bc"})
        small, big, e = info.value.counterexample
        assert e == "bc" and big == {"ab", "cd"}

    def test_precondition_errors(self):
        fam = self.path_family()
        with pytest.raises(ValidationError):
            find_extension_witness(fam, 2, {"ab"}, {"cd"}, set())  # A not <= B
        with pytest.raises(ValidationError):
            find_extension_witness(fam, 2, set(), {"ab", "bc"}, set())  # B dependent
        with pytest.raises(ValidationError):
            find_extension_witness(fam, 2, {"ab"}, {"ab"}, {"bc"})  # A+E dependent

    def test_random_valid_tuples(self):
        rng = random.Random(21)
        checked = 0
        for _ in range(400):
            types = [f"t{i}" for i in range(rng.randint(4, 7))]
            if rng.random() < 0.5:
                k = 2
                fam = MatchingFamily(
                    {t: tuple(rng.sample("uvwxy", 2)) for t in types}
                )
            else:
                k = rng.randint(1, 3)
                fam = IntersectionFamily(
                    [
                        PartitionMatroid(
                            {t: f"p{rng.randrange(3)}" for t in types},
                            {f"p{i}": rng.randint(1, 2) for i in range(3)},
                        )
                        for _ in range(k)
                    ]
                )
            big = frozenset(greedy_select(fam, rng.sample(types, len(types))))
            small = frozenset(t for t in big if rng.random() < 0.5)
            ext = frozenset(
                greedy_select(fam, [t for t in types if rng.random() < 0.5])
            )
            grown = frozenset(small)
            extension = set()
            for t in sorted(ext - small):
                if fam.is_independent(grown | {t}):
                    grown = grown | {t}
                    extension.add(t)
            z = find_extension_witness(fam, k, small, big, extension)
            checked += 1
            assert z <= big - small
            assert len(z) <= k * len(extension)
            assert fam.is_independent(big - z | extension)
        assert checked == 400


class TestCheckEncoding:
    def test_passes_for_small_primes(self):
        for k in (2, 3):
            matroids, label_map = gen_prime_matroid_encoding(k)
            ok, witness = check_encoding(matroids, label_map, set_samples=2000)
            assert ok, witness

    def test_planted_corruption_is_caught(self):
        matroids, label_map = gen_prime_matroid_encoding(2)
        # move one deep edge into a colliding big partition of M[1,0]
        bad = dict(matroids[0].part_of)
        deep = [t for t, (lab, d) in label_map.items() if d == 2]
        root_like = [t for t, (lab, d) in label_map.items() if d == 1]
        bad[deep[0]] = matroids[0].part_of[
            next(t for t in root_like if label_map[t][0] == label_map[deep[0]][0][:1])
        ]
        corrupted = PartitionMatroid(bad, matroids[0].capacity)
        ok, witness = check_encoding([corrupted] + matroids[1:], label_map)
        assert not ok
        assert witness is not None

    def test_set_phase_catches_a_triple_every_pair_passes(self):
        # one more matroid caps a root path's three types at 2: each pair of them
        # stays independent, so only the sets see the fault
        matroids, label_map = gen_prime_matroid_encoding(3)
        triple = frozenset({"e0:on", "e0.0:on", "e0.0.0:on"})
        extra = PartitionMatroid({t: "path" if t in triple else t for t in label_map},
                                 {"path": 2} | {t: 1 for t in label_map if t not in triple})
        others = sorted(set(label_map) - triple)
        for size in (12, 13):  # every set, then 10,000 samples
            chosen = [*triple, *random.Random(0).sample(others, size - 3)]
            subset = {t: label_map[t] for t in chosen}
            for seed in (0, 1):
                args = ([*matroids, extra], subset)
                got = check_encoding(*args, set_samples=10_000, seed=seed)
                assert got == (False, triple)
                assert got == reference_check_encoding(*args, set_samples=10_000, seed=seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_capped_triple_is_caught_on_every_type(self, seed):
        # 10,000 sampled sets of all 39 types missed it at seeds 0-2; the chain rule does not
        matroids, label_map = gen_prime_matroid_encoding(3)
        triple = frozenset({"e0:on", "e0.0:on", "e0.0.0:on"})
        extra = PartitionMatroid({t: "path" if t in triple else t for t in label_map},
                                 {"path": 2} | {t: 1 for t in label_map if t not in triple})
        got = check_encoding([*matroids, extra], label_map, set_samples=10_000, seed=seed)
        assert got == (False, triple)

    def test_a_loop_no_pair_shows_is_caught(self):
        # three incomparable edges: every pair is rightly dependent, so only the set
        # {e0:on} shows that its part in the first matroid holds none
        matroids, label_map = gen_prime_matroid_encoding(3)
        subset = {t: label_map[t] for t in ("e0:on", "e1:on", "e2:on")}
        first = matroids[0]
        capacity = dict(first.capacity) | {first.part_of["e0:on"]: 0}
        bad = [PartitionMatroid(first.part_of, capacity), *matroids[1:]]
        assert check_encoding(bad, subset) == (False, frozenset({"e0:on"}))
        assert reference_check_encoding(bad, subset) == (False, frozenset({"e0:on"}))

    def test_memory_stays_flat_on_k5_subset(self):
        # oracles keep nothing between calls, and the 11175 pairs over 25
        # matroids are decided in blocks of bounded size
        matroids, label_map = gen_prime_matroid_encoding(5)
        chosen = random.Random(5).sample(sorted(label_map), 150)
        subset = {t: label_map[t] for t in chosen}
        tracemalloc.start()
        try:
            ok, witness = check_encoding(matroids, subset, set_samples=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ok, witness
        assert peak < 2 << 20, f"peak {peak / 2**20:.1f} MB"


def _encodings():
    for k in (2, 3):
        yield gen_prime_matroid_encoding(k)
    matroids, label_map = gen_prime_matroid_encoding(5)
    for seed in range(2):
        chosen = random.Random(seed).sample(sorted(label_map), 40)
        yield matroids, {t: label_map[t] for t in chosen}


def _mutate(matroids, label_map, how, rng):
    """One corruption of an encoding: a part id flipped, a capacity set to 0
    or 2, a type dropped from one or every ground, a label shared, or the parts
    of up to three types on one root path merged into one of capacity 2."""
    matroids = list(matroids)
    label_map = dict(label_map)
    types = sorted(label_map)
    t = rng.choice(types)
    hit = [rng.randrange(len(matroids))] if how != "drop_all" else range(len(matroids))
    for i in hit:
        part_of = dict(matroids[i].part_of)
        capacity = dict(matroids[i].capacity)
        if how == "flip":
            part_of[t] = rng.choice(sorted(capacity))
        elif how == "capacity":
            capacity[part_of[t]] = rng.choice((0, 2))
        elif how in ("drop_one", "drop_all"):
            del part_of[t]
        elif how == "merge":
            path = [u for u in types if reference_chain(label_map, (t, u))]
            merged = {part_of[u] for u in rng.sample(path, min(3, len(path)))}
            part_of = {u: "merged" if p in merged else p for u, p in part_of.items()}
            capacity["merged"] = 2
        matroids[i] = PartitionMatroid(part_of, capacity)
    if how == "same_label":
        label_map[t] = label_map[rng.choice(types)]
    return matroids, label_map


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except ValidationError as exc:
        return "ValidationError", str(exc)


def _assert_same_verdict(got, want, bad):
    """Equal verdicts (and equal errors), and a witness that is a real mismatch:
    independent and no chain, or the reverse. The witnesses may differ."""
    assert got[0] == want[0], (got, want)
    if got[0] == "ValidationError":
        assert got == want
    elif got[0] is False:
        witness = got[1]
        assert reference_independent(IntersectionFamily(bad[0]), witness) != reference_chain(
            bad[1], witness), witness


class TestCheckEncodingAgainstReference:
    @pytest.mark.parametrize("block", [verify.ENCODING_PAIR_BLOCK, 7])
    def test_mutated_encodings_match_the_pair_loop(self, monkeypatch, block):
        # a block of 7 cells decides one row per block, so the pair phase across
        # blocks is exercised too. The reference samples sets of these 40-type
        # grounds, so merged parts, which a set alone may show, are left to the
        # exhaustive battery below
        monkeypatch.setattr(verify, "ENCODING_PAIR_BLOCK", block)
        failed = Counter()
        for e, (matroids, label_map) in enumerate(_encodings()):
            for how in ("flip", "capacity", "drop_one", "drop_all", "same_label"):
                for seed in range(8):
                    bad = _mutate(matroids, label_map, how, random.Random(f"{e}-{how}-{seed}"))
                    got = _outcome(check_encoding, *bad, set_samples=200, seed=seed)
                    want = _outcome(reference_check_encoding, *bad, set_samples=200, seed=seed)
                    _assert_same_verdict(got, want, bad)
                    failed[how] += got[0] is False
        # "drop_one" leaves the grounds unequal, so both raise the same error;
        # every other corruption is sometimes caught
        assert all(failed[how] > 0 for how in ("flip", "capacity", "drop_all", "same_label"))

    def test_non_partition_member_rejected(self):
        matroids, label_map = gen_prime_matroid_encoding(2)
        edges = {t: (f"u{i}", f"v{i}") for i, t in enumerate(sorted(label_map))}
        with pytest.raises(ValidationError, match="member 1 is 'matching'"):
            check_encoding([matroids[0], MatchingFamily(edges)], label_map)

    @pytest.mark.parametrize("bad", [-5, -1, 2.5, "10", None])
    def test_set_samples_not_an_int_at_least_0_rejected(self, bad):
        matroids, label_map = gen_prime_matroid_encoding(3)
        with pytest.raises(ValidationError, match="set_samples"):
            check_encoding(matroids, label_map, set_samples=bad)


_CORRUPTIONS = ("flip", "capacity", "drop_one", "drop_all", "same_label", "merge")


class TestCheckEncodingIsExact:
    # what each corruption is sometimes caught by: a pair, a loop (a set of one type),
    # a chain of three or more types, or the error for unequal grounds
    @pytest.mark.parametrize("how, shown_by", [
        ("flip", 2), ("capacity", 2), ("drop_one", "ValidationError"), ("drop_all", 1),
        ("same_label", 2), ("merge", 3),
    ])
    def test_small_corruptions_match_the_exhaustive_reference(self, how, shown_by):
        # at most 12 types, so the reference tests every set; witnesses may differ, as the
        # reference takes the first set by size and the check the first chain per part.
        # Each ground holds one type's root path, so a merge can overfill a part.
        encodings = [gen_prime_matroid_encoding(k) for k in (2, 3, 5)]
        caught = Counter()
        for case in range(_CORRUPTIONS.index(how), 600, len(_CORRUPTIONS)):
            rng = random.Random(f"exact-{case}")
            matroids, label_map = encodings[case % 3]
            types = sorted(label_map)
            size, deep = rng.randint(4, min(12, len(types))), label_map[rng.choice(types)][0]
            path = [t for t in types if deep[:len(label_map[t][0])] == label_map[t][0]][:size]
            chosen = path + rng.sample(sorted(set(types) - set(path)), size - len(path))
            bad = _mutate(matroids, {t: label_map[t] for t in chosen}, how, rng)
            got = _outcome(check_encoding, *bad)
            _assert_same_verdict(got, _outcome(reference_check_encoding, *bad), bad)
            if got[0] is not True:
                caught[got[0] if got[0] == "ValidationError" else min(len(got[1]), 3)] += 1
        assert caught[shown_by] > 0, caught
