"""Set systems: loops, greedy steps and scans, rank-vs-greedy bound."""

import functools
import gc
import itertools
import random

import pytest

from smplab import (
    ExplicitFamily,
    IntersectionFamily,
    MatchingFamily,
    PartitionMatroid,
    PathChainFamily,
    ValidationError,
    check_downward_closed,
    check_k_extendible,
    greedy_select,
    make_uniform_matroid,
    max_rank,
)
from smplab.strategy import TreeFanConstraint
from oracles import brute_max_weight_independent, powerset, reference_independent


def path_matching():
    return MatchingFamily(
        {"ab": ("a", "b"), "bc": ("b", "c"), "cd": ("c", "d")}
    )


class TestLoops:
    """A loop is a type the greedy skips: chosen already, outside the
    ground, or dependent on the chosen set."""

    def test_fresh_state_has_no_loops(self):
        fam = make_uniform_matroid(["t1", "t2"], 1)
        assert greedy_select(fam, ["t1"]) == ("t1",)

    def test_full_rank_one_slot_makes_loops(self):
        fam = make_uniform_matroid(["t1", "t2"], 1)
        assert greedy_select(fam, ["t1", "t2"]) == ("t1",)

    def test_matching_contraction_blocks_neighbors(self):
        fam = MatchingFamily(
            {"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a"), "de": ("d", "e")}
        )
        assert greedy_select(fam, ["ab", "bc"]) == ("ab",)
        assert greedy_select(fam, ["ab", "de"]) == ("ab", "de")

    def test_contracted_type_is_its_own_loop(self):
        fam = make_uniform_matroid(["t1", "t2"], 2)
        assert greedy_select(fam, ["t1", "t1"]) == ("t1",)

    def test_type_outside_ground_is_loop(self):
        fam = make_uniform_matroid(["t1"], 1)
        assert greedy_select(fam, ["zzz"]) == ()
        initial, step = fam._stepper(["zzz"])
        assert step(initial, 0) is None


class TestGreedy:
    def test_independent_sequence_fully_selected(self):
        fam = make_uniform_matroid(["a", "b", "c"], 3)
        for order in itertools.permutations(["a", "b", "c"]):
            assert len(greedy_select(fam, order)) == 3

    def test_middle_edge_blocks_path(self):
        assert len(greedy_select(path_matching(), ("bc", "ab", "cd"))) == 1

    def test_rank_bounded_by_twice_greedy_on_path(self):
        fam = path_matching()
        assert max_rank(fam, {"ab", "bc", "cd"}) == 2
        assert 2 <= 2 * len(greedy_select(fam, ("bc", "ab", "cd")))

    def test_duplicates_are_loops(self):
        fam = make_uniform_matroid(["a", "b"], 2)
        assert len(greedy_select(fam, ("a", "a", "b"))) == 2

    def test_order_recorded(self):
        fam = make_uniform_matroid(["r", "i"], 2)
        assert greedy_select(fam, ("r", "i")) == ("r", "i")
        assert greedy_select(fam, ("i", "r")) == ("i", "r")

    def test_parallel_loop_skipped(self):
        # r fills the only slot, so a parallel i is skipped
        fam = make_uniform_matroid(["r", "i"], 1)
        assert greedy_select(fam, ("r", "i")) == ("r",)

    def test_steps_leave_the_prefix_unchanged(self):
        # branches that share a prefix may extend it independently
        fam = PartitionMatroid({"a": 0, "b": 1, "c": 2}, {0: 1, 1: 1, 2: 1})
        initial, step = fam._stepper(["a", "b", "c"])
        base = step(initial, 0)
        left, right = step(base, 1), step(base, 2)
        assert base == step(initial, 0)
        assert left != right and None not in (left, right)
        assert step(left, 2) == step(right, 1) is not None

    def test_greedy_output_is_maximal(self):
        rng = random.Random(3)
        for _ in range(60):
            types = [f"t{i}" for i in range(7)]
            fam = MatchingFamily(
                {t: tuple(rng.sample("uvwxy", 2)) for t in types}
            )
            order = rng.sample(types, rng.randint(0, 7))
            chosen = frozenset(greedy_select(fam, order))
            assert fam.is_independent(chosen)
            for t in set(order) - chosen:
                assert not fam.is_independent(chosen | {t})


class TestPartitionMatroid:
    def test_zero_capacity_blocks_everything(self):
        fam = PartitionMatroid({"a": "p", "b": "p"}, {"p": 0})
        assert fam.is_independent(set())
        assert not fam.is_independent({"a"})

    def test_two_parts_capacity_one(self):
        fam = PartitionMatroid({"a": "p1", "b": "p2", "c": "p1"}, {"p1": 1, "p2": 1})
        assert fam.is_independent({"a", "b"})
        assert not fam.is_independent({"a", "c"})

    def test_missing_capacity_rejected(self):
        with pytest.raises(ValidationError):
            PartitionMatroid({"a": "p"}, {})


class TestIntersect:
    def test_single_member_is_pointwise_identical(self):
        fam = PartitionMatroid({"a": "p", "b": "q"}, {"p": 1, "q": 1})
        inter = IntersectionFamily([fam])
        for sub in powerset(["a", "b"]):
            assert inter.is_independent(sub) == fam.is_independent(sub)
        assert inter.is_matroid

    def test_two_rank_one_supports(self):
        ground = ["a1", "a2", "b1"]
        m1 = PartitionMatroid(
            {"a1": "s", "a2": "s", "b1": "free"}, {"s": 1, "free": 1}
        )
        m2 = PartitionMatroid(
            {"a1": "free", "a2": "free2", "b1": "t"}, {"t": 1, "free": 1, "free2": 1}
        )
        inter = IntersectionFamily([m1, m2])
        assert inter.is_independent({"a1", "b1"})
        assert not inter.is_independent({"a1", "a2"})
        assert not inter.is_matroid

    def test_mismatched_grounds_rejected(self):
        m1 = make_uniform_matroid(["a"], 1)
        m2 = make_uniform_matroid(["b"], 1)
        with pytest.raises(ValidationError):
            IntersectionFamily([m1, m2])


class TestMatchingFamily:
    def test_single_edge(self):
        fam = MatchingFamily({"e": ("u", "v")})
        assert fam.is_independent({"e"})

    def test_shared_vertex_dependent(self):
        fam = MatchingFamily({"e1": ("u", "v"), "e2": ("v", "w")})
        assert not fam.is_independent({"e1", "e2"})

    def test_triangle_rank_is_one(self):
        edges = {"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a")}
        fam = MatchingFamily(edges)
        for e in edges:
            assert fam.is_independent({e})
        for pair in itertools.combinations(edges, 2):
            assert not fam.is_independent(set(pair))
        assert max_rank(fam, set(edges)) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            MatchingFamily({"e": ("u", "u")})


class TestStructure:
    def test_constructed_families_downward_closed(self):
        rng = random.Random(9)
        for trial in range(25):
            types = [f"t{i}" for i in range(6)]
            if trial % 3 == 0:
                fam = MatchingFamily(
                    {t: tuple(rng.sample("uvwx", 2)) for t in types}
                )
            elif trial % 3 == 1:
                fam = PartitionMatroid(
                    {t: f"p{rng.randrange(3)}" for t in types},
                    {f"p{i}": rng.randint(0, 2) for i in range(3)},
                )
            else:
                fam = IntersectionFamily(
                    [
                        PartitionMatroid(
                            {t: f"q{rng.randrange(2)}" for t in types},
                            {f"q{i}": rng.randint(1, 2) for i in range(2)},
                        )
                        for _ in range(2)
                    ]
                )
            ok, witness = check_downward_closed(fam, types)
            assert ok, witness

    def test_matroid_is_one_extendible(self):
        fam = PartitionMatroid(
            {"a": "p", "b": "p", "c": "q"}, {"p": 1, "q": 2}
        )
        ok, witness = check_k_extendible(fam, ["a", "b", "c"], 1)
        assert ok, witness

    def test_matchings_are_two_extendible_exhaustive_k4(self):
        # every edge subset of the complete graph on 4 vertices
        all_edges = list(itertools.combinations("abcd", 2))
        for mask in range(1, 1 << len(all_edges)):
            chosen = [e for i, e in enumerate(all_edges) if mask >> i & 1]
            fam = MatchingFamily(
                {f"e{i}": pair for i, pair in enumerate(chosen)}
            )
            ok, witness = check_k_extendible(fam, sorted(fam.ground), 2)
            assert ok, (chosen, witness)

    def test_matchings_on_k5_samples(self):
        rng = random.Random(4)
        all_edges = list(itertools.combinations("abcde", 2))
        for _ in range(40):
            chosen = rng.sample(all_edges, 6)
            fam = MatchingFamily(
                {f"e{i}": pair for i, pair in enumerate(chosen)}
            )
            ok, witness = check_k_extendible(fam, sorted(fam.ground), 2)
            assert ok, (chosen, witness)

    def test_path_matching_not_one_extendible(self):
        ok, witness = check_k_extendible(path_matching(), ["ab", "bc", "cd"], 1)
        assert not ok
        small, big, e = witness
        assert small | {e} != big

    def test_intersection_of_m_matroids_is_m_extendible(self):
        rng = random.Random(6)
        for _ in range(15):
            m = rng.randint(2, 3)
            types = [f"t{i}" for i in range(5)]
            fam = IntersectionFamily(
                [
                    PartitionMatroid(
                        {t: f"p{rng.randrange(3)}" for t in types},
                        {f"p{i}": rng.randint(1, 2) for i in range(3)},
                    )
                    for _ in range(m)
                ]
            )
            ok, witness = check_k_extendible(fam, types, m)
            assert ok, witness


class TestRankVsGreedyProperty:
    def test_rank_at_most_k_times_greedy(self):
        # f(A) <= k * greedy(B) for A subset of B, any scan order of B
        rng = random.Random(100)
        for _ in range(10_000):
            types = [f"t{i}" for i in range(rng.randint(3, 8))]
            style = rng.randrange(3)
            if style == 0:
                k = 1
                fam = PartitionMatroid(
                    {t: f"p{rng.randrange(3)}" for t in types},
                    {f"p{i}": rng.randint(1, 2) for i in range(3)},
                )
            elif style == 1:
                k = 2
                fam = MatchingFamily(
                    {t: tuple(rng.sample("uvwxy", 2)) for t in types}
                )
            else:
                k = rng.randint(2, 3)
                fam = IntersectionFamily(
                    [
                        PartitionMatroid(
                            {t: f"p{rng.randrange(3)}" for t in types},
                            {f"p{i}": rng.randint(1, 2) for i in range(3)},
                        )
                        for _ in range(k)
                    ]
                )
            big = rng.sample(types, rng.randint(0, len(types)))
            small = frozenset(t for t in big if rng.random() < 0.6)
            assert max_rank(fam, small) <= k * len(greedy_select(fam, big))


def test_max_rank_matches_brute_force():
    rng = random.Random(12)
    for _ in range(40):
        types = [f"t{i}" for i in range(6)]
        fam = MatchingFamily({t: tuple(rng.sample("uvwx", 2)) for t in types})
        sub = frozenset(rng.sample(types, rng.randint(0, 6)))
        assert max_rank(fam, sub) == brute_max_weight_independent(
            functools.partial(reference_independent, fam), sub
        )


def test_explicit_family_membership():
    fam = ExplicitFamily(["a", "b"], [[], ["a"], ["a", "b"]])
    assert fam.is_independent({"a", "b"})
    assert not fam.is_independent({"b"})


@pytest.mark.parametrize(
    "edges, message",
    [
        # y hangs from nothing
        pytest.param({"a": ("r", "x"), "b": ("y", "z")}, "not connected to the root", id="edges0"),
        # y, z form a cycle
        pytest.param(
            {"a": ("r", "x"), "b": ("y", "z"), "c": ("z", "y")}, "not connected to the root",
            id="edges1",
        ),
        pytest.param({"a": ("r", "x"), "b": ("x", "y"), "c": ("r", "y")}, "two parents", id="edges2"),
        pytest.param({"a": ("r", "x"), "b": ("x", "r")}, "root cannot be a child", id="edges3"),
    ],
)
def test_path_chain_rejects_vertices_off_the_root(edges, message):
    for make in (PathChainFamily, TreeFanConstraint):
        with pytest.raises(ValidationError, match=message):
            make(edges, "r")


def test_exact_searches_leave_no_reference_cycle():
    # both recursive searches are closures that refer to themselves; with
    # the collector off, a cycle left behind shows as found garbage
    fam = path_matching()
    gc.collect()
    gc.disable()
    try:
        assert max_rank(fam, sorted(fam.ground)) == 2
        assert gc.collect() == 0
        assert check_k_extendible(fam, sorted(fam.ground), 2)[0]
        assert gc.collect() == 0
    finally:
        gc.enable()
