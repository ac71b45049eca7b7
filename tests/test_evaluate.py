"""Evaluators vs independent oracles, Monte Carlo soundness, and the gap
inequality suites at module scale (the acceptance suite runs them big)."""

import collections
import itertools
import sys
from fractions import Fraction

import numpy as np
import pytest

import smplab.evaluate
from smplab import strategy

from smplab import (
    DagPathConstraint,
    ExactCapExceeded,
    RandomInstanceParams,
    PathChainFamily,
    TypeDistribution,
    ValidationError,
    WeightedRankValuation,
    adap_by_path_enumeration,
    adap_exact,
    adap_mc,
    alg_exact,
    alg_mc,
    best_nonadaptive_exact,
    chain_tree,
    combined_value,
    coverage_valuation,
    gen_random_instance,
    gen_submodular_lb,
    gen_tree_lb,
    greedy_interleaved_exact,
    kextendible_chain_report,
    leaf,
    make_uniform_matroid,
    partition_weighted_valuation,
    probe,
    submodular_gap_report,
    submodular_lb_adap_recurrence,
    universe_from_type_space,
    validate_tree,
)
from smplab.evaluate import MC_BLOCK, MC_TRIAL_CAP, _Prepared, _row_values
from smplab.valuation import WeightedCoverageValuation
from oracles import (
    brute_adap,
    brute_alg,
    brute_best_nonadaptive,
    brute_greedy_interleaved,
    reference_mc,
    zero_first_types,
)


def bernoulli_indicator(p=Fraction(1, 2)):
    universe = universe_from_type_space({"e": ("e.on", "e.off")})
    dist = TypeDistribution({"e": {"e.on": p, "e.off": 1 - p}})
    f = coverage_valuation({"e.on": {"hit"}})
    tree = chain_tree(universe, ["e"])
    return universe, dist, f, tree


def sure_chain():
    """A chain deeper than the recursion limit, one sure type per element: a
    single path that probes every element, and its coverage of one item each."""
    names = [f"x{i}" for i in range(sys.getrecursionlimit() + 500)]
    universe = universe_from_type_space({e: (f"{e}.on",) for e in names})
    dist = TypeDistribution({e: {f"{e}.on": 1} for e in names})
    f = coverage_valuation({f"{e}.on": {e} for e in names})
    return universe, dist, f, chain_tree(universe, names)


def on_off_chain(n, p_on):
    """An ``n``-element chain whose elements are on with probability ``p_on``."""
    names = [f"x{i}" for i in range(n)]
    universe = universe_from_type_space({e: (f"{e}.on", f"{e}.off") for e in names})
    dist = TypeDistribution({e: {f"{e}.on": p_on, f"{e}.off": 1 - p_on} for e in names})
    return universe, dist, chain_tree(universe, names)


def small_instances(seeds, **kwargs):
    params = RandomInstanceParams(max_elements=4, max_types=2, **kwargs)
    return [gen_random_instance(s, params) for s in seeds]


def _positive_arcs(tree, dist, dag):
    """Positive-probability arcs: of each distinct node when ``dag``, else of
    every reached prefix, as a walk without a memo expands them."""
    seen, stack, arcs = set(), [tree], 0
    while stack:
        node = stack.pop()
        if node.is_leaf or (dag and id(node) in seen):
            continue
        seen.add(id(node))
        for t, child in node.children.items():
            if dist.prob(node.element, t) != 0:
                arcs += 1
                stack.append(child)
    return arcs


class TestAdapExact:
    def test_leaf_only_tree(self):
        universe, dist, f, _ = bernoulli_indicator()
        assert adap_exact(leaf(), f, universe, dist).value == 0

    def test_single_bernoulli(self):
        universe, dist, f, tree = bernoulli_indicator()
        assert adap_exact(tree, f, universe, dist).value == Fraction(1, 2)

    def test_matches_full_enumeration_oracle(self):
        for inst in small_instances(range(10)):
            got = adap_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value
            want = brute_adap(inst.tree, inst.valuation, inst.universe, inst.dist)
            assert got == want  # rational instances: exact equality

    def test_decomposition_equals_path_enumeration(self):
        for inst in small_instances(range(10, 18)):
            got = adap_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value
            byref = adap_by_path_enumeration(
                inst.tree, inst.valuation, inst.universe, inst.dist
            )
            assert got == byref

    def test_triangular_reference_matches_recurrence(self):
        for eps in (Fraction(1, 2), Fraction(2, 5)):
            bundle = gen_submodular_lb(eps)
            got = adap_exact(
                bundle.tree, bundle.valuation, bundle.universe, bundle.dist
            ).value
            assert got == submodular_lb_adap_recurrence(eps)

    def test_float_triangular_agreement(self):
        bundle = gen_submodular_lb(0.3)
        got = adap_exact(bundle.tree, bundle.valuation, bundle.universe, bundle.dist).value
        assert abs(got - submodular_lb_adap_recurrence(0.3)) <= 1e-9

    def test_zero_probability_arcs_never_expanded(self, monkeypatch):
        # random trees share no node, so the walk expands exactly the
        # positive arcs of every reached prefix, and none of the others
        for inst in [gen_random_instance(s) for s in range(10)]:
            dist = zero_first_types(inst.dist)
            args = (inst.tree, inst.valuation, inst.universe, dist)
            arcs = _positive_arcs(inst.tree, dist, dag=False)
            assert 0 < arcs < _positive_arcs(inst.tree, inst.dist, dag=False)
            want = adap_by_path_enumeration(*args)
            monkeypatch.setattr(smplab.evaluate, "WORK_CAP", arcs)
            assert adap_exact(*args).value == want
            monkeypatch.setattr(smplab.evaluate, "WORK_CAP", arcs - 1)
            with pytest.raises(ExactCapExceeded, match=f"work cap of {arcs - 1};"):
                adap_exact(*args)
            monkeypatch.undo()

    def test_memo_expands_each_triangle_arc_once(self, monkeypatch):
        bundle = gen_submodular_lb(Fraction(1, 4))
        arcs = _positive_arcs(bundle.tree, bundle.dist, dag=True)
        assert arcs == 2 * len(bundle.universe) == 2 * 66
        args = (bundle.tree, bundle.valuation, bundle.universe, bundle.dist)
        monkeypatch.setattr(smplab.evaluate, "WORK_CAP", arcs)
        got = adap_exact(*args).value
        assert got == submodular_lb_adap_recurrence(Fraction(1, 4))
        monkeypatch.setattr(smplab.evaluate, "WORK_CAP", arcs - 1)
        with pytest.raises(ExactCapExceeded, match=f"work cap of {arcs - 1};"):
            adap_exact(*args)

    def test_memo_matches_path_enumeration_on_chain_dags(self, monkeypatch):
        # chain_tree hangs one node under every arc of the level above, so
        # fixed sets with equal reach below share its expansion
        params = RandomInstanceParams(valuation_kinds=("coverage", "partition_weighted"))
        hits = 0
        for seed in range(60):
            inst = gen_random_instance(seed, params)
            tree = chain_tree(inst.universe, inst.universe.elements)
            args = (tree, inst.valuation, inst.universe, inst.dist)
            assert adap_exact(*args).value == adap_by_path_enumeration(*args), seed
            walked = _positive_arcs(tree, inst.dist, dag=False)
            monkeypatch.setattr(smplab.evaluate, "WORK_CAP", walked - 1)
            try:
                adap_exact(*args)
                hits += 1
            except ExactCapExceeded:
                pass
            monkeypatch.undo()
        assert hits >= 50

    def test_work_cap(self, monkeypatch):
        bundle = gen_submodular_lb(Fraction(1, 4))
        monkeypatch.setattr(smplab.evaluate, "WORK_CAP", 3)
        with pytest.raises(ExactCapExceeded):
            adap_exact(bundle.tree, bundle.valuation, bundle.universe, bundle.dist)

    def test_tree_deeper_than_the_recursion_limit(self):
        universe, dist, f, tree = sure_chain()
        assert adap_exact(tree, f, universe, dist).value == len(universe)


class TestAlgExact:
    def test_leaf_only_tree(self):
        universe, dist, f, _ = bernoulli_indicator()
        assert alg_exact(leaf(), f, universe, dist).value == 0

    def test_depth_one_resampling_preserves_marginal(self):
        universe, dist, f, tree = bernoulli_indicator()
        assert alg_exact(tree, f, universe, dist).value == Fraction(1, 2)

    def test_matches_double_enumeration_oracle(self):
        for inst in small_instances(range(20, 30)):
            got = alg_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value
            want = brute_alg(inst.tree, inst.valuation, inst.universe, inst.dist)
            assert got == want


    def test_tree_deeper_than_the_recursion_limit(self):
        # the path walk keeps its own stack
        universe, dist, f, tree = sure_chain()
        assert validate_tree(tree, universe) is False
        assert alg_exact(tree, f, universe, dist).value == len(universe)
        assert adap_by_path_enumeration(tree, f, universe, dist) == len(universe)

    def test_work_cap_counts_positive_draws_only(self, monkeypatch):
        # 2**21 joint assignments, one of positive probability: 21 draw units; a rank
        # equal to the coverage of one item per on type keeps the draw route
        universe, dist, tree = on_off_chain(21, 1)
        ons = [f"x{i}.on" for i in range(21)]
        f = WeightedRankValuation(make_uniform_matroid(ons, 21), dict.fromkeys(ons, 1))
        monkeypatch.setattr(smplab.evaluate, "WORK_CAP", 21)
        assert alg_exact(tree, f, universe, dist).value == 21
        need = "work cap of 20: fresh draws of a 21-element set need 21 units on top of 0;"
        monkeypatch.setattr(smplab.evaluate, "WORK_CAP", 20)
        with pytest.raises(ExactCapExceeded, match=need):
            alg_exact(tree, f, universe, dist)

    @pytest.mark.parametrize("p_on, arcs, value",
                             [(1, 1, 21), (Fraction(1, 2), 2, Fraction(21, 2))],
                             ids=["sure", "half"])
    def test_coverage_walk_charges_arcs_times_entries(self, monkeypatch, p_on, arcs, value):
        # the node i levels above the leaf has ``arcs`` positive arcs and a table of the
        # i items reached at or below it: arcs * (1 + 2 + ... + 21) units in all
        universe, dist, tree = on_off_chain(21, p_on)
        f = coverage_valuation({f"x{i}.on": {i} for i in range(21)})
        used = arcs * 21 * 22 // 2
        monkeypatch.setattr(smplab.evaluate, "WORK_CAP", used)
        got = alg_exact(tree, f, universe, dist).value
        assert got == value and type(got) is type(value)
        monkeypatch.setattr(smplab.evaluate, "WORK_CAP", used - 1)
        with pytest.raises(ExactCapExceeded) as refused:
            alg_exact(tree, f, universe, dist)
        assert str(refused.value) == f"exact evaluation exceeded the work cap of {used - 1}; use MC"

    @pytest.mark.parametrize(
        "eps, cap, need",
        [
            (Fraction(1, 4), 10_000, "work cap of 10000: fresh draws of a "
             "11-element set need 4094 units on top of 8188;"),
            (Fraction(1, 5), None, "work cap of 4194304: fresh draws of a "
             "16-element set need 131070 units on top of 4194240;"),
        ],
        ids=["eps_1_4-cap_10000", "eps_1_5-default_cap"],
    )
    def test_refuses_before_any_draw(self, monkeypatch, eps, cap, need):
        # every distinct probed set is charged before the first one is valued
        bundle = gen_submodular_lb(eps)
        calls = 0

        def f(types):
            nonlocal calls
            calls += 1
            return bundle.valuation(types)

        if cap is not None:
            monkeypatch.setattr(smplab.evaluate, "WORK_CAP", cap)
        with pytest.raises(ExactCapExceeded, match=need):
            alg_exact(bundle.tree, f, bundle.universe, bundle.dist)
        assert calls == 0


class TestGreedyInterleaved:
    def test_leaf_only_tree(self):
        universe, dist, _, _ = bernoulli_indicator()
        fam = make_uniform_matroid(["e.on"], 1)
        assert greedy_interleaved_exact(leaf(), fam, universe, dist).value == 0

    def test_depth_one_two_chances(self):
        # either the true or the virtual draw may land the selectable type
        p = Fraction(1, 2)
        universe, dist, _, tree = bernoulli_indicator(p)
        fam = make_uniform_matroid(["e.on"], 1)
        got = greedy_interleaved_exact(tree, fam, universe, dist).value
        assert got == 2 * p - p * p == Fraction(3, 4)

    def test_matches_double_enumeration_oracle(self):
        for inst in small_instances(
            range(30, 42),
            valuation_kinds=("matroid_intersection_rank", "matching_rank"),
        ):
            got = greedy_interleaved_exact(
                inst.tree, inst.family, inst.universe, inst.dist
            ).value
            want = brute_greedy_interleaved(
                inst.tree, inst.family, inst.universe, inst.dist
            )
            assert got == want

    def test_tree_deeper_than_the_recursion_limit(self):
        universe, dist, _, tree = sure_chain()
        fam = make_uniform_matroid(sorted(universe.all_types), 2)
        rep = greedy_interleaved_exact(tree, fam, universe, dist)
        assert rep.value == rep.trace["online_value"] == 2

    def test_rank_one_on_a_wide_chain(self):
        # 2**21 joint assignments per path, but the walk meets two selections
        universe, dist, tree = on_off_chain(21, Fraction(1, 2))
        fam = make_uniform_matroid(sorted(universe.all_types), 1)
        rep = greedy_interleaved_exact(tree, fam, universe, dist)
        assert rep.value == rep.trace["online_value"] == 1

    def test_online_trace_lower_bounds_alg(self):
        for inst in small_instances(
            range(42, 50),
            valuation_kinds=("matroid_intersection_rank", "matching_rank"),
        ):
            rep = greedy_interleaved_exact(inst.tree, inst.family, inst.universe, inst.dist)
            alg = alg_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value
            assert rep.trace["online_value"] <= alg
            assert rep.trace["online_value"] <= rep.value


class TestMonteCarlo:
    def test_deterministic_instance_has_zero_stderr(self):
        universe = universe_from_type_space({"e": ("t",)})
        dist = TypeDistribution({"e": {"t": 1}})
        f = coverage_valuation({"t": {"x"}})
        tree = chain_tree(universe, ["e"])
        rep = adap_mc(tree, f, universe, dist, trials=64, seed=5)
        assert rep.value == 1.0
        assert rep.stderr == 0.0

    def test_estimates_near_exact(self):
        hits = 0
        runs = 0
        for inst in small_instances(range(50, 56)):
            exact = float(
                adap_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value
            )
            for seed in range(4):
                rep = adap_mc(
                    inst.tree, inst.valuation, inst.universe, inst.dist, 4000, seed
                )
                runs += 1
                hits += abs(rep.value - exact) <= 3 * rep.stderr + 1e-12
        assert hits >= runs - 1

    def test_alg_estimates_near_exact(self):
        inst = gen_random_instance(77)
        exact = float(alg_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value)
        rep = alg_mc(inst.tree, inst.valuation, inst.universe, inst.dist, 20_000, 3)
        assert abs(rep.value - exact) <= 3 * rep.stderr + 1e-12

    def test_triangular_mc_matches_recurrence(self):
        bundle = gen_submodular_lb(0.1)
        want = submodular_lb_adap_recurrence(0.1)
        rep = adap_mc(bundle.tree, bundle.valuation, bundle.universe, bundle.dist, 6000, 5)
        assert abs(rep.value - want) <= 3 * rep.stderr

    def test_worker_count_does_not_change_bytes(self):
        inst = gen_random_instance(60)
        reports = [
            adap_mc(inst.tree, inst.valuation, inst.universe, inst.dist, 5000, 9, workers=w)
            for w in (1, 2, 8)
        ]
        assert len({(r.value, r.stderr) for r in reports}) == 1
        reports = [
            alg_mc(inst.tree, inst.valuation, inst.universe, inst.dist, 5000, 9, workers=w)
            for w in (1, 2, 8)
        ]
        assert len({(r.value, r.stderr) for r in reports}) == 1

    def test_seed_changes_estimate(self):
        inst = gen_random_instance(61)
        a = adap_mc(inst.tree, inst.valuation, inst.universe, inst.dist, 2000, 1)
        b = adap_mc(inst.tree, inst.valuation, inst.universe, inst.dist, 2000, 2)
        assert a.value != b.value


def shared_subtree_case():
    """b is probed below both arcs of a: its subtree is one shared object."""
    universe = universe_from_type_space(
        {"a": ("a0", "a1"), "b": ("b0", "b1", "b2"), "c": ("c0", "c1")}
    )
    dist = TypeDistribution(
        {
            "a": {"a0": Fraction(1, 3), "a1": Fraction(2, 3)},
            "b": {"b0": Fraction(1, 2), "b1": Fraction(1, 4), "b2": Fraction(1, 4)},
            "c": {"c0": Fraction(3, 5), "c1": Fraction(2, 5)},
        }
    )
    f = coverage_valuation({"a1": {1}, "b0": {1, 2}, "b2": {3}, "c0": {2, 3}})
    shared = probe("b", {"b0": leaf(), "b1": leaf(), "b2": leaf()})
    tree = probe("a", {"a0": shared, "a1": probe("c", {"c0": shared, "c1": leaf()})})
    assert tree.children["a0"] is tree.children["a1"].children["c0"]
    return tree, f, universe, dist


def root_leaf_case():
    universe, dist, f, _ = bernoulli_indicator()
    return leaf(), f, universe, dist


def bundle_case(make):
    def case():
        b = make()
        return b.tree, b.valuation, b.universe, b.dist

    return case


def random_case(seed):
    # seeds 0, 1 and 8 give coverage, weighted-rank and partition-weighted
    # valuations on trees over some 3-type elements
    inst = gen_random_instance(seed)
    assert any(len(ts) == 3 for ts in inst.universe.type_space.values())
    return inst.tree, inst.valuation, inst.universe, inst.dist


MC_CASES = {
    "triangle": bundle_case(lambda: gen_submodular_lb(0.2)),
    "wary_tree": bundle_case(lambda: gen_tree_lb(3, 4, 0.25)),
    **{f"random_{s}": (lambda s=s: random_case(s)) for s in (0, 1, 8)},
    "shared_subtree": shared_subtree_case,
    "root_leaf": root_leaf_case,
}


@pytest.mark.parametrize("case", list(MC_CASES))
@pytest.mark.parametrize("fn, resample", [(adap_mc, False), (alg_mc, True)])
def test_mc_bit_identical_to_row_walk_reference(case, fn, resample):
    # trials: one block, one short of and one past a block boundary, several blocks
    for trials in (1, 1023, 1025, 2500):
        want = reference_mc(*MC_CASES[case](), trials, 13, resample)
        for workers in (1, 2):
            rep = fn(*MC_CASES[case](), trials, 13, workers=workers)
            assert (rep.value, rep.stderr) == want, (trials, workers)


def record_values(f, calls):
    """Make each compiled form of ``f`` append the masks it values to ``calls``."""
    compiled = f._compiled

    def recorded(types):
        masks, value = compiled(types)
        return masks, lambda mask: calls.append(mask) or value(mask)

    f._compiled = recorded


def count_compiles(f) -> list:
    """A list that gets an entry each time ``f`` is compiled."""
    compiles, compiled = [], f._compiled
    f._compiled = lambda types: compiles.append(types) or compiled(types)
    return compiles


REACH = {"r1": {"c"}, "r2": {"a", "b", "c"}, "p0": {"a"}, "p1": {"b"}, "q0": {"a", "c"}}


def coverage_case(weights, reach=REACH):
    """A chain over three elements under a coverage with ``weights``. Types q1
    and r0 have no ``REACH``, and r's float running sum ends below 1.0
    (0.9999999999999999), so its codes take the clip."""
    universe = universe_from_type_space(
        {"r": ("r0", "r1", "r2"), "p": ("p0", "p1"), "q": ("q0", "q1")}
    )
    dist = TypeDistribution(
        {
            "r": {"r0": 0.7, "r1": 0.2, "r2": 0.1},
            "p": {"p0": 0.25, "p1": 0.75},
            "q": {"q0": 0.5, "q1": 0.5},
        }
    )
    f = WeightedCoverageValuation(reach, weights, "coverage")
    return chain_tree(universe, ["r", "p", "q"]), f, universe, dist


EVERY_TYPE_REACHES_A = {t: {"a"} for t in ("r0", "r1", "r2", "p0", "p1", "q0", "q1")}
COVERAGE_CASES = {
    # weights, reach, and whether the table route (f's compiled form) values the rows
    "fraction": ({"a": Fraction(1, 3), "b": Fraction(2, 7), "c": 1}, REACH, True),
    # f adds -0.0 to the int 0, which gives 0.0
    "negative_zero": ({"a": -0.0}, EVERY_TYPE_REACHES_A, False),
    "negative_zero_among_others": ({"a": 0.1, "b": -0.0, "c": 0.7}, REACH, False),
    "mixed_int_float": ({"a": 3, "b": 0.1, "c": 0.7}, REACH, False),
    "ints_past_2_53": ({"a": 2**53, "b": 1, "c": 1}, REACH, True),
}


@pytest.mark.parametrize("weights, reach, tabled", list(COVERAGE_CASES.values()),
                         ids=list(COVERAGE_CASES))
@pytest.mark.parametrize("fn, resample", [(adap_mc, False), (alg_mc, True)])
def test_coverage_mc_bit_identical_to_row_walk_reference(weights, reach, tabled, fn, resample):
    for trials in (1, 1025, 2500):
        want = reference_mc(*coverage_case(weights, reach), trials, 13, resample)
        for workers in (1, 2):
            tree, f, universe, dist = coverage_case(weights, reach)
            calls = []
            record_values(f, calls)
            rep = fn(tree, f, universe, dist, trials, 13, workers=workers)
            # in float hex, which tells -0.0 from 0.0
            assert [rep.value.hex(), rep.stderr.hex()] == [x.hex() for x in want], trials
            assert bool(calls) == tabled


@pytest.mark.parametrize("weights, reach, tabled", list(COVERAGE_CASES.values()),
                         ids=list(COVERAGE_CASES))
def test_coverage_row_values_equal_f(weights, reach, tabled):
    # every joint profile as a walked row, and a row with nothing revealed,
    # compared in float hex, which tells -0.0 from 0.0
    tree, f, universe, dist = coverage_case(weights, reach)
    names = _Prepared(tree, universe, dist).names
    ids = {t: g for g, t in enumerate(names)}
    profiles = [[ids[t] for t in p] for p in itertools.product(*universe.type_space.values())]
    rows = np.array(profiles + [[-1, -1, -1]], dtype=np.intp)
    want = [float(f(names[g] for g in row if g >= 0)).hex() for row in rows.tolist()]
    assert [x.hex() for x in _row_values(f, names)(rows)] == want


# each type of r, p and q an edge of the tree v-a-b-e, a-c, v-d-f, but for
# r0, pX and q0; pX and r0 may still carry a weight
CHAIN_EDGES = {"rA": ("v", "a"), "rD": ("v", "d"), "pB": ("a", "b"), "pC": ("a", "c"),
               "qE": ("b", "e"), "qF": ("d", "f")}


def path_chain_case(weights):
    """A chain over three elements under the weighted rank of ``CHAIN_EDGES``'s
    path chains with ``weights``; r's float running sum ends below 1.0, so its
    codes take the clip."""
    universe = universe_from_type_space(
        {"r": ("rA", "rD", "r0"), "p": ("pB", "pC", "pX"), "q": ("qE", "qF", "q0")}
    )
    dist = TypeDistribution(
        {
            "r": {"rA": 0.7, "rD": 0.2, "r0": 0.1},
            "p": {"pB": 0.25, "pC": 0.25, "pX": 0.5},
            "q": {"qE": 0.5, "qF": 0.3, "q0": 0.2},
        }
    )
    f = WeightedRankValuation(PathChainFamily(CHAIN_EDGES, "v"), weights)
    return chain_tree(universe, ["r", "p", "q"]), f, universe, dist


PATH_CHAIN_CASES = {
    # weights, and whether the table route (f's compiled form) values the rows
    "unit_ints": (dict.fromkeys(CHAIN_EDGES, 1), False),
    # on v-a-b-e, (0.7 + 0.2) + 0.1 != (0.1 + 0.2) + 0.7: the order is the value
    "floats_with_ties": ({"rA": 0.1, "pB": 0.2, "qE": 0.7, "rD": 0.2, "pC": 0.7, "qF": 0.1},
                         False),
    "mixed_int_float": ({"rA": 3, "pB": 0.1, "qE": 0.7, "rD": 1, "pC": 0.3, "qF": 2}, False),
    "zero_and_negative_zero": (
        {"rA": 0, "pB": -0.0, "qE": 0.5, "rD": 0.25, "pC": 1.5, "qF": 0.75}, False),
    "weighted_outside_ground": ({"rA": 1, "pB": 0.5, "pX": 5.0, "r0": 2, "qF": 0.25}, False),
    "ints_past_2_53": ({"rA": 2**53, "pB": 1, "qE": 1}, True),
    "fraction": ({"rA": Fraction(1, 3), "pB": Fraction(2, 7), "qE": 1, "rD": 1}, True),
}


@pytest.mark.parametrize("weights, tabled", list(PATH_CHAIN_CASES.values()),
                         ids=list(PATH_CHAIN_CASES))
@pytest.mark.parametrize("fn, resample", [(adap_mc, False), (alg_mc, True)])
def test_path_chain_mc_bit_identical_to_row_walk_reference(weights, tabled, fn, resample):
    for trials in (1, 1025, 2500):
        want = reference_mc(*path_chain_case(weights), trials, 13, resample)
        for workers in (1, 2):
            tree, f, universe, dist = path_chain_case(weights)
            calls = []
            record_values(f, calls)
            rep = fn(tree, f, universe, dist, trials, 13, workers=workers)
            assert [rep.value.hex(), rep.stderr.hex()] == [x.hex() for x in want], trials
            assert bool(calls) == tabled


@pytest.mark.parametrize("weights, tabled", list(PATH_CHAIN_CASES.values()),
                         ids=list(PATH_CHAIN_CASES))
def test_path_chain_row_values_equal_f(weights, tabled):
    # every joint profile as a walked row, a row with nothing revealed, and rows
    # where two ids share a type name (a last id repeats rA), which counts once
    tree, f, universe, dist = path_chain_case(weights)
    names = _Prepared(tree, universe, dist).names + ["rA"]
    ids = {t: g for g, t in enumerate(names[:-1])}
    profiles = [[ids[t] for t in p] for p in itertools.product(*universe.type_space.values())]
    shared = [[ids["rA"], ids[t], len(names) - 1] for t in ("pB", "pC", "pX")]
    rows = np.array(profiles + shared + [[-1, -1, -1]], dtype=np.intp)
    want = [float(f(names[g] for g in row if g >= 0)).hex() for row in rows.tolist()]
    assert [x.hex() for x in _row_values(f, names)(rows)] == want


@pytest.mark.parametrize("workers", [1, 2])
def test_mc_table_route_compiles_f_once_per_call(workers):
    # Fraction weights take the table route; its 2,500 rows hold many distinct paths
    tree, f, universe, dist = coverage_case(*COVERAGE_CASES["fraction"][:2])
    compiles, calls = count_compiles(f), []
    record_values(f, calls)
    alg_mc(tree, f, universe, dist, 2500, 13, workers=workers)
    assert len(compiles) == 1 and len(set(calls)) > 1


def test_path_sum_compiles_f_once_per_call():
    b = gen_random_instance(3)
    args = (b.tree, b.valuation, b.universe, b.dist)
    want = adap_exact(*args).value
    compiles = count_compiles(b.valuation)
    assert adap_by_path_enumeration(*args) == want
    assert len(compiles) == 1


def test_mc_path_table_shared_by_threads():
    # the blocks of one call share its compiled form's table; a thread switch between
    # a lookup and a store may only repeat a valuation, never change a value.
    # Fraction weights keep the w-ary tree's rank on the table.
    tree, f, universe, dist = MC_CASES["wary_tree"]()
    f = WeightedRankValuation(f.family, dict.fromkeys(f.weights, Fraction(1)))
    want = alg_mc(tree, f, universe, dist, 8 * MC_BLOCK, 21)
    calls = []
    record_values(f, calls)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = alg_mc(tree, f, universe, dist, 8 * MC_BLOCK, 21, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert (got.value, got.stderr) == (want.value, want.stderr)
    assert calls


def test_mc_thread_pool_bounded_by_cpus(monkeypatch):
    # a serial stand-in records the pool size; no thread starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(smplab.evaluate, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(smplab.evaluate.os, "cpu_count", lambda: 3)
    args = MC_CASES["random_0"]()
    want = alg_mc(*args, 5 * MC_BLOCK, 4)
    got = [alg_mc(*args, trials, 4, workers=10**6) for trials in (5 * MC_BLOCK, 2 * MC_BLOCK)]
    assert sizes == [3, 2]  # at most one thread per CPU, and per block
    assert (got[0].value, got[0].stderr) == (want.value, want.stderr)


@pytest.mark.parametrize("fn", [adap_mc, alg_mc])
@pytest.mark.parametrize("trials, seed, error", [(0, 1, "trials"), (8, -1, "seed"),
                                                  (MC_TRIAL_CAP + 1, 1, "MC_TRIAL_CAP")])
def test_mc_refuses_before_any_tree_work(monkeypatch, fn, trials, seed, error):
    def compile_tree(*args):
        raise AssertionError("the tree was compiled")

    monkeypatch.setattr(smplab.evaluate, "_CodedTree", compile_tree)
    with pytest.raises(ValidationError, match=error):
        fn(*MC_CASES["random_0"](), trials, seed)


class TestBestNonadaptive:
    def test_nothing_feasible(self):
        universe, dist, f, _ = bernoulli_indicator()
        from smplab import CardinalityConstraint

        seq, value = best_nonadaptive_exact(
            universe, dist, f, CardinalityConstraint(0), 3
        )
        assert seq == () and value == 0

    def test_two_column_toy(self):
        # three elements on a tiny DAG: both maximal paths tie, the
        # lexicographically smaller one must be returned
        eps = Fraction(3, 10)
        universe = universe_from_type_space(
            {e: (f"{e}:on", f"{e}:off") for e in ("e0,0", "e0,1", "e1,0")}
        )
        dist = TypeDistribution(
            {e: {f"{e}:on": eps, f"{e}:off": 1 - eps} for e in universe.elements}
        )
        f = partition_weighted_valuation(
            {"e0,0:on": "col0", "e0,1:on": "col0", "e1,0:on": "col1"},
            {"col0": 1, "col1": 1 - eps},
        )
        constraint = DagPathConstraint(
            {"e0,0": {"e0,1", "e1,0"}, "e0,1": set(), "e1,0": set()}, "e0,0"
        )
        seq, value = best_nonadaptive_exact(universe, dist, f, constraint, 3)
        assert value == eps * (2 - eps) == Fraction(51, 100)
        assert seq == ("e0,0", "e0,1")
        assert (seq, value) == brute_best_nonadaptive(universe, dist, f, constraint, 3)

    def test_matches_brute_on_random_instances(self):
        for inst in small_instances(range(70, 76)):
            got = best_nonadaptive_exact(
                inst.universe, inst.dist, inst.valuation, inst.constraint, 3
            )
            want = brute_best_nonadaptive(
                inst.universe, inst.dist, inst.valuation, inst.constraint, 3
            )
            assert got == want

    def test_tree_fan_respects_closed_form_bound(self):
        for p in (Fraction(1, 8), Fraction(3, 10)):
            bundle = gen_tree_lb(2, 2, p)
            _, value = best_nonadaptive_exact(
                bundle.universe, bundle.dist, bundle.valuation, bundle.constraint, 4
            )
            assert value <= bundle.metadata["nonadaptive_bound"]

    def test_sequence_cap(self, monkeypatch):
        inst = gen_random_instance(80)
        monkeypatch.setattr("smplab.evaluate.SEQUENCE_CAP", 1)
        pairs = r"more than 1 distinct \(set, constraint state\) pairs"
        with pytest.raises(ExactCapExceeded, match=pairs):
            best_nonadaptive_exact(inst.universe, inst.dist, inst.valuation, inst.constraint, 4)

    def test_chain_tree_value_equals_probed_set_value(self):
        # evaluating the best fixed sequence as a degenerate tree reproduces it
        for inst in small_instances(range(76, 80)):
            seq, value = best_nonadaptive_exact(
                inst.universe, inst.dist, inst.valuation, inst.constraint, 3
            )
            if not seq:
                continue
            tree = chain_tree(inst.universe, seq)
            assert adap_exact(tree, inst.valuation, inst.universe, inst.dist).value == value

    def test_reference_trees_dominate_best_nonadaptive(self):
        bundle = gen_submodular_lb(Fraction(1, 3))
        adap = adap_exact(bundle.tree, bundle.valuation, bundle.universe, bundle.dist).value
        _, alg = best_nonadaptive_exact(
            bundle.universe, bundle.dist, bundle.valuation, bundle.constraint,
            len(bundle.universe),
        )
        assert adap >= alg
        tree_bundle = gen_tree_lb(2, 2, Fraction(1, 8))
        adap = adap_exact(
            tree_bundle.tree, tree_bundle.valuation, tree_bundle.universe, tree_bundle.dist
        ).value
        _, alg = best_nonadaptive_exact(
            tree_bundle.universe, tree_bundle.dist, tree_bundle.valuation,
            tree_bundle.constraint, 4,
        )
        assert adap >= alg


def _weighted_instance():
    params = RandomInstanceParams(
        max_elements=4,
        valuation_kinds=("matroid_intersection_rank", "matching_rank"),
        k_extendible=2,
        weight_high=1024,
    )
    return gen_random_instance(0, params)


# evaluator -> (instance builder, call); alg_exact and best_nonadaptive_exact take the
# triangle in floats, where a rational coverage would skip the fresh-draw charges
_CAPPED = {
    "alg_exact": (
        lambda: gen_submodular_lb(0.25),
        lambda b: alg_exact(b.tree, b.valuation, b.universe, b.dist),
    ),
    "greedy_interleaved_exact": (
        lambda: gen_tree_lb(2, 2, Fraction(1, 3)),
        lambda b: greedy_interleaved_exact(b.tree, b.family, b.universe, b.dist),
    ),
    "combined_value": (
        _weighted_instance,
        lambda b: combined_value(b.tree, b.weights, b.family, 2, b.universe, b.dist),
    ),
    "best_nonadaptive_exact": (
        lambda: gen_submodular_lb(0.25),
        lambda b: best_nonadaptive_exact(b.universe, b.dist, b.valuation, b.constraint, 3),
    ),
    "adap_exact": (
        lambda: gen_submodular_lb(Fraction(1, 4)),
        lambda b: adap_exact(b.tree, b.valuation, b.universe, b.dist),
    ),
    "adap_by_path_enumeration": (
        lambda: gen_submodular_lb(Fraction(1, 4)),
        lambda b: adap_by_path_enumeration(b.tree, b.valuation, b.universe, b.dist),
    ),
}


_NO_MC = "this value has no Monte Carlo route, so use a smaller instance"

#: Each ``_CAPPED`` refusal at work cap 3: "use MC" only where ``smplab eval --mode mc`` has a route.
_REFUSALS = {
    "alg_exact": "exact evaluation exceeded the work cap of 3: fresh draws of a 11-element "
                 "set need 4094 units on top of 0; use MC",
    "greedy_interleaved_exact": f"exact evaluation exceeded the work cap of 3; {_NO_MC}",
    "combined_value": "exact evaluation exceeded the work cap of 3: fresh draws of a 3-element "
                      f"set need 39 units on top of 3; {_NO_MC}",
    "best_nonadaptive_exact": "exact evaluation exceeded the work cap of 3: fresh draws of a "
                              f"2-element set need 6 units on top of 2; {_NO_MC}",
    "adap_exact": "exact evaluation exceeded the work cap of 3; use MC",
    "adap_by_path_enumeration": "exact evaluation exceeded the work cap of 3; use MC",
}


def test_coverage_routes_refuse_and_state_the_cap(monkeypatch):
    # the rational triangle: alg's one node at a time, best-na's one product per set
    # (1 + 2 units for its first two sets, 3 more for the third)
    bundle = gen_submodular_lb(Fraction(1, 4))
    monkeypatch.setattr(smplab.evaluate, "WORK_CAP", 3)
    with pytest.raises(ExactCapExceeded) as refused:
        alg_exact(bundle.tree, bundle.valuation, bundle.universe, bundle.dist)
    assert str(refused.value) == "exact evaluation exceeded the work cap of 3; use MC"
    with pytest.raises(ExactCapExceeded) as refused:
        best_nonadaptive_exact(bundle.universe, bundle.dist, bundle.valuation,
                               bundle.constraint, 3)
    assert str(refused.value) == f"exact evaluation exceeded the work cap of 3; {_NO_MC}"


@pytest.mark.parametrize("evaluate", [adap_exact, alg_exact], ids=["adap_exact", "alg_exact"])
def test_exact_routes_name_a_missing_row_or_type(evaluate):
    universe, dist, tree = on_off_chain(4, Fraction(1, 2))
    f = coverage_valuation({f"x{i}.on": {i} for i in range(4)})
    rows = {e: row for e, row in dist.probs.items() if e != "x3"}
    with pytest.raises(ValidationError) as refused:
        evaluate(tree, f, universe, TypeDistribution(rows))
    assert str(refused.value) == "distribution['x3'] is missing"
    rows["x3"] = {"x3.on": 1}
    with pytest.raises(ValidationError) as refused:
        evaluate(tree, f, universe, TypeDistribution(rows))
    assert str(refused.value) == "distribution['x3']['x3.off'] is missing"


@pytest.mark.parametrize("evaluate", [adap_mc, alg_mc], ids=["adap_mc", "alg_mc"])
def test_mc_routes_name_a_missing_row_and_read_no_unprobed_one(evaluate):
    universe, dist, tree = on_off_chain(4, Fraction(1, 2))
    f = coverage_valuation({f"x{i}.on": {i} for i in range(4)})
    rows = {e: row for e, row in dist.probs.items() if e != "x3"}
    with pytest.raises(ValidationError) as refused:
        evaluate(tree, f, universe, TypeDistribution(rows), 100, 0)
    assert str(refused.value) == "distribution['x3'] is missing"
    with pytest.raises(ValidationError) as refused:
        evaluate(tree, f, universe, TypeDistribution({**rows, "x3": {"x3.on": 1}}), 100, 0)
    assert str(refused.value) == "distribution['x3']['x3.off'] is missing"
    # a tree that never probes x3 draws the same estimate without its row
    short = chain_tree(universe, ["x0", "x1", "x2"])
    got = evaluate(short, f, universe, TypeDistribution(rows), 100, 0)
    want = evaluate(short, f, universe, dist, 100, 0)
    assert (got.value, got.stderr) == (want.value, want.stderr)


@pytest.mark.parametrize(
    "evaluator",
    list(_CAPPED),
    # fixed ids, so that a case keeps its id when cases are added or removed
    ids=[
        "alg_exact-cap0-work cap of 3",
        "greedy_interleaved_exact-cap2-work cap of 3",
        "combined_value-cap4-work cap of 3",
        "best_nonadaptive_exact-cap6-work cap of 3",
        "adap_exact-work cap of 3",
        "adap_by_path_enumeration-work cap of 3",
    ],
)
def test_exact_caps_refuse_and_state_the_cap(monkeypatch, evaluator):
    # every exact route reads the one cap when its evaluation starts
    instance, evaluate = _CAPPED[evaluator]
    monkeypatch.setattr(smplab.evaluate, "WORK_CAP", 3)
    with pytest.raises(ExactCapExceeded, match="work cap of 3") as refused:
        evaluate(instance())
    assert str(refused.value) == _REFUSALS[evaluator]


class TestInequalitySuites:
    def test_submodular_half_gap_sample(self):
        for seed in range(80):
            inst = gen_random_instance(
                seed,
                RandomInstanceParams(
                    valuation_kinds=("coverage", "partition_weighted")
                ),
            )
            rep = submodular_gap_report(inst.tree, inst.valuation, inst.universe, inst.dist)
            assert rep["ok"], (seed, rep)

    def test_kextendible_chain_sample(self):
        for seed in range(60):
            inst = gen_random_instance(
                seed,
                RandomInstanceParams(
                    valuation_kinds=("matroid_intersection_rank", "matching_rank")
                ),
            )
            rep = kextendible_chain_report(
                inst.tree, inst.family, inst.metadata["k"],
                inst.universe, inst.dist, valuation=inst.valuation,
            )
            assert rep["ok_k"] and rep["ok_2"], (seed, rep)

    def test_reports_check_each_tree_and_compile_each_valuation_once(self, monkeypatch):
        # a report prepares its instance once, so its evaluators share the tree check
        # and the compiled valuation; before, each evaluator did both again
        calls = collections.Counter()

        def counted(fn, key):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        checks = counted(strategy._tree_nodes, "checks")
        monkeypatch.setattr(strategy, "_tree_nodes", checks)
        monkeypatch.setattr(smplab.evaluate, "_tree_nodes", checks)
        half = RandomInstanceParams(valuation_kinds=("coverage", "partition_weighted"))
        rank = RandomInstanceParams(valuation_kinds=("matroid_intersection_rank", "matching_rank"))
        for seed in range(8):
            for params in (half, rank):
                inst = gen_random_instance(seed, params)
                inst.valuation._compiled = counted(inst.valuation._compiled, "compiles")
                calls.clear()
                if params is half:
                    submodular_gap_report(inst.tree, inst.valuation, inst.universe, inst.dist)
                else:
                    kextendible_chain_report(inst.tree, inst.family, inst.metadata["k"],
                                             inst.universe, inst.dist, valuation=inst.valuation)
                assert calls == {"checks": 1, "compiles": 1}, (seed, params)
