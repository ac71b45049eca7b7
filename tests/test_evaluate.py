"""Evaluators vs independent oracles, Monte Carlo soundness, and the gap
inequality suites at module scale (the acceptance suite runs them big)."""

import sys
from fractions import Fraction

import pytest

from smplab import (
    ExactCapExceeded,
    RandomInstanceParams,
    TypeDistribution,
    adap_by_path_enumeration,
    adap_exact,
    adap_mc,
    alg_exact,
    alg_mc,
    best_nonadaptive_exact,
    chain_tree,
    combined_value,
    coverage_valuation,
    constraint_dag_path,
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
    weighted_rank,
)
from smplab.core import iter_type_profiles
from smplab.evaluate import MC_BLOCK
from oracles import (
    brute_adap,
    brute_alg,
    brute_best_nonadaptive,
    brute_greedy_interleaved,
    reference_mc,
)


def bernoulli_indicator(p=Fraction(1, 2)):
    universe = universe_from_type_space({"e": ("e.on", "e.off")})
    dist = TypeDistribution({"e": {"e.on": p, "e.off": 1 - p}})
    f = coverage_valuation({"e.on": {"hit"}})
    tree = chain_tree(universe, ["e"])
    return universe, dist, f, tree


def small_instances(seeds, **kwargs):
    params = RandomInstanceParams(max_elements=4, max_types=2, **kwargs)
    return [gen_random_instance(s, params) for s in seeds]


def _zero_first_types(dist):
    """``dist`` with the first type of every multi-type element at probability 0."""
    rows = {}
    for e, row in dist.probs.items():
        first = next(iter(row))
        if len(row) > 1:
            row = {t: 0 if t == first else p / (1 - row[first]) for t, p in row.items()}
        rows[e] = row
    return TypeDistribution(rows)


def _reached_prefixes(node, dist, prefix=()):
    """Preorder prefixes of the internal nodes reached by positive-probability arcs."""
    if node.is_leaf:
        return []
    out = [prefix]
    for t, child in node.children.items():
        if dist.prob(node.element, t) != 0:
            out += _reached_prefixes(child, dist, prefix + ((node.element, t),))
    return out


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

    def test_trace_contains_root_value(self):
        universe, dist, f, tree = bernoulli_indicator()
        rep = adap_exact(tree, f, universe, dist, want_trace=True)
        assert rep.trace[()] == rep.value
        # on random trees with zero-probability arcs the keys are exactly
        # the prefixes of the internal nodes that positive arcs reach
        for inst in [gen_random_instance(s) for s in range(10)]:
            dist = _zero_first_types(inst.dist)
            rep = adap_exact(inst.tree, inst.valuation, inst.universe, dist, want_trace=True)
            assert list(rep.trace) == _reached_prefixes(inst.tree, dist)
            assert rep.trace.get((), 0) == rep.value

    def test_work_cap(self):
        bundle = gen_submodular_lb(Fraction(1, 4))
        with pytest.raises(ExactCapExceeded):
            adap_exact(
                bundle.tree, bundle.valuation, bundle.universe, bundle.dist, work_cap=3
            )


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

    def test_online_trace_lower_bounds_alg(self):
        for inst in small_instances(
            range(42, 50),
            valuation_kinds=("matroid_intersection_rank", "matching_rank"),
        ):
            rep = greedy_interleaved_exact(
                inst.tree, inst.family, inst.universe, inst.dist, want_trace=True
            )
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


def test_mc_path_table_shared_by_threads():
    # the blocks of one call share its path table; a thread switch between a
    # lookup and a store may only repeat a valuation, never change a value
    args = MC_CASES["wary_tree"]()
    want = alg_mc(*args, 8 * MC_BLOCK, 21)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = alg_mc(*args, 8 * MC_BLOCK, 21, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert (got.value, got.stderr) == (want.value, want.stderr)


class TestBestNonadaptive:
    def test_nothing_feasible(self):
        universe, dist, f, _ = bernoulli_indicator()
        from smplab import constraint_cardinality

        seq, value = best_nonadaptive_exact(
            universe, dist, f, constraint_cardinality(0), 3
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
        constraint = constraint_dag_path(
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

    def test_sequence_cap(self):
        inst = gen_random_instance(80)
        with pytest.raises(ExactCapExceeded):
            best_nonadaptive_exact(
                inst.universe,
                inst.dist,
                inst.valuation,
                inst.constraint,
                4,
                sequence_cap=1,
            )

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


# evaluator -> (instance builder, call with cap keywords)
_CAPPED = {
    "alg_exact": (
        lambda: gen_submodular_lb(Fraction(1, 4)),
        lambda b, **cap: alg_exact(b.tree, b.valuation, b.universe, b.dist, **cap),
    ),
    "greedy_interleaved_exact": (
        lambda: gen_tree_lb(2, 2, Fraction(1, 3)),
        lambda b, **cap: greedy_interleaved_exact(
            b.tree, b.family, b.universe, b.dist, **cap),
    ),
    "combined_value": (
        _weighted_instance,
        lambda b, **cap: combined_value(
            b.tree, b.weights, b.family, 2, b.universe, b.dist, **cap),
    ),
    "best_nonadaptive_exact": (
        lambda: gen_submodular_lb(Fraction(1, 4)),
        lambda b, **cap: best_nonadaptive_exact(
            b.universe, b.dist, b.valuation, b.constraint, 3, **cap),
    ),
}
_WORK = ({"work_cap": 3}, "work cap of 3")
_ASSIGNMENTS = ({"assignment_cap": 3}, "more than 3 joint assignments")


@pytest.mark.parametrize(
    "evaluator, cap, message",
    [
        ("alg_exact", *_WORK),
        ("alg_exact", *_ASSIGNMENTS),
        ("greedy_interleaved_exact", *_WORK),
        ("greedy_interleaved_exact", *_ASSIGNMENTS),
        ("combined_value", *_WORK),
        ("combined_value", *_ASSIGNMENTS),
        # no work cap here: sequence_cap x assignment_cap bounds the work
        ("best_nonadaptive_exact", *_ASSIGNMENTS),
    ],
)
def test_exact_caps_refuse_and_state_the_cap(evaluator, cap, message):
    instance, evaluate = _CAPPED[evaluator]
    with pytest.raises(ExactCapExceeded, match=message):
        evaluate(instance(), **cap)


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
