"""Decision trees, probing constraints, feasibility, and tree walks."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from smplab import (
    TypeDistribution,
    ValidationError,
    chain_tree,
    check_prefix_closed,
    check_tree_feasible,
    constraint_budget,
    constraint_cardinality,
    constraint_dag_path,
    constraint_table,
    constraint_tree_fan,
    gen_random_instance,
    gen_submodular_lb,
    leaf,
    probe,
    universe_from_type_space,
    validate_tree,
)
from smplab.evaluate import iter_tree_paths
from smplab.instances import RandomInstanceParams

from oracles import profiles, repeats_on_a_path, walk


def coin(name):
    return (f"{name}.h", f"{name}.t")


def coin_universe(names, p=0.5):
    universe = universe_from_type_space({n: coin(n) for n in names})
    dist = TypeDistribution(
        {n: {f"{n}.h": p, f"{n}.t": 1 - p} for n in names}
    )
    return universe, dist


class TestTreeConstruction:
    def test_leaf_roundtrip(self):
        assert leaf().is_leaf

    def test_repeated_element_rejected(self):
        universe, _ = coin_universe(["a"])
        inner = probe("a", {"a.h": leaf(), "a.t": leaf()})
        tree = probe("a", {"a.h": inner, "a.t": leaf()})  # built without a check
        with pytest.raises(ValidationError, match="element 'a' repeats on a probing path"):
            validate_tree(tree, universe)

    def test_repeat_reached_first_through_a_clean_path(self):
        # the shared node s is reached both under c alone and under c, a; the
        # repeat of a below s lies only on the second kind of path
        universe, _ = coin_universe(["a", "b", "c"])
        s = probe("b", {"b.h": probe("a", {"a.h": leaf(), "a.t": leaf()}), "b.t": leaf()})
        tree = probe("c", {"c.h": probe("a", {"a.h": s, "a.t": s}), "c.t": s})
        with pytest.raises(ValidationError, match="element 'a' repeats"):
            validate_tree(tree, universe)
        at_shared = probe("c", {"c.h": probe("b", {"b.h": s, "b.t": s}), "c.t": s})
        with pytest.raises(ValidationError, match="element 'b' repeats"):
            validate_tree(at_shared, universe)
        assert validate_tree(probe("c", {"c.h": s, "c.t": s}), universe) is True

    def test_deep_chain_validates_without_recursion(self):
        names = [f"x{i}" for i in range(3000)]
        universe, _ = coin_universe(names)
        assert validate_tree(chain_tree(universe, names), universe) is True
        with pytest.raises(ValidationError, match="element 'x0' repeats"):
            validate_tree(chain_tree(universe, names + ["x0"]), universe)

    def test_validate_requires_arc_per_type(self):
        universe, _ = coin_universe(["a"])
        bad = probe("a", {"a.h": leaf()})
        with pytest.raises(ValidationError):
            validate_tree(bad, universe)

    def test_validate_unknown_element(self):
        universe, _ = coin_universe(["a"])
        tree = probe("z", {"anything": leaf()})
        with pytest.raises(ValidationError):
            validate_tree(tree, universe)

    def test_validate_tells_whether_a_subtree_is_shared(self):
        universe, _ = coin_universe(["a", "b"])
        # chain_tree hangs one node under both arcs; shared leaves do not count
        assert validate_tree(chain_tree(universe, ["a", "b"]), universe) is True
        assert validate_tree(chain_tree(universe, ["a"]), universe) is False
        assert validate_tree(leaf(), universe) is False
        for seed in range(5):
            inst = gen_random_instance(seed)
            assert validate_tree(inst.tree, inst.universe) is False

    def test_chain_tree_probes_fixed_sequence(self):
        universe, dist = coin_universe(["a", "b"])
        tree = chain_tree(universe, ["b", "a"])
        validate_tree(tree, universe)
        paths = list(iter_tree_paths(tree, dist))
        assert len(paths) == 4
        assert all(tuple(e for e, _ in steps) == ("b", "a") for steps, _ in paths)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_validate_tree_finds_exactly_the_path_repeats(data):
    # random DAGs over four coins: nodes reuse earlier nodes as children, and
    # chain_tree hangs one node under every arc of each probe
    names = ["a", "b", "c", "d"]
    universe, _ = coin_universe(names)
    pool = [leaf()]
    for _ in range(data.draw(st.integers(1, 7))):
        if data.draw(st.booleans()):
            seq = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
            pool.append(chain_tree(universe, seq))
        else:
            e = data.draw(st.sampled_from(names))
            kids = {t: data.draw(st.sampled_from(pool)) for t in coin(e)}
            pool.append(probe(e, kids))
    tree = pool[-1]
    if repeats_on_a_path(tree):
        with pytest.raises(ValidationError, match="repeats on a probing path"):
            validate_tree(tree, universe)
    else:
        validate_tree(tree, universe)


class TestFeasibility:
    def test_leaf_only_tree_is_feasible(self):
        ok, witness = check_tree_feasible(leaf(), constraint_cardinality(0))
        assert ok and witness is None

    def test_cardinality_two_rejects_depth_three(self):
        universe, _ = coin_universe(["a", "b", "c"])
        tree = chain_tree(universe, ["a", "b", "c"])
        ok, witness = check_tree_feasible(tree, constraint_cardinality(2))
        assert not ok
        assert witness == ("a", "b", "c")

    def test_dag_strategy_tree_is_feasible(self):
        bundle = gen_submodular_lb(Fraction(1, 2))
        ok, witness = check_tree_feasible(bundle.tree, bundle.constraint)
        assert ok, witness

    def test_adaptive_branching_respects_constraint(self):
        # probe e00 then e01 or e10 depending on the outcome
        bundle = gen_submodular_lb(Fraction(1, 2))
        ts = bundle.universe.type_space
        tree = probe(
            "e0,0",
            {
                "e0,0:on": probe("e1,0", {t: leaf() for t in ts["e1,0"]}),
                "e0,0:off": probe("e0,1", {t: leaf() for t in ts["e0,1"]}),
            },
        )
        ok, witness = check_tree_feasible(tree, bundle.constraint)
        assert ok, witness


class TestRandomWalk:
    def test_leaf_only_walk_is_empty(self):
        assert walk(leaf(), {}) == ()

    def test_depth_one_walk(self):
        universe, _ = coin_universe(["a"])
        tree = chain_tree(universe, ["a"])
        for t in coin("a"):
            assert walk(tree, {"a": t}) == (("a", t),)

    def test_all_inactive_walk_descends_first_column(self):
        bundle = gen_submodular_lb(Fraction(1, 2))
        vec = {e: bundle.universe.type_space[e][1] for e in bundle.universe.elements}
        steps = walk(bundle.tree, vec)
        assert tuple(e for e, _ in steps) == ("e0,0", "e0,1", "e0,2", "e0,3")

    def test_leaf_distribution_matches_arc_products(self):
        for seed in range(8):
            inst = gen_random_instance(
                seed, RandomInstanceParams(max_elements=5, max_types=3)
            )
            reached: dict = {}
            for vec, p in profiles(inst.universe, inst.dist):
                steps = walk(inst.tree, vec)
                reached[steps] = reached.get(steps, 0) + p
            by_product = dict(iter_tree_paths(inst.tree, inst.dist))
            assert set(reached) == set(by_product)
            for steps, p in by_product.items():
                assert reached[steps] == p


class TestBudget:
    def test_zero_budget(self):
        c = constraint_budget({"a": 1, "b": 1}, 0)
        assert not c.may_extend((), "a")

    def test_unit_costs_budget_two(self):
        c = constraint_budget({"a": 1, "b": 1, "c": 1}, 2)
        assert c.allows(("a", "b"))
        assert not c.allows(("a", "b", "c"))

    def test_fractional_costs(self):
        c = constraint_budget({"a": 1.5, "b": 1}, 2)
        assert c.may_extend((), "a")
        assert c.may_extend((), "b")
        assert not c.may_extend(("a",), "b")
        assert not c.may_extend(("b",), "a")

    def test_unknown_cost_is_error(self):
        c = constraint_budget({"a": 1}, 2)
        with pytest.raises(ValidationError):
            c.may_extend((), "zzz")

    @pytest.mark.parametrize(
        "cost, budget, named",
        [
            ({"a": math.nan}, 2, "cost of 'a'"),
            ({"a": math.inf}, 2, "cost of 'a'"),
            ({"a": 1}, math.nan, "budget"),
            ({"a": 1}, math.inf, "budget"),
        ],
    )
    def test_non_finite_rejected(self, cost, budget, named):
        with pytest.raises(ValidationError, match=f"{named} is .*not a finite"):
            constraint_budget(cost, budget)


class TestDagPath:
    def arcs(self):
        return {
            "e0,0": {"e0,1", "e1,0"},
            "e0,1": {"e0,2", "e2,0"},
            "e1,0": {"e1,1", "e2,0"},
        }

    def test_empty_prefix_extends_only_by_start(self):
        c = constraint_dag_path(self.arcs(), "e0,0")
        assert c.may_extend((), "e0,0")
        assert not c.may_extend((), "e0,1")

    def test_successors_of_start(self):
        c = constraint_dag_path(self.arcs(), "e0,0")
        allowed = {e for e in ("e0,1", "e1,0", "e0,2", "e2,0") if c.may_extend(("e0,0",), e)}
        assert allowed == {"e0,1", "e1,0"}

    def test_non_adjacent_jump_rejected(self):
        c = constraint_dag_path(self.arcs(), "e0,0")
        assert not c.may_extend(("e0,0",), "e0,2")


class TestTreeFan:
    def edges(self):
        # depth-2 binary tree rooted at r
        return {
            "e0": ("r", "v0"),
            "e1": ("r", "v1"),
            "e00": ("v0", "v00"),
            "e01": ("v0", "v01"),
            "e10": ("v1", "v10"),
            "e11": ("v1", "v11"),
        }

    def test_any_single_edge_allowed(self):
        c = constraint_tree_fan(self.edges(), "r")
        for e in self.edges():
            assert c.may_extend((), e)

    def test_disjoint_subtrees_rejected(self):
        c = constraint_tree_fan(self.edges(), "r")
        assert not c.may_extend(("e00",), "e10")
        assert not c.may_extend(("e00", "e01"), "e11")

    def test_all_edges_incident_to_one_path_in_any_order(self):
        c = constraint_tree_fan(self.edges(), "r")
        incident = ["e0", "e1", "e00", "e01"]  # every edge touching r-v0-v00
        for order in itertools.permutations(incident):
            assert c.allows(order), order

    def test_deep_path_builds_without_recursion(self):
        edges = {f"e{i}": (f"v{i}", f"v{i + 1}") for i in range(3000)}
        edges.update({"x": ("v10", "w"), "y": ("w", "w1")})  # a branch off v10
        c = constraint_tree_fan(edges, "v0")
        assert c.may_extend(("e0", "e2999"), "e1500")
        assert c.may_extend(("x", "y"), "e5")
        assert not c.may_extend(("y",), "e2999")

    def test_unknown_edge_is_error(self):
        c = constraint_tree_fan(self.edges(), "r")
        with pytest.raises(ValidationError):
            c.may_extend((), "nope")

    def test_at_most_w_times_k_edges_probeable(self):
        # every feasible sequence touches one root-leaf path: at most w*k edges
        c = constraint_tree_fan(self.edges(), "r")
        longest = 0

        def walk(prefix, used):
            nonlocal longest
            longest = max(longest, len(prefix))
            for e in self.edges():
                if e not in used and c.may_extend(prefix, e):
                    walk(prefix + (e,), used | {e})

        walk((), frozenset())
        assert longest == 4  # w=2, k=2


def test_feasibility_agrees_with_path_enumeration():
    # walking every root-leaf element sequence and asking the oracle directly
    # must agree with check_tree_feasible
    def all_element_paths(node, prefix):
        if node.is_leaf:
            yield prefix
            return
        for child in node.children.values():
            yield from all_element_paths(child, prefix + (node.element,))

    for seed in range(25):
        inst = gen_random_instance(seed)
        for constraint in (
            inst.constraint,
            constraint_cardinality(2),
            constraint_cardinality(0),
        ):
            expected = all(
                constraint.allows(path)
                for path in all_element_paths(inst.tree, ())
            )
            got, witness = check_tree_feasible(inst.tree, constraint)
            assert got == expected
            if not got:
                assert not constraint.allows(witness)


class TestPrefixClosure:
    def test_stepwise_constraints_pass(self):
        universe, _ = coin_universe(["a", "b", "c"])
        for c in (
            constraint_budget({"a": 1, "b": 1, "c": 1}, 2),
            constraint_cardinality(2),
            constraint_dag_path({"a": {"b"}, "b": {"c"}}, "a"),
        ):
            ok, witness = check_prefix_closed(c, universe, 3)
            assert ok, witness

    def test_table_missing_prefix_detected(self):
        universe, _ = coin_universe(["a", "b"])
        c = constraint_table([("a", "b")])
        ok, witness = check_prefix_closed(c, universe, 3)
        assert not ok
        assert witness == ("a", "b")

    def test_closed_table_passes(self):
        universe, _ = coin_universe(["a", "b"])
        c = constraint_table([("a",), ("a", "b")])
        ok, witness = check_prefix_closed(c, universe, 3)
        assert ok, witness
