"""Decision trees, probing constraints, feasibility, and tree walks."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from smplab import (
    BudgetConstraint,
    CardinalityConstraint,
    DagPathConstraint,
    TableConstraint,
    TreeFanConstraint,
    TypeDistribution,
    ValidationError,
    chain_tree,
    check_prefix_closed,
    check_tree_feasible,
    gen_random_instance,
    gen_submodular_lb,
    leaf,
    probe,
    universe_from_type_space,
    validate_tree,
)
from smplab.evaluate import _tree_paths
from smplab.instances import RandomInstanceParams
from smplab.strategy import _feasible_sequences

from oracles import profiles, reference_allows, repeats_on_a_path, walk


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
        paths = list(_tree_paths(tree, dist.probs.__getitem__))
        assert len(paths) == 4
        assert all(tuple(e for e, _ in steps) == ("b", "a") for steps, _ in paths)


class TestTreeEquality:
    def test_paper_scale_triangles_compare_equal(self):
        eps = Fraction(1, 10)
        assert gen_submodular_lb(eps).tree == gen_submodular_lb(eps).tree

    def test_deep_chains_compare_without_recursion(self):
        names = [f"x{i}" for i in range(3000)]
        universe, _ = coin_universe(names + ["y"])
        assert chain_tree(universe, names) == chain_tree(universe, names)
        assert chain_tree(universe, names) != chain_tree(universe, names[:-1] + ["y"])

    def test_difference_deep_in_a_shared_subtree(self):
        # a copy of the chain differs only below its last "t" arc; every "h"
        # arc leads into an equal copy of the chain's rest, 2**39 paths deep
        names = [f"x{i}" for i in range(40)]
        universe, _ = coin_universe(names + ["y", "z"])
        tree = chain_tree(universe, names + ["y"])
        rest = [chain_tree(universe, names[i:] + ["y"]) for i in range(1, 41)]
        for last in ("y", "z"):
            node = chain_tree(universe, [last])
            for i in reversed(range(40)):
                node = probe(names[i], {f"{names[i]}.h": rest[i], f"{names[i]}.t": node})
            assert (node == tree) == (last == "y")

    def test_sharing_does_not_matter(self):
        universe, _ = coin_universe(["a", "b"])
        shared = chain_tree(universe, ["b"])
        copies = {t: chain_tree(universe, ["b"]) for t in ("a.h", "a.t")}
        assert probe("a", {"a.h": shared, "a.t": shared}) == probe("a", copies)
        assert leaf() == leaf() and leaf() != shared and shared != "b"

    def test_arc_labels_matter(self):
        one, two = probe("a", {"a.h": leaf()}), probe("a", {"a.h": leaf(), "a.t": leaf()})
        assert one != two and two != one
        assert probe("a", {"a.t": leaf()}) != one

    def test_trees_are_not_hashable(self):
        with pytest.raises(TypeError):
            hash(leaf())


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
    def test_negative_cardinality_limit_rejected(self):
        with pytest.raises(ValidationError, match="limit must be >= 0, got -1"):
            CardinalityConstraint(-1)

    def test_leaf_only_tree_is_feasible(self):
        ok, witness = check_tree_feasible(leaf(), CardinalityConstraint(0))
        assert ok and witness is None

    def test_cardinality_two_rejects_depth_three(self):
        universe, _ = coin_universe(["a", "b", "c"])
        tree = chain_tree(universe, ["a", "b", "c"])
        ok, witness = check_tree_feasible(tree, CardinalityConstraint(2))
        assert not ok
        assert witness == ("a", "b", "c")

    def test_deep_chain_checked_without_recursion(self):
        # the chain hangs one node under both arcs, so its 2**3000 paths
        # share a single probing sequence
        names = [f"x{i}" for i in range(3000)]
        universe, _ = coin_universe(names)
        tree = chain_tree(universe, names)
        assert check_tree_feasible(tree, CardinalityConstraint(3000)) == (True, None)
        ok, witness = check_tree_feasible(tree, CardinalityConstraint(2999))
        assert not ok and witness == tuple(names)

    def test_shared_node_checked_once_per_state(self):
        # s hangs one probe below a and two below a, so it is reached at two
        # prefix lengths and only the second breaks the limit
        universe, _ = coin_universe(["a", "b", "c"])
        s = chain_tree(universe, ["c"])
        tree = probe("a", {"a.h": s, "a.t": probe("b", {"b.h": s, "b.t": s})})
        assert check_tree_feasible(tree, CardinalityConstraint(3)) == (True, None)
        assert check_tree_feasible(tree, CardinalityConstraint(2)) == (False, ("a", "b", "c"))

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
            by_product = dict(_tree_paths(inst.tree, inst.dist.probs.__getitem__))
            assert set(reached) == set(by_product)
            for steps, p in by_product.items():
                assert reached[steps] == p


class TestBudget:
    def test_zero_budget(self):
        c = BudgetConstraint({"a": 1, "b": 1}, 0)
        assert not c.allows(("a",))

    def test_unit_costs_budget_two(self):
        c = BudgetConstraint({"a": 1, "b": 1, "c": 1}, 2)
        assert c.allows(("a", "b"))
        assert not c.allows(("a", "b", "c"))

    def test_fractional_costs(self):
        c = BudgetConstraint({"a": 1.5, "b": 1}, 2)
        assert c.allows(("a",))
        assert c.allows(("b",))
        assert not c.allows(("a", "b"))
        assert not c.allows(("b", "a"))

    def test_unknown_cost_is_error(self):
        c = BudgetConstraint({"a": 1}, 2)
        with pytest.raises(ValidationError, match="element 'zzz'"):
            c.allows(("zzz",))

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
            BudgetConstraint(cost, budget)


class TestDagPath:
    def arcs(self):
        return {
            "e0,0": {"e0,1", "e1,0"},
            "e0,1": {"e0,2", "e2,0"},
            "e1,0": {"e1,1", "e2,0"},
        }

    def test_empty_prefix_extends_only_by_start(self):
        c = DagPathConstraint(self.arcs(), "e0,0")
        assert c.allows(("e0,0",))
        assert not c.allows(("e0,1",))

    def test_successors_of_start(self):
        c = DagPathConstraint(self.arcs(), "e0,0")
        allowed = {e for e in ("e0,1", "e1,0", "e0,2", "e2,0") if c.allows(("e0,0", e))}
        assert allowed == {"e0,1", "e1,0"}

    def test_non_adjacent_jump_rejected(self):
        c = DagPathConstraint(self.arcs(), "e0,0")
        assert not c.allows(("e0,0", "e0,2"))


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
        c = TreeFanConstraint(self.edges(), "r")
        for e in self.edges():
            assert c.allows((e,))

    def test_disjoint_subtrees_rejected(self):
        c = TreeFanConstraint(self.edges(), "r")
        assert not c.allows(("e00", "e10"))
        assert not c.allows(("e00", "e01", "e11"))

    def test_all_edges_incident_to_one_path_in_any_order(self):
        c = TreeFanConstraint(self.edges(), "r")
        incident = ["e0", "e1", "e00", "e01"]  # every edge touching r-v0-v00
        for order in itertools.permutations(incident):
            assert c.allows(order), order

    def test_deep_path_builds_without_recursion(self):
        edges = {f"e{i}": (f"v{i}", f"v{i + 1}") for i in range(3000)}
        edges.update({"x": ("v10", "w"), "y": ("w", "w1")})  # a branch off v10
        c = TreeFanConstraint(edges, "v0")
        assert c.allows(("e0", "e2999", "e1500"))
        assert c.allows(("x", "y", "e5"))
        assert not c.allows(("y", "e2999"))

    def test_unknown_edge_is_error(self):
        c = TreeFanConstraint(self.edges(), "r")
        with pytest.raises(ValidationError, match="element 'nope'"):
            c.allows(("nope",))

    def test_at_most_w_times_k_edges_probeable(self):
        # every feasible sequence touches one root-leaf path: at most w*k edges
        c = TreeFanConstraint(self.edges(), "r")
        longest = 0

        def walk(prefix, used):
            nonlocal longest
            longest = max(longest, len(prefix))
            for e in self.edges():
                if e not in used and c.allows(prefix + (e,)):
                    walk(prefix + (e,), used | {e})

        walk((), frozenset())
        assert longest == 4  # w=2, k=2


BINARY_FAN = TreeFanConstraint(TestTreeFan().edges(), "r")
DEEP_PATH = {f"e{i}": (f"v{i}", f"v{i + 1}") for i in range(3000)}
DEEP_FAN = TreeFanConstraint({**DEEP_PATH, "x": ("v10", "w"), "y": ("w", "w1")}, "v0")
ELEMENTS = ("a", "b", "c", "d")
COSTS = st.sampled_from([0, 1, 2, 0.1, 0.2, 0.5, 1.5, Fraction(1, 3)])


def constraints():
    names = st.sampled_from(ELEMENTS)
    return st.one_of(
        st.builds(BudgetConstraint, st.dictionaries(names, COSTS), COSTS),
        st.builds(CardinalityConstraint, st.integers(0, 4)),
        st.builds(DagPathConstraint, st.dictionaries(names, st.frozensets(names)), names),
        st.builds(TableConstraint, st.frozensets(st.lists(names, max_size=4).map(tuple))),
        st.sampled_from([BINARY_FAN, DEEP_FAN]),
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return str(exc)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(data=st.data())
def test_allows_matches_the_per_prefix_rules(data):
    # "z" is no element of any constraint; the fans draw from their own edges
    c = data.draw(constraints())
    alphabet = list(ELEMENTS)
    if c is BINARY_FAN:
        alphabet = list(BINARY_FAN.edges)
    elif c is DEEP_FAN:
        alphabet = ["e0", "e5", "e10", "e11", "e1500", "e2999", "x", "y"]
    seq = data.draw(st.lists(st.sampled_from(alphabet + ["z"]), max_size=6))
    assert _outcome(c.allows, seq) == _outcome(reference_allows, c, seq)


def test_tree_fan_allows_matches_the_per_prefix_rule_on_every_short_sequence():
    # a shallower edge after a deeper one must keep the deeper parent vertex
    alphabet = list(BINARY_FAN.edges) + ["z"]
    for n in range(5):
        for seq in itertools.product(alphabet, repeat=n):
            assert _outcome(BINARY_FAN.allows, seq) == _outcome(reference_allows, BINARY_FAN, seq)


def _state(constraint, seq):
    state = constraint.initial
    for e in seq:
        state = constraint.step(state, e)
    return state


def test_feasible_sequences_visit_each_set_and_state_once():
    # on every constraint kind the walk yields the lexicographically first
    # feasible sequence of each (set, state) pair, and only those
    cases = [(inst.constraint, sorted(inst.universe.elements), 3)
             for inst in map(gen_random_instance, range(30))]
    cases += [(BINARY_FAN, sorted(BINARY_FAN.edges), 4),
              (TableConstraint([("a",), ("a", "b"), ("b",), ("b", "a")]), ["a", "b"], 2)]
    for c, order, max_len in cases:
        every = [s for n in range(1, max_len + 1) for s in itertools.permutations(order, n)
                 if c.allows(s)]
        first: dict = {}
        for s in every:  # a pair fixes the length; one length comes in lexicographic order
            first.setdefault((frozenset(s), _state(c, s)), s)
        got = list(_feasible_sequences(c, order, max_len))
        assert sorted(got) == sorted(first.values())


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
            CardinalityConstraint(2),
            CardinalityConstraint(0),
            BudgetConstraint({e: 0.1 * i for i, e in enumerate(inst.universe.elements, 1)}, 0.6),
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
            BudgetConstraint({"a": 1, "b": 1, "c": 1}, 2),
            CardinalityConstraint(2),
            DagPathConstraint({"a": {"b"}, "b": {"c"}}, "a"),
        ):
            ok, witness = check_prefix_closed(c, universe, 3)
            assert ok, witness

    def test_table_missing_prefix_detected(self):
        universe, _ = coin_universe(["a", "b"])
        c = TableConstraint([("a", "b")])
        ok, witness = check_prefix_closed(c, universe, 3)
        assert not ok
        assert witness == ("a", "b")

    def test_closed_table_passes(self):
        universe, _ = coin_universe(["a", "b"])
        c = TableConstraint([("a",), ("a", "b")])
        ok, witness = check_prefix_closed(c, universe, 3)
        assert ok, witness
