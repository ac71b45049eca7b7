"""Instance generators: depths, closed forms, encodings, determinism."""

import gc
import math
from fractions import Fraction

import pytest

from smplab import (
    ExactCapExceeded,
    IntersectionFamily,
    RandomInstanceParams,
    ValidationError,
    adap_exact,
    best_nonadaptive_exact,
    check_downward_closed,
    check_encoding,
    check_monotone,
    check_submodular,
    check_tree_feasible,
    gen_prime_matroid_encoding,
    gen_random_instance,
    gen_submodular_lb,
    gen_tree_lb,
    submodular_lb_adap_recurrence,
    submodular_lb_alg_opt,
    submodular_lb_depth,
    tree_lb_adaptive_value,
    tree_lb_nonadaptive_bound,
)
import smplab.instances
from smplab.instances import SUBMODULAR_LB_ELEMENT_CAP, WARY_EDGE_CAP
from smplab.strategy import _tree_nodes
from oracles import quadratic_adap_recurrence, quadratic_alg_opt


class TestTriangularInstance:
    def test_depth_and_size_at_half(self):
        bundle = gen_submodular_lb(Fraction(1, 2))
        assert bundle.metadata["depth"] == 3
        assert len(bundle.universe) == 10

    def test_depth_at_point_one(self):
        assert submodular_lb_depth(0.1) == 44

    def test_depth_cap_keeps_the_depths_in_use(self):
        for eps, depth in ((0.05, 117), (0.01, 917), (Fraction(1, 100), 917), (0.001, 13809)):
            assert submodular_lb_depth(eps) == depth
        with pytest.raises(ExactCapExceeded,
                           match=r"eps=0.0008 needs about 1.782e\+04 columns, past the depth "
                                 r"cap of 16384"):
            submodular_lb_depth(0.0008)

    def test_element_cap_refuses_before_building(self, monkeypatch):
        # eps 0.02, the smallest built anywhere, has 75,855 elements and stays in
        assert (389 * 390 // 2, submodular_lb_depth(0.02)) == (75855, 388)
        assert 75855 <= SUBMODULAR_LB_ELEMENT_CAP < 421821
        monkeypatch.setattr(smplab.instances, "probe", None)  # any build would call it
        monkeypatch.setattr(smplab.instances, "_column_weights", None)
        need = f"eps=0.01 needs 421821 elements, past the element cap of {SUBMODULAR_LB_ELEMENT_CAP};"
        with pytest.raises(ExactCapExceeded, match=need):
            gen_submodular_lb(0.01)

    def test_eps_range_validated(self):
        for bad in (0, 1, -0.2, 1.5):
            with pytest.raises(ValidationError):
                gen_submodular_lb(bad)

    def test_reference_tree_is_feasible(self):
        bundle = gen_submodular_lb(Fraction(2, 5))
        ok, witness = check_tree_feasible(bundle.tree, bundle.constraint)
        assert ok, witness

    def test_tree_materialized_one_node_per_element(self):
        bundle = gen_submodular_lb(0.05)  # depth 117, 7021 elements
        assert bundle.metadata["depth"] == 117
        nodes, stack = {}, [bundle.tree]
        while stack:
            node = stack.pop()
            if not node.is_leaf and id(node) not in nodes:
                nodes[id(node)] = node.element
                stack.extend(node.children.values())
        assert len(nodes) == len(bundle.universe) == 7021
        assert sorted(nodes.values()) == sorted(bundle.universe.elements)

    def test_valuation_is_monotone_submodular(self):
        bundle = gen_submodular_lb(Fraction(1, 2))
        ground = sorted(bundle.universe.all_types)[:8]
        assert check_monotone(bundle.valuation, ground)[0]
        assert check_submodular(bundle.valuation, ground)[0]

    def test_metadata_limits(self):
        eps = Fraction(1, 10)
        bundle = gen_submodular_lb(eps)
        assert bundle.metadata["adap_limit"] == 2 - eps
        assert bundle.metadata["alg_limit"] == 1


class TestTriangularRecurrences:
    def test_base_column_value(self):
        # with a single probeable element left, the value is eps*(1-eps)^depth
        eps = Fraction(1, 2)
        depth = submodular_lb_depth(eps)
        tail = gen_submodular_lb(eps)
        del tail
        assert submodular_lb_adap_recurrence(eps) > eps * (1 - eps) ** depth

    def test_exact_value_at_half(self):
        assert submodular_lb_adap_recurrence(Fraction(1, 2)) == Fraction(41, 32)
        assert submodular_lb_alg_opt(Fraction(1, 2)) == Fraction(15, 16)

    def test_alg_stays_below_one(self):
        for eps in (Fraction(1, 2), Fraction(1, 5), 0.1, 0.05, 0.02, 0.01):
            assert submodular_lb_alg_opt(eps) < 1

    def test_adap_approaches_two(self):
        assert submodular_lb_adap_recurrence(0.01) >= 1.9

    @pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 10), Fraction(1, 20)],
                             ids=str)
    def test_closed_forms_equal_the_quadratic_sums(self, eps):
        # the carried suffix sum and suffix maximum against the O(depth^2) loops
        assert submodular_lb_adap_recurrence(eps) == quadratic_adap_recurrence(eps)
        assert submodular_lb_alg_opt(eps) == quadratic_alg_opt(eps)

    def test_closed_forms_in_floats_stay_within_rounding(self):
        for eps in (0.3, 0.1, 0.05):
            assert math.isclose(submodular_lb_adap_recurrence(eps),
                                quadratic_adap_recurrence(eps), rel_tol=1e-14)
            assert math.isclose(submodular_lb_alg_opt(eps), quadratic_alg_opt(eps),
                                rel_tol=1e-14)

    def test_alg_dp_matches_exhaustive_search(self):
        for eps in (Fraction(1, 2), Fraction(2, 5)):
            bundle = gen_submodular_lb(eps)
            _, value = best_nonadaptive_exact(
                bundle.universe, bundle.dist, bundle.valuation, bundle.constraint,
                len(bundle.universe),
            )
            assert value == submodular_lb_alg_opt(eps)


class TestTreeInstance:
    def test_edge_count(self):
        bundle = gen_tree_lb(2, 2, Fraction(1, 4))
        assert len(bundle.universe) == 6

    def test_adaptive_formula_value(self):
        # k=3, w=81, p=1/27
        assert tree_lb_adaptive_value(3, 81, 1 / 27) == pytest.approx(
            2.858909574413426, abs=1e-12
        )
        assert tree_lb_nonadaptive_bound(3, 1 / 27) == pytest.approx(1 + 1 / 9)

    def test_reference_tree_value_matches_formula_exactly(self):
        for k, w, p in ((2, 2, Fraction(1, 4)), (1, 3, Fraction(1, 2)), (2, 3, Fraction(1, 3))):
            bundle = gen_tree_lb(k, w, p)
            got = adap_exact(
                bundle.tree, bundle.valuation, bundle.universe, bundle.dist
            ).value
            assert got == tree_lb_adaptive_value(k, w, p)

    def test_reference_tree_is_feasible(self):
        bundle = gen_tree_lb(2, 2, Fraction(1, 4))
        ok, witness = check_tree_feasible(bundle.tree, bundle.constraint)
        assert ok, witness

    def test_reference_tree_has_one_node_per_vertex_sibling_and_first_active(self):
        # each vertex above depth k: w(w+1)/2 (sibling, first active or None) pairs
        for k, w in ((2, 2), (3, 2), (3, 3), (2, 6)):
            bundle = gen_tree_lb(k, w, Fraction(1, 3))
            nodes = _tree_nodes(bundle.tree, bundle.universe)[0]
            assert len(nodes) == sum(w**d for d in range(k)) * w * (w + 1) // 2

    def test_tree_skipped_beyond_probe_cap(self):
        bundle = gen_tree_lb(3, 5, 0.1)
        assert bundle.tree is None

    def test_size_cap(self):
        with pytest.raises(ExactCapExceeded):
            gen_tree_lb(3, 81, 1 / 27)

    def test_family_is_downward_closed(self):
        bundle = gen_tree_lb(2, 2, Fraction(1, 2))
        fam = bundle.family
        ok, witness = check_downward_closed(fam, sorted(fam.ground))
        assert ok, witness

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            gen_tree_lb(0, 2, 0.5)
        with pytest.raises(ValidationError):
            gen_tree_lb(2, 2, 0)


class TestPrimeEncoding:
    def test_k2_shape(self):
        matroids, label_map = gen_prime_matroid_encoding(2)
        assert len(matroids) == 4
        assert len(label_map) == 6

    def test_k2_sibling_collision(self):
        # both depth-1 edges land in the same big partition of M[1,0]
        matroids, label_map = gen_prime_matroid_encoding(2)
        m10 = matroids[0]  # i=1, j=0
        siblings = [t for t, (lab, d) in label_map.items() if d == 1]
        assert len(siblings) == 2
        assert m10.part_of[siblings[0]] == m10.part_of[siblings[1]]

    def test_root_edge_and_child_independent_everywhere(self):
        matroids, label_map = gen_prime_matroid_encoding(2)
        child_of = {t: lab for t, (lab, _) in label_map.items()}
        root_edge = next(t for t, lab in child_of.items() if lab == (0,))
        child_edge = next(t for t, lab in child_of.items() if lab == (0, 1))
        for m in matroids:
            assert m.is_independent({root_edge, child_edge})

    def test_encoding_characterization(self):
        for k in (2, 3):
            matroids, label_map = gen_prime_matroid_encoding(k)
            ok, witness = check_encoding(matroids, label_map, set_samples=3000)
            assert ok, witness

    def test_intersection_matches_path_chain_family(self):
        bundle = gen_tree_lb(2, 2, Fraction(1, 2))
        matroids, label_map = gen_prime_matroid_encoding(2)
        inter = IntersectionFamily(matroids)
        fam = bundle.family
        assert inter.ground == fam.ground
        from oracles import powerset, reference_independent

        for sub in powerset(sorted(fam.ground)):
            assert inter.is_independent(sub) == reference_independent(fam, sub)

    def test_edge_cap_shared_with_the_tree_instance(self):
        assert [len(gen_prime_matroid_encoding(k)[1]) for k in (2, 3, 5)] == [6, 39, 3905]
        with pytest.raises(ExactCapExceeded, match=f"960799 edges exceed the materialization "
                                                   f"cap {WARY_EDGE_CAP};"):
            gen_prime_matroid_encoding(7)
        with pytest.raises(ExactCapExceeded, match=f"538083 edges .* cap {WARY_EDGE_CAP};"):
            gen_tree_lb(3, 81, 1 / 27)

    def test_non_prime_rejected(self):
        for k in (1, 4, 6):
            with pytest.raises(ValidationError):
                gen_prime_matroid_encoding(k)


class TestRandomInstances:
    def test_deterministic_per_seed(self):
        a = gen_random_instance(42)
        b = gen_random_instance(42)
        assert a == b
        assert gen_random_instance(43) != a

    def test_trees_are_feasible(self):
        for seed in range(30):
            inst = gen_random_instance(seed)
            ok, witness = check_tree_feasible(inst.tree, inst.constraint)
            assert ok, (seed, witness)

    def test_valuations_verify(self):
        params = RandomInstanceParams(max_elements=4, max_types=2)
        for seed in range(20):
            inst = gen_random_instance(seed, params)
            ground = sorted(inst.universe.all_types)
            assert check_monotone(inst.valuation, ground)[0]
            if inst.metadata["valuation_kind"] in ("coverage", "partition_weighted"):
                assert check_submodular(inst.valuation, ground)[0]
            if inst.family is not None:
                assert check_downward_closed(inst.family, ground)[0]

    def test_k_metadata_matches_family_kind(self):
        params = RandomInstanceParams(
            valuation_kinds=("matroid_intersection_rank", "matching_rank"),
            k_extendible=3,
        )
        for seed in range(6):
            inst = gen_random_instance(seed, params)
            if inst.metadata["valuation_kind"] == "matching_rank":
                assert inst.metadata["k"] == 2
            else:
                assert inst.metadata["k"] == 3

    def test_generation_leaves_no_reference_cycle(self):
        # the tree builder is a closure that refers to itself; with the
        # collector off, a cycle left behind shows as found garbage
        gc.collect()
        gc.disable()
        try:
            assert gen_random_instance(3).tree is not None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_weights_within_requested_range(self):
        params = RandomInstanceParams(
            valuation_kinds=("matching_rank",), weight_high=1024
        )
        inst = gen_random_instance(5, params)
        assert all(1 <= w <= 1024 for w in inst.weights.values())
