"""Acceptance suite: every criterion prints one PASS/FAIL line and asserts
at its stated tolerance. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from smplab import (
    RandomInstanceParams,
    adap_by_path_enumeration,
    adap_exact,
    adap_mc,
    alg_exact,
    alg_mc,
    best_nonadaptive_exact,
    check_encoding,
    combined_value,
    find_extension_witness,
    gen_prime_matroid_encoding,
    gen_random_instance,
    gen_submodular_lb,
    gen_tree_lb,
    greedy_interleaved_exact,
    greedy_select,
    intersect,
    make_matching_family,
    make_partition_matroid,
    submodular_lb_adap_recurrence,
    submodular_lb_alg_opt,
    tree_lb_adaptive_value,
    tree_lb_nonadaptive_bound,
)

TOL = 1e-9


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_submodular_lower_bound_recurrences():
    thresholds = {0.05: 1.75, 0.02: 1.88, 0.01: 1.9}
    ratios = {}
    ok = True
    details = []
    for eps, floor in thresholds.items():
        start = time.monotonic()
        adap0 = submodular_lb_adap_recurrence(eps)
        alg0 = submodular_lb_alg_opt(eps)
        elapsed = time.monotonic() - start
        ratio = adap0 / alg0
        ratios[eps] = ratio
        ok &= ratio >= floor and alg0 < 1 and elapsed < 1.0
        details.append(f"eps={eps} ratio={ratio:.4f}>={floor} alg0={alg0:.6f}<1 t={elapsed:.2f}s")
    ok &= ratios[0.05] < ratios[0.02] < ratios[0.01]  # monotone approach to 2
    _criterion("submodular lower bound recurrences", ok, "; ".join(details))


def test_criterion_1_triangle_instance_at_paper_scale():
    # the walk on the construction itself, not its recurrence: at eps = 1/10
    # the triangle has 1035 elements and at 1/20 it has 7021; its columns
    # share every suffix
    ok = True
    details = []
    for eps, budget in ((Fraction(1, 10), 1.0), (Fraction(1, 20), 15.0)):
        bundle = gen_submodular_lb(eps)
        start = time.monotonic()
        adap = adap_exact(bundle.tree, bundle.valuation, bundle.universe, bundle.dist).value
        elapsed = time.monotonic() - start
        want = submodular_lb_adap_recurrence(eps)
        ok &= adap == want and elapsed < budget
        details.append(
            f"eps={eps}: adap_exact == recurrence = {float(want):.6f} over "
            f"{len(bundle.universe)} elements, t={elapsed:.2f}s < {budget:g}s"
        )
    _criterion("triangle instance at paper scale", ok, "; ".join(details))


def test_criterion_2_submodular_upper_bound_property_suite():
    params = RandomInstanceParams(
        valuation_kinds=("coverage", "partition_weighted")
    )
    start = time.monotonic()
    failures = 0
    cases = 1000
    for seed in range(cases):
        inst = gen_random_instance(seed, params)
        adap = adap_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value
        alg = alg_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value
        if not alg >= adap / 2 - TOL:
            failures += 1
    elapsed = time.monotonic() - start
    _criterion(
        "submodular half-gap on random instances",
        failures == 0 and elapsed < 60,
        f"{cases - failures}/{cases} within bound, {elapsed:.1f}s < 60s",
    )


def test_criterion_3_decomposition_identity():
    checked = 0
    worst = 0.0
    exact_ok = True
    for seed in range(200):
        inst = gen_random_instance(seed)
        got = adap_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value
        ref = adap_by_path_enumeration(inst.tree, inst.valuation, inst.universe, inst.dist)
        exact_ok &= got == ref  # rational instances: exact equality
        checked += 1
    for eps in (Fraction(1, 2), Fraction(2, 5), Fraction(1, 3)):
        bundle = gen_submodular_lb(eps)
        got = adap_exact(bundle.tree, bundle.valuation, bundle.universe, bundle.dist).value
        ref = adap_by_path_enumeration(
            bundle.tree, bundle.valuation, bundle.universe, bundle.dist
        )
        exact_ok &= got == ref
        checked += 1
    for k, w, p in ((2, 2, Fraction(1, 4)), (2, 3, Fraction(1, 3))):
        bundle = gen_tree_lb(k, w, p)
        got = adap_exact(bundle.tree, bundle.valuation, bundle.universe, bundle.dist).value
        ref = adap_by_path_enumeration(
            bundle.tree, bundle.valuation, bundle.universe, bundle.dist
        )
        exact_ok &= got == ref
        checked += 1
    bundle = gen_submodular_lb(0.3)  # float mode stays inside 1e-9
    got = adap_exact(bundle.tree, bundle.valuation, bundle.universe, bundle.dist).value
    ref = adap_by_path_enumeration(bundle.tree, bundle.valuation, bundle.universe, bundle.dist)
    worst = abs(got - ref)
    checked += 1
    _criterion(
        "decomposition identity",
        exact_ok and worst <= TOL,
        f"{checked} trees, rational exact, float residual {worst:.2e} <= 1e-9",
    )


def test_criterion_4_unweighted_kextendible_chain():
    failures = 0
    cases = 0
    for k in (1, 2, 3):
        if k == 2:
            params = RandomInstanceParams(valuation_kinds=("matching_rank",))
        else:
            params = RandomInstanceParams(
                valuation_kinds=("matroid_intersection_rank",), k_extendible=k
            )
        for seed in range(170):
            inst = gen_random_instance(seed, params)
            adap = adap_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value
            greedy = greedy_interleaved_exact(
                inst.tree, inst.family, inst.universe, inst.dist
            ).value
            alg = alg_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value
            cases += 1
            if not (adap <= k * greedy + TOL and greedy <= 2 * alg + TOL):
                failures += 1
    _criterion(
        "unweighted k-extendible chain",
        cases >= 500 and failures == 0,
        f"{cases - failures}/{cases} satisfy adap <= k*greedy and greedy <= 2*alg",
    )


def test_criterion_5_kextendible_lower_bound():
    adaptive = tree_lb_adaptive_value(3, 81, 1 / 27)
    bound = tree_lb_nonadaptive_bound(3, 1 / 27)
    gap = adaptive / bound
    ok = adaptive >= 2.85 and bound == 1 + 1 / 9 and gap >= 2.5
    p = Fraction(1, 8)
    bundle = gen_tree_lb(2, 2, p)
    _, best = best_nonadaptive_exact(
        bundle.universe, bundle.dist, bundle.valuation, bundle.constraint, 4
    )
    ok &= best <= tree_lb_nonadaptive_bound(2, p) + TOL
    _criterion(
        "k-extendible lower bound",
        ok,
        f"k=3: adaptive={adaptive:.4f}>=2.85 bound={bound:.4f} gap={gap:.3f}>=2.5; "
        f"k=2,w=2 exhaustive best={float(best):.4f} <= 1+2p={float(1 + 2 * p):.4f}",
    )


def test_criterion_5_tree_instance_chain():
    k, w, p = 3, 3, Fraction(1, 3)
    bundle = gen_tree_lb(k, w, p)
    args = (bundle.tree, bundle.valuation, bundle.universe, bundle.dist)
    adap = adap_exact(*args).value
    start = time.monotonic()
    greedy = greedy_interleaved_exact(
        bundle.tree, bundle.family, bundle.universe, bundle.dist
    ).value
    elapsed = time.monotonic() - start
    alg = alg_exact(*args).value
    bound = tree_lb_nonadaptive_bound(k, p)
    ok = adap == tree_lb_adaptive_value(k, w, p) == Fraction(19, 9)
    ok &= adap <= k * greedy and greedy <= 2 * alg and alg <= bound and elapsed < 1.0
    _criterion(
        "k-extendible chain on the tree instance",
        ok,
        f"k=3,w=3,p=1/3: adap={adap} <= 3*greedy={float(3 * greedy):.4f}, "
        f"greedy <= 2*alg={float(2 * alg):.4f}, alg={float(alg):.4f} <= {bound}, "
        f"greedy t={elapsed:.2f}s < 1s",
    )


def test_criterion_6_matroid_intersection_encoding():
    ok = True
    details = []
    for k in (2, 3, 5):  # k=5: all 7,622,560 pairs and 10,000 sampled sets
        matroids, label_map = gen_prime_matroid_encoding(k)
        passed, witness = check_encoding(matroids, label_map, set_samples=10_000, seed=1)
        ok &= passed
        details.append(f"k={k} encoding ok={passed}")
    for k in (3, 5):
        value = tree_lb_adaptive_value(k, k, 1 / k)
        floor = k * (1 - 1 / math.e)
        ok &= value >= floor
        details.append(f"k={k} omega-gap value={value:.3f}>={floor:.3f} vs bound 2")
    _criterion("matroid-intersection encoding", ok, "; ".join(details))


def test_criterion_7_extension_witness_tuples():
    rng = random.Random(2024)
    failures = 0
    cases = 10_000
    for case in range(cases):
        types = [f"t{i}" for i in range(rng.randint(4, 8))]
        if case % 2:
            k = 2
            fam = make_matching_family(
                {t: tuple(rng.sample("uvwxyz", 2)) for t in types}
            )
        else:
            k = rng.randint(1, 3)
            fam = intersect(
                [
                    make_partition_matroid(
                        {t: f"p{rng.randrange(3)}" for t in types},
                        {f"p{i}": rng.randint(1, 2) for i in range(3)},
                    )
                    for _ in range(k)
                ]
            )
        big = frozenset(greedy_select(fam, rng.sample(types, len(types))))
        small = frozenset(t for t in big if rng.random() < 0.5)
        grown = frozenset(small)
        extension: set = set()
        for t in rng.sample(types, len(types)):
            if t not in grown and fam.is_independent(grown | {t}):
                grown = grown | {t}
                extension.add(t)
                if rng.random() < 0.5:
                    break
        try:
            z = find_extension_witness(fam, k, small, big, extension)
        except Exception:
            failures += 1
            continue
        if not (
            z <= big - small
            and len(z) <= k * len(extension)
            and fam.is_independent(big - z | extension)
        ):
            failures += 1
    _criterion(
        "constructive extension witnesses",
        failures == 0,
        f"{cases - failures}/{cases} tuples gave Z with |Z| <= k*|E|",
    )


def test_criterion_8_weighted_reduction():
    failures = 0
    cases = 0
    for k in (2, 3):
        params = RandomInstanceParams(
            valuation_kinds=("matroid_intersection_rank", "matching_rank"),
            k_extendible=k,
            weight_high=1 << 10,
        )
        for seed in range(110):
            inst = gen_random_instance(seed, params)
            k_eff = inst.metadata["k"]
            rep = combined_value(
                inst.tree, inst.weights, inst.family, k_eff, inst.universe, inst.dist
            )
            selected = sum(
                rep.trace["scaled_class_alg"][j] for _, j in rep.trace["selected"]
            )
            adap = adap_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value
            cases += 1
            vs_selected = rep.value >= selected / 4 - TOL
            vs_adaptive = rep.value >= adap / (32 * k_eff * math.log2(k_eff)) - TOL
            if not (vs_selected and vs_adaptive):
                failures += 1
    _criterion(
        "weighted reduction bounds",
        cases >= 200 and failures == 0,
        f"{cases - failures}/{cases} satisfy the quarter-of-selected and 32k*log2(k) bounds",
    )


def test_criterion_9_monte_carlo_soundness():
    params = RandomInstanceParams(max_elements=6, max_types=3)
    instances = [gen_random_instance(9000 + i, params) for i in range(20)]
    runs = 0
    hits = 0
    for idx, inst in enumerate(instances):
        use_adap = idx % 2 == 0
        if use_adap:
            exact = float(adap_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value)
        else:
            exact = float(alg_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value)
        for seed in range(50):
            mc = (adap_mc if use_adap else alg_mc)(
                inst.tree, inst.valuation, inst.universe, inst.dist, 1200, seed
            )
            runs += 1
            hits += abs(mc.value - exact) <= 3 * mc.stderr + 1e-12
    coverage_ok = hits / runs >= 0.99

    inst = instances[0]
    identical = True
    for fn in (adap_mc, alg_mc):
        reports = [
            fn(inst.tree, inst.valuation, inst.universe, inst.dist, 3000, 17, workers=w)
            for w in (1, 2, 8)
        ]
        identical &= len({(r.value, r.stderr) for r in reports}) == 1
    _criterion(
        "Monte Carlo soundness",
        coverage_ok and identical,
        f"{hits}/{runs} runs within 3*stderr (>=99%), "
        f"worker counts 1/2/8 byte-identical={identical}",
    )
