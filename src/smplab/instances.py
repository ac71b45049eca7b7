"""Instance generators: the two families of constructions whose adaptive
value provably outruns every non-adaptive strategy, their closed-form
oracles, and seeded random instances that fuel the property suites.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .core import (
    ExactCapExceeded,
    Scalar,
    TypeDistribution,
    Universe,
    ValidationError,
    universe_from_type_space,
)
from .families import (
    IndependenceOracle,
    PartitionMatroid,
    intersect,
    make_matching_family,
    make_partition_matroid,
    make_path_chain_family,
)
from .strategy import (
    ConstraintOracle,
    DecisionTree,
    constraint_budget,
    constraint_cardinality,
    constraint_dag_path,
    constraint_tree_fan,
    leaf,
    probe,
)
from .valuation import (
    ValuationFunction,
    WeightedRankValuation,
    coverage_valuation,
    partition_weighted_valuation,
    weighted_rank,
)

#: Reference limits of the triangular instance family as its parameter
#: goes to zero: adaptive value 2 - eps, best non-adaptive value 1.
SUBMODULAR_LB_ALG_LIMIT = 1


def submodular_lb_adap_limit(eps: Scalar) -> Scalar:
    return 2 - eps


@dataclass(eq=True)
class InstanceBundle:
    """A universe with distribution, valuation, constraint, and optionally a
    reference decision tree, plus generator metadata for provenance."""

    universe: Universe
    dist: TypeDistribution
    valuation: ValuationFunction
    constraint: ConstraintOracle
    tree: DecisionTree | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def family(self) -> IndependenceOracle | None:
        if isinstance(self.valuation, WeightedRankValuation):
            return self.valuation.family
        return None

    @property
    def weights(self) -> Mapping[str, Scalar] | None:
        if isinstance(self.valuation, WeightedRankValuation):
            return self.valuation.weights
        return None


# ---------------------------------------------------------------------------
# Triangular Bernoulli instance: submodular objective over a DAG-path
# constraint whose adaptive/non-adaptive ratio approaches 2.
# ---------------------------------------------------------------------------


def _check_eps(eps: Scalar) -> None:
    # the gap guarantees are stated for eps < 1/2, but the construction and
    # its recurrences are well defined on all of (0, 1)
    if not (0 < eps < 1):
        raise ValidationError("eps must satisfy 0 < eps < 1")


def submodular_lb_depth(eps: Scalar) -> int:
    """Smallest depth whose residual tail (1-eps)^D drops below eps**2."""
    _check_eps(eps)
    q = 1 - eps
    threshold = eps * eps
    depth = 0
    acc: Scalar = 1
    while not acc < threshold:
        acc = acc * q
        depth += 1
    return depth


def _submod_element(k: int, l: int) -> str:
    return f"e{k},{l}"


def gen_submodular_lb(eps: Scalar) -> InstanceBundle:
    """Triangular grid of Bernoulli elements probed along a DAG path.

    Element (k, l) is active with probability eps; the objective pays
    (1-eps)^k once per column k that produced an active element. Probing
    must follow the arcs (k, l) -> (k, l+1) and (k, l) -> (k+l+1, 0) from
    the start element (0, 0). The reference tree walks down a column until
    it finds an active element and then jumps to the next fresh column. It
    is always materialized: it holds one node per element, shared between
    the paths that reach it, so it is no larger than the universe.
    """
    _check_eps(eps)
    q = 1 - eps
    depth = submodular_lb_depth(eps)
    coords = [(k, l) for k in range(depth + 1) for l in range(depth + 1 - k)]
    type_space = {}
    probs = {}
    part_of = {}
    for k, l in coords:
        e = _submod_element(k, l)
        on, off = f"{e}:on", f"{e}:off"
        type_space[e] = (on, off)
        probs[e] = {on: eps, off: q}
        part_of[on] = f"col{k}"
    part_weight: dict[str, Scalar] = {}
    acc: Scalar = 1
    for k in range(depth + 1):
        part_weight[f"col{k}"] = acc
        acc = acc * q

    # (k, l) leads only to (k + l + 1, 0) and (k, l + 1), one diagonal further
    # on, so the diagonals are built from the last one back; past the last
    # diagonal both arcs end in one shared leaf. The tree uses every arc.
    end = leaf()
    nodes: dict[tuple[int, int], DecisionTree] = {}
    arcs = {}
    for s in range(depth, -1, -1):
        for k in range(s + 1):
            e = _submod_element(k, s - k)
            on, off = type_space[e]
            children = {on: nodes.get((s + 1, 0), end), off: nodes.get((k, s - k + 1), end)}
            nodes[k, s - k] = probe(e, children)
            arcs[e] = frozenset(c.element for c in children.values() if not c.is_leaf)

    universe = universe_from_type_space(type_space)
    dist = TypeDistribution(probs)
    valuation = partition_weighted_valuation(part_of, part_weight)
    constraint = constraint_dag_path(arcs, _submod_element(0, 0))
    metadata = {
        "name": "submodular_lower_bound",
        "eps": eps,
        "depth": depth,
        "adap_limit": submodular_lb_adap_limit(eps),
        "alg_limit": SUBMODULAR_LB_ALG_LIMIT,
    }
    return InstanceBundle(universe, dist, valuation, constraint, nodes[0, 0], metadata)


def submodular_lb_adap_recurrence(eps: Scalar) -> Scalar:
    """Adaptive value of the reference strategy, by the column recurrence.

    Summing over the number of inactive elements seen on a column: the
    expected extra value from column k is
    sum_i (1-eps)^i * eps * ((1-eps)^k + adap(k+i+1)), with values past the
    last column equal to zero. Runs in O(depth^2).
    """
    _check_eps(eps)
    depth = submodular_lb_depth(eps)
    q = 1 - eps
    qpow: list[Scalar] = [1]
    for _ in range(depth + 1):
        qpow.append(qpow[-1] * q)
    adap: list[Scalar] = [0] * (depth + 2)
    for k in range(depth, -1, -1):
        s: Scalar = 0
        qi: Scalar = 1
        for i in range(depth - k + 1):
            nxt = adap[k + i + 1] if k + i + 1 <= depth else 0
            s = s + qi * eps * (qpow[k] + nxt)
            qi = qi * q
        adap[k] = s
    return adap[0]


def submodular_lb_alg_opt(eps: Scalar) -> Scalar:
    """Best non-adaptive value, by dynamic programming over columns.

    A feasible probing set is a column prefix followed by a jump to a fresh
    column, so alg(k) = max_i [(1-eps)^k (1-(1-eps)^(i+1)) + alg(k+i+1)].
    The result stays strictly below 1.
    """
    _check_eps(eps)
    depth = submodular_lb_depth(eps)
    q = 1 - eps
    qpow: list[Scalar] = [1]
    for _ in range(depth + 2):
        qpow.append(qpow[-1] * q)
    alg: list[Scalar] = [0] * (depth + 2)
    for k in range(depth, -1, -1):
        best: Scalar = 0
        for i in range(depth - k + 1):
            nxt = alg[k + i + 1] if k + i + 1 <= depth else 0
            v = qpow[k] * (1 - qpow[i + 1]) + nxt
            if v > best:
                best = v
        alg[k] = best
    return alg[0]


# ---------------------------------------------------------------------------
# Perfect w-ary tree instance: unweighted rank of "edges on one root-leaf
# path" under the fan constraint, with gap growing linearly in the depth.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _WaryTree:
    root: str
    labels: dict[str, tuple[int, ...]]  # vertex id -> child-index path
    children: dict[str, tuple[str, ...]]  # vertex id -> children in index order
    edges: tuple[str, ...]  # element ids, BFS order
    endpoints: dict[str, tuple[str, str]]  # element -> (parent vertex, child vertex)


def _vertex_id(label: tuple[int, ...]) -> str:
    return "root" if not label else ".".join(map(str, label))


def _edge_id(label: tuple[int, ...]) -> str:
    return "e" + ".".join(map(str, label))


def _build_wary_tree(arity: int, depth: int) -> _WaryTree:
    labels: dict[str, tuple[int, ...]] = {"root": ()}
    children: dict[str, tuple[str, ...]] = {}
    edges: list[str] = []
    endpoints: dict[str, tuple[str, str]] = {}
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(depth):
        nxt: list[tuple[int, ...]] = []
        for lab in frontier:
            kids = []
            for i in range(arity):
                child = lab + (i,)
                cid = _vertex_id(child)
                labels[cid] = child
                kids.append(cid)
                el = _edge_id(child)
                edges.append(el)
                endpoints[el] = (_vertex_id(lab), cid)
                nxt.append(child)
            children[_vertex_id(lab)] = tuple(kids)
        frontier = nxt
    return _WaryTree("root", labels, children, tuple(edges), endpoints)


def _check_tree_lb(k: int, p: Scalar, w: int = 1) -> None:
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k!r}")
    if w < 1:
        raise ValidationError(f"w must be >= 1, got {w!r}")
    if not (0 < p <= 1):  # also false for NaN
        raise ValidationError(f"p must satisfy 0 < p <= 1, got {p!r}")


def tree_lb_adaptive_value(k: int, w: int, p: Scalar) -> Scalar:
    """Expected value of probing all siblings per level and descending below
    the first active edge: k * (1 - (1-p)**w)."""
    _check_tree_lb(k, p, w)
    return k * (1 - (1 - p) ** w)


def tree_lb_nonadaptive_bound(k: int, p: Scalar) -> Scalar:
    """Every non-adaptive strategy earns at most 1 + k*p in expectation."""
    _check_tree_lb(k, p)
    return 1 + k * p


def gen_tree_lb(
    k: int,
    w: int,
    p: Scalar,
    weights: Sequence[Scalar] | None = None,
    *,
    size_cap: int = 5000,
    probe_cap: int = 12,
) -> InstanceBundle:
    """Perfect w-ary tree of depth k whose edges are Bernoulli(p) elements.

    The objective is the (optionally per-depth weighted) rank of the family
    of edge sets lying on a single root-leaf path; the constraint lets a
    sequence be probed only while some root-leaf vertex path touches every
    probed edge. The reference tree probes sibling edges in child order and
    descends below the first active one (below the first child if none);
    it is materialized only when w*k <= probe_cap.
    """
    _check_tree_lb(k, p, w)
    if weights is not None and len(weights) != k:
        raise ValidationError("per-depth weights need exactly k entries")
    edge_count = sum(w**d for d in range(1, k + 1))
    if edge_count > size_cap:
        raise ExactCapExceeded(
            f"{edge_count} edges exceed the materialization cap {size_cap}; "
            "use the closed-form value oracles"
        )
    shape = _build_wary_tree(w, k)
    type_space = {}
    probs = {}
    on_endpoints = {}
    weight_map: dict[str, Scalar] = {}
    q = 1 - p
    for el in shape.edges:
        on, off = f"{el}:on", f"{el}:off"
        type_space[el] = (on, off)
        probs[el] = {on: p, off: q}
        on_endpoints[on] = shape.endpoints[el]
        d = len(shape.labels[shape.endpoints[el][1]])
        weight_map[on] = 1 if weights is None else weights[d - 1]

    universe = universe_from_type_space(type_space)
    dist = TypeDistribution(probs)
    family = make_path_chain_family(on_endpoints, shape.root)
    valuation = weighted_rank(family, weight_map)
    constraint = constraint_tree_fan(dict(shape.endpoints), shape.root)

    tree = None
    if w * k <= probe_cap:
        def descend(vertex: str, depth: int) -> DecisionTree:
            if depth == k:
                return leaf()
            kids = shape.children[vertex]
            sib_edges = [_edge_id(shape.labels[c]) for c in kids]
            memo: dict[tuple[int, int | None], DecisionTree] = {}

            def probe_sibling(idx: int, first_active: int | None) -> DecisionTree:
                key = (idx, first_active)
                got = memo.get(key)
                if got is not None:
                    return got
                if idx == len(sib_edges):
                    chosen = kids[first_active if first_active is not None else 0]
                    node = descend(chosen, depth + 1)
                else:
                    el = sib_edges[idx]
                    on, off = type_space[el]
                    node = probe(
                        el,
                        {
                            on: probe_sibling(
                                idx + 1,
                                first_active if first_active is not None else idx,
                            ),
                            off: probe_sibling(idx + 1, first_active),
                        },
                    )
                memo[key] = node
                return node

            return probe_sibling(0, None)

        tree = descend(shape.root, 0)

    metadata = {
        "name": "kext_tree_lower_bound",
        "k": k,
        "w": w,
        "p": p,
        "adaptive_value": tree_lb_adaptive_value(k, w, p),
        "nonadaptive_bound": tree_lb_nonadaptive_bound(k, p),
    }
    return InstanceBundle(universe, dist, valuation, constraint, tree, metadata)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def gen_prime_matroid_encoding(
    k: int,
) -> tuple[list[PartitionMatroid], dict[str, tuple[tuple[int, ...], int]]]:
    """Encode the k-ary depth-k path-chain family as k**2 partition matroids.

    Every vertex carries the list of child indices on its root path. For
    each (i, j) with 1 <= i <= k and 0 <= j < k, an edge at depth d >= i
    joins big partition (label[i-1]*j + d) mod k of matroid M[i,j]; shallower
    edges sit in singleton partitions. Primality of k makes two edges
    collide in some matroid exactly when their vertices are not
    ancestor-related. Returns the matroids (over the "on" types of the
    matching ``gen_tree_lb(k, k, .)`` instance) and the label map.
    """
    if not _is_prime(k):
        raise ValidationError("the encoding needs k prime")
    shape = _build_wary_tree(k, k)
    label_map: dict[str, tuple[tuple[int, ...], int]] = {}
    for el in shape.edges:
        child = shape.endpoints[el][1]
        lab = shape.labels[child]
        label_map[f"{el}:on"] = (lab, len(lab))
    matroids: list[PartitionMatroid] = []
    for i in range(1, k + 1):
        for j in range(k):
            part_of: dict[str, str] = {}
            capacity: dict[str, int] = {f"big{b}": 1 for b in range(k)}
            for t, (lab, d) in label_map.items():
                if d >= i:
                    part_of[t] = f"big{(lab[i - 1] * j + d) % k}"
                else:
                    part_of[t] = f"solo:{t}"
                    capacity[f"solo:{t}"] = 1
            matroids.append(make_partition_matroid(part_of, capacity))
    return matroids, label_map


# ---------------------------------------------------------------------------
# Seeded random instances for the property suites.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomInstanceParams:
    """Knobs for the random instance generator; sizes stay at exact scale."""

    max_elements: int = 8
    max_types: int = 3
    max_depth: int = 4
    valuation_kinds: tuple[str, ...] = (
        "coverage",
        "partition_weighted",
        "matroid_intersection_rank",
        "matching_rank",
    )
    constraint_kinds: tuple[str, ...] = ("budget", "cardinality", "dag_path")
    k_extendible: int | None = None  # pin the matroid count / force matching
    weight_low: int = 1
    weight_high: int = 1  # > 1 draws integer weights per type


def _det_rng(*key) -> random.Random:
    digest = hashlib.sha256(repr(key).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _random_valuation(
    rng: random.Random, kind: str, types: list[str], params: RandomInstanceParams
) -> tuple[ValuationFunction, int | None]:
    def type_weights() -> dict[str, int]:
        return {
            t: rng.randint(params.weight_low, params.weight_high) for t in types
        }

    if kind == "coverage":
        items = [f"g{i}" for i in range(6)]
        cover = {t: frozenset(rng.sample(items, rng.randint(0, 3))) for t in types}
        return coverage_valuation(cover), None
    if kind == "partition_weighted":
        n_parts = rng.randint(2, 4)
        part_of = {
            t: f"p{rng.randrange(n_parts)}" for t in types if rng.random() < 0.85
        }
        part_weight = {f"p{i}": Fraction(rng.randint(1, 8), 4) for i in range(n_parts)}
        return partition_weighted_valuation(part_of, part_weight), None
    if kind == "matroid_intersection_rank":
        m = params.k_extendible or rng.randint(1, 3)
        members = []
        for _ in range(m):
            n_parts = rng.randint(2, 4)
            part_of = {t: f"q{rng.randrange(n_parts)}" for t in types}
            capacity = {f"q{i}": rng.randint(1, 2) for i in range(n_parts)}
            members.append(make_partition_matroid(part_of, capacity))
        family = intersect(members)
        return weighted_rank(family, type_weights()), m
    if kind == "matching_rank":
        vertices = [f"u{i}" for i in range(5)]
        edges = {t: tuple(rng.sample(vertices, 2)) for t in types}
        family = make_matching_family(edges)
        return weighted_rank(family, type_weights()), 2
    raise ValidationError(f"unknown valuation kind {kind!r}")


def _random_constraint(
    rng: random.Random, kind: str, elements: list[str], params: RandomInstanceParams
) -> ConstraintOracle:
    if kind == "budget":
        cost = {e: rng.choice((1, 1, 2, 3)) / 2 for e in elements}
        budget = rng.randint(2, 2 * params.max_depth) / 2
        return constraint_budget(cost, budget)
    if kind == "cardinality":
        return constraint_cardinality(rng.randint(1, params.max_depth))
    if kind == "dag_path":
        arcs = {}
        for i, e in enumerate(elements):
            succ = elements[i + 1 : i + 4]
            arcs[e] = frozenset(s for s in succ if rng.random() < 0.7)
        return constraint_dag_path(arcs, elements[0])
    raise ValidationError(f"unknown constraint kind {kind!r}")


def gen_random_instance(
    seed: int, params: RandomInstanceParams | None = None
) -> InstanceBundle:
    """Deterministic random instance: universe, valuation, constraint, and a
    feasible decision tree of bounded depth."""
    params = params or RandomInstanceParams()
    rng = _det_rng("instance", seed, params)
    n = rng.randint(3, params.max_elements)
    elements = [f"e{i}" for i in range(n)]
    type_space = {
        e: tuple(f"{e}.t{j}" for j in range(rng.randint(1, params.max_types)))
        for e in elements
    }
    probs = {}
    for e, ts in type_space.items():
        raw = [rng.randint(1, 8) for _ in ts]
        total = sum(raw)
        probs[e] = {t: Fraction(r, total) for t, r in zip(ts, raw)}
    universe = universe_from_type_space(type_space)
    dist = TypeDistribution(probs)

    all_types = [t for e in elements for t in type_space[e]]
    valuation_kind = rng.choice(params.valuation_kinds)
    valuation, kext = _random_valuation(rng, valuation_kind, all_types, params)
    constraint_kind = rng.choice(params.constraint_kinds)
    constraint = _random_constraint(rng, constraint_kind, elements, params)

    def build(prefix: tuple[str, ...], used: frozenset[str], depth: int) -> DecisionTree:
        if depth >= params.max_depth:
            return leaf()
        candidates = [
            e for e in elements if e not in used and constraint.may_extend(prefix, e)
        ]
        if not candidates or (depth > 0 and rng.random() < 0.25):
            return leaf()
        e = rng.choice(candidates)
        return probe(
            e,
            {
                t: build(prefix + (e,), used | {e}, depth + 1)
                for t in type_space[e]
            },
        )

    tree = build((), frozenset(), 0)
    metadata = {
        "name": "random",
        "seed": seed,
        "valuation_kind": valuation_kind,
        "constraint_kind": constraint_kind,
        "k": kext,
    }
    return InstanceBundle(universe, dist, valuation, constraint, tree, metadata)
