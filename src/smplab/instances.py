"""Instance generators: the two families of constructions whose adaptive
value provably outruns every non-adaptive strategy, their closed-form
oracles, and seeded random instances that fuel the property suites.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Mapping

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
    IntersectionFamily,
    MatchingFamily,
    PartitionMatroid,
    PathChainFamily,
)
from .strategy import (
    BudgetConstraint,
    CardinalityConstraint,
    ConstraintOracle,
    DagPathConstraint,
    DecisionTree,
    TreeFanConstraint,
    leaf,
    probe,
)
from .valuation import (
    ValuationFunction,
    WeightedRankValuation,
    coverage_valuation,
    partition_weighted_valuation,
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


#: Deepest triangular instance (columns) that ``submodular_lb_depth`` allows.
SUBMODULAR_LB_DEPTH_CAP = 1 << 14

#: Most elements a triangular instance may have to be built by ``gen_submodular_lb``.
SUBMODULAR_LB_ELEMENT_CAP = 10**5


def submodular_lb_depth(eps: Scalar) -> int:
    """Smallest depth whose residual tail (1-eps)^D drops below eps**2; refuses one
    past ``SUBMODULAR_LB_DEPTH_CAP``, estimated in floats before any exact step."""
    # the gap guarantees are stated for eps < 1/2, but the construction and
    # its recurrences are well defined on all of (0, 1)
    if not (0 < eps < 1):
        raise ValidationError("eps must satisfy 0 < eps < 1")
    x = float(eps)  # 0.0 when a Fraction eps underflows; 1.0 when it rounds up
    estimate = 2 * math.log(x) / math.log1p(-x) if 0 < x < 1 else 0 if x else math.inf
    if estimate >= SUBMODULAR_LB_DEPTH_CAP:
        raise ExactCapExceeded(
            f"eps={eps} needs about {estimate:.4g} columns, past the depth cap of "
            f"{SUBMODULAR_LB_DEPTH_CAP}; use the limits 2 - eps and 1")
    q = 1 - eps
    threshold = eps * eps
    depth = 0
    acc: Scalar = 1
    while not acc < threshold:
        acc = acc * q
        depth += 1
    return depth


def _column_weights(eps: Scalar, depth: int) -> list[Scalar]:
    """(1-eps)^j for j = 0 .. depth + 2, each the product of the one before
    and 1 - eps."""
    qpow: list[Scalar] = [1]
    for _ in range(depth + 2):
        qpow.append(qpow[-1] * (1 - eps))
    return qpow


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
    the paths that reach it, so it is no larger than the universe. An eps
    whose (depth+1)(depth+2)/2 elements pass ``SUBMODULAR_LB_ELEMENT_CAP`` is
    refused before anything is built.
    """
    depth = submodular_lb_depth(eps)
    if (count := (depth + 1) * (depth + 2) // 2) > SUBMODULAR_LB_ELEMENT_CAP:
        raise ExactCapExceeded(f"eps={eps} needs {count} elements, past the element cap of "
                               f"{SUBMODULAR_LB_ELEMENT_CAP}; use the column recurrences")
    qpow = _column_weights(eps, depth)
    coords = [(k, l) for k in range(depth + 1) for l in range(depth + 1 - k)]
    type_space = {}
    probs = {}
    part_of = {}
    for k, l in coords:
        e = _submod_element(k, l)
        on, off = f"{e}:on", f"{e}:off"
        type_space[e] = (on, off)
        probs[e] = {on: eps, off: qpow[1]}
        part_of[on] = f"col{k}"
    part_weight = {f"col{k}": qpow[k] for k in range(depth + 1)}

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
    constraint = DagPathConstraint(arcs, _submod_element(0, 0))
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
    last column equal to zero. With q = 1 - eps and depth D that is
    q^k (1 - q^(D-k+1)) + eps * S(k), where S(k) = adap(k+1) + q * S(k+1)
    is carried from column to column, so it runs in O(depth).
    """
    depth = submodular_lb_depth(eps)
    qpow = _column_weights(eps, depth)
    adap = carried = 0  # adap(k + 1) and S(k)
    for k in range(depth, -1, -1):
        adap = qpow[k] * (1 - qpow[depth - k + 1]) + eps * carried
        carried = adap + qpow[1] * carried
    return adap


def submodular_lb_alg_opt(eps: Scalar) -> Scalar:
    """Best non-adaptive value, by dynamic programming over columns.

    A feasible probing set is a column prefix followed by a jump to a fresh
    column, so alg(k) = max_i [(1-eps)^k (1-(1-eps)^(i+1)) + alg(k+i+1)], which
    is max(0, q^k + the largest alg(j) - q^j over j > k) with q = 1 - eps, that
    largest carried from column to column: O(depth). The result stays strictly
    below 1.
    """
    depth = submodular_lb_depth(eps)
    qpow = _column_weights(eps, depth)
    alg: Scalar = 0  # alg(depth + 1)
    best = -qpow[depth + 1]  # the largest alg(j) - q^j over j > k
    for k in range(depth, -1, -1):
        alg = max(0, qpow[k] + best)
        best = max(best, alg - qpow[k])
    return alg


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


#: Most edges a w-ary tree may have to be built (by ``gen_tree_lb`` and the encoding).
WARY_EDGE_CAP = 5000

#: ``gen_tree_lb`` builds its reference tree only when w*k, the number of
#: probes on each root-leaf path of that tree, is at most this.
TREE_LB_PROBE_CAP = 12


def _build_wary_tree(arity: int, depth: int) -> _WaryTree:
    edge_count = sum(arity**d for d in range(1, depth + 1))
    if edge_count > WARY_EDGE_CAP:
        raise ExactCapExceeded(f"{edge_count} edges exceed the materialization cap "
                               f"{WARY_EDGE_CAP}; use the closed-form value oracles")
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
    the first active edge: k * (1 - (1-p)**w), by ``expm1`` and ``log1p`` where
    ``1 - p`` rounds to 1."""
    _check_tree_lb(k, p, w)
    if 1 - p == 1:
        return -k * math.expm1(w * math.log1p(-p))
    return k * (1 - (1 - p) ** w)


def tree_lb_nonadaptive_bound(k: int, p: Scalar) -> Scalar:
    """Every non-adaptive strategy earns at most 1 + k*p in expectation."""
    _check_tree_lb(k, p)
    return 1 + k * p


def gen_tree_lb(k: int, w: int, p: Scalar) -> InstanceBundle:
    """Perfect w-ary tree of depth k whose edges are Bernoulli(p) elements.

    The objective is the rank of the family of edge sets lying on a single
    root-leaf path; the constraint lets a sequence be probed only while some
    root-leaf vertex path touches every probed edge. The reference tree
    probes sibling edges in child order and descends below the first active
    one (below the first child if none); it is materialized only when
    w*k <= ``TREE_LB_PROBE_CAP``.
    """
    _check_tree_lb(k, p, w)
    shape = _build_wary_tree(w, k)
    type_space = {}
    probs = {}
    on_endpoints = {}
    q = 1 - p
    for el in shape.edges:
        on, off = f"{el}:on", f"{el}:off"
        type_space[el] = (on, off)
        probs[el] = {on: p, off: q}
        on_endpoints[on] = shape.endpoints[el]

    universe = universe_from_type_space(type_space)
    dist = TypeDistribution(probs)
    family = PathChainFamily(on_endpoints, shape.root)
    valuation = WeightedRankValuation(family, dict.fromkeys(on_endpoints, 1))
    constraint = TreeFanConstraint(shape.endpoints, shape.root)

    tree = None
    if w * k <= TREE_LB_PROBE_CAP:
        # one node per (vertex, sibling index, first active sibling or None),
        # built from the deepest vertices up, so a vertex's subtree is shared
        # by every node that descends into it
        end = leaf()
        below: dict[str, DecisionTree] = {}  # vertex -> the probe of its first child edge
        for vertex, kids in reversed(shape.children.items()):
            # after the last sibling: descend below the first active one, or the first
            after = [below.get(c, end) for c in kids]
            nxt = {None: after[0], **dict(enumerate(after))}
            for idx in range(len(kids) - 1, -1, -1):
                el = _edge_id(shape.labels[kids[idx]])
                on, off = type_space[el]
                nxt = {
                    first: probe(el, {on: nxt[idx if first is None else first], off: nxt[first]})
                    for first in (None, *range(idx))
                }
            below[vertex] = nxt[None]
        tree = below[shape.root]

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
            matroids.append(PartitionMatroid(part_of, capacity))
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
            members.append(PartitionMatroid(part_of, capacity))
        family = IntersectionFamily(members)
        return WeightedRankValuation(family, type_weights()), m
    if kind == "matching_rank":
        vertices = [f"u{i}" for i in range(5)]
        edges = {t: tuple(rng.sample(vertices, 2)) for t in types}
        family = MatchingFamily(edges)
        return WeightedRankValuation(family, type_weights()), 2
    raise ValidationError(f"unknown valuation kind {kind!r}")


def _random_constraint(
    rng: random.Random, kind: str, elements: list[str], params: RandomInstanceParams
) -> ConstraintOracle:
    if kind == "budget":
        cost = {e: rng.choice((1, 1, 2, 3)) / 2 for e in elements}
        budget = rng.randint(2, 2 * params.max_depth) / 2
        return BudgetConstraint(cost, budget)
    if kind == "cardinality":
        return CardinalityConstraint(rng.randint(1, params.max_depth))
    if kind == "dag_path":
        arcs = {}
        for i, e in enumerate(elements):
            succ = elements[i + 1 : i + 4]
            arcs[e] = frozenset(s for s in succ if rng.random() < 0.7)
        return DagPathConstraint(arcs, elements[0])
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

    def build(state: Hashable, used: frozenset[str], depth: int) -> DecisionTree:
        if depth >= params.max_depth:
            return leaf()
        nxt = {e: constraint.step(state, e) for e in elements if e not in used}
        candidates = [e for e, s in nxt.items() if s is not None]
        if not candidates or (depth > 0 and rng.random() < 0.25):
            return leaf()
        e = rng.choice(candidates)
        return probe(
            e, {t: build(nxt[e], used | {e}, depth + 1) for t in type_space[e]}
        )

    tree = build(constraint.initial, frozenset(), 0)
    del build  # the closure refers to itself: a cycle only the collector would free
    metadata = {
        "name": "random",
        "seed": seed,
        "valuation_kind": valuation_kind,
        "constraint_kind": constraint_kind,
        "k": kext,
    }
    return InstanceBundle(universe, dist, valuation, constraint, tree, metadata)
