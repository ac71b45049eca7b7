"""Independent brute-force oracles the tests check the library against.

These deliberately avoid the library's evaluator code paths: the exact
oracles enumerate full type vectors or subsets with :func:`profiles` and
walk the tree with :func:`walk`, the Monte Carlo reference walks the
decision tree one sampled row of type ids at a time, and the encoding
reference asks the intersection oracle about every pair.
"""

import itertools
import math
import random

import numpy as np

from smplab import (
    RandomStream,
    bucketize,
    class_decompose,
    greedy_optimal_combine,
    select_representatives,
)
from smplab.core import sample_type_codes
from smplab.evaluate import MC_BLOCK
from smplab.families import intersect
from smplab.reduction import two_power


def powerset(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, r))


def profiles(universe, dist, elements=None):
    """Every joint type assignment over ``elements`` (default: all of them),
    as an element -> type dict in universe order, with its probability."""
    elems = [e for e in universe.elements if elements is None or e in elements]
    for combo in itertools.product(*(universe.type_space[e] for e in elems)):
        p = 1
        for e, t in zip(elems, combo):
            p = p * dist.prob(e, t)
        yield dict(zip(elems, combo)), p


def walk(tree, profile):
    """The ``(element, type)`` steps from the root to a leaf, following the
    arc that ``profile`` (an element -> type dict) picks at each node."""
    steps = []
    node = tree
    while not node.is_leaf:
        t = profile[node.element]
        steps.append((node.element, t))
        node = node.children[t]
    return tuple(steps)


def repeats_on_a_path(tree):
    """True iff some root-leaf path probes an element twice, found by
    following every path on its own (exponential on a DAG: small trees only)."""
    stack = [(tree, frozenset())]
    while stack:
        node, above = stack.pop()
        if node.is_leaf:
            continue
        if node.element in above:
            return True
        stack.extend((child, above | {node.element}) for child in node.children.values())
    return False


def sampled_rows(universe, dist, stream, count):
    """The rows of ``sample_type_codes`` as tuples of type ids."""
    spaces = [universe.type_space[e] for e in universe.elements]
    return [
        tuple(space[c] for space, c in zip(spaces, row))
        for row in sample_type_codes(universe, dist, stream, count).tolist()
    ]


def brute_max_weight_independent(is_independent, types, weights=None):
    """Max weight over ALL subsets, testing independence from scratch."""
    best = 0
    for sub in powerset(types):
        if not is_independent(sub):
            continue
        w = len(sub) if weights is None else sum(weights.get(t, 0) for t in sub)
        if w > best:
            best = w
    return best


def brute_max_matching(edges_by_type, types):
    """Max cardinality matching by subset enumeration."""

    def is_matching(sub):
        seen = set()
        for t in sub:
            u, v = edges_by_type[t]
            if u in seen or v in seen:
                return False
            seen.update((u, v))
        return True

    return max(len(s) for s in powerset(types) if is_matching(s))


def brute_adap(tree, f, universe, dist):
    """Adaptive value by full enumeration of total vectors plus tree walks."""
    total = 0
    for vec, p in profiles(universe, dist):
        steps = walk(tree, vec)
        total = total + p * f(frozenset(t for _, t in steps))
    return total


def brute_alg(tree, f, universe, dist):
    """Random-walk value by joint enumeration of virtual and true vectors."""
    total = 0
    for vx, px in profiles(universe, dist):
        elems = [e for e, _ in walk(tree, vx)]
        for vt, pt in profiles(universe, dist):
            total = total + px * pt * f(frozenset(vt[e] for e in elems))
    return total


def brute_greedy_interleaved(tree, family, universe, dist):
    """Greedy count over joint enumeration, scanning true-then-virtual."""
    total = 0
    for vx, px in profiles(universe, dist):
        elems = [e for e, _ in walk(tree, vx)]
        for vt, pt in profiles(universe, dist):
            chosen = []
            for e in elems:
                for t in (vt[e], vx[e]):
                    if t in chosen:
                        continue
                    if family.is_independent(frozenset(chosen) | {t}):
                        chosen.append(t)
            total = total + px * pt * len(chosen)
    return total


def brute_combined(tree, weights, family, k, universe, dist):
    """Combined-selection value by joint enumeration of virtual and true
    vectors; the representative classes come from :func:`brute_alg`."""
    deco = class_decompose(weights, family)
    scaled = {
        j: two_power(j) * brute_alg(tree, f_j, universe, dist)
        for j, f_j in deco.classes.items()
    }
    reps = select_representatives(scaled, bucketize(deco.hi, deco.lo, k))
    total = 0
    for vx, px in profiles(universe, dist):
        elems = [e for e, _ in walk(tree, vx)]
        for vt, pt in profiles(universe, dist):
            picked = greedy_optimal_combine(
                frozenset(vt[e] for e in elems), deco, reps, family
            )
            total = total + px * pt * sum(weights[t] for t in picked)
    return total


def brute_best_nonadaptive(universe, dist, f, constraint, max_len):
    """Best fixed probing set by explicit sequence enumeration."""
    best = ((), 0)
    seen_sets = {}

    def set_value(elems):
        key = frozenset(elems)
        if key not in seen_sets:
            total = 0
            for vec, p in profiles(universe, dist, key):
                total = total + p * f(frozenset(vec.values()))
            seen_sets[key] = total
        return seen_sets[key]

    def walk(prefix):
        nonlocal best
        for e in sorted(universe.elements):
            if e in prefix or not constraint.may_extend(prefix, e):
                continue
            seq = prefix + (e,)
            v = set_value(seq)
            if v > best[1]:
                best = (seq, v)
            if len(seq) < max_len:
                walk(seq)

    walk(())
    return best


def reference_mc(tree, f, universe, dist, trials, seed, resample):
    """Monte Carlo (value, stderr) by a row-by-row walk over type-id rows.

    Each counter-addressed block draws virtual rows from stream 0 and, with
    ``resample``, true rows from stream 1 (otherwise the virtual rows are
    the true ones). The walk follows the virtual types and values the true
    types of the probed elements.
    """
    index = {e: i for i, e in enumerate(universe.elements)}
    values = []
    for b in range((trials + MC_BLOCK - 1) // MC_BLOCK):
        n = min(MC_BLOCK, trials - b * MC_BLOCK)
        virtual = sampled_rows(universe, dist, RandomStream(seed, 0, b), n)
        true = (
            sampled_rows(universe, dist, RandomStream(seed, 1, b), n)
            if resample
            else virtual
        )
        for vrow, trow in zip(virtual, true):
            node = tree
            got = []
            while not node.is_leaf:
                j = index[node.element]
                got.append(trow[j])
                node = node.children[vrow[j]]
            values.append(float(f(frozenset(got))))
    values = np.array(values)
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(values.mean()), stderr


def _ancestor_comparable(la, lb):
    shorter, longer = (la, lb) if len(la) <= len(lb) else (lb, la)
    return longer[: len(shorter)] == shorter


def reference_check_encoding(
    matroids, label_map, *, set_samples=10_000, seed=0, exhaustive_set_limit=12
):
    """``check_encoding`` as a loop: every pair through the intersection oracle."""
    inter = intersect(list(matroids))
    ground = sorted(label_map)

    def chain(types):
        labs = [label_map[t][0] for t in types]
        return all(
            _ancestor_comparable(x, y) for x, y in itertools.combinations(labs, 2)
        )

    for a, b in itertools.combinations(ground, 2):
        expected = _ancestor_comparable(label_map[a][0], label_map[b][0])
        if inter.is_independent({a, b}) != expected:
            return False, frozenset({a, b})

    if len(ground) <= exhaustive_set_limit:
        for size in range(3, len(ground) + 1):
            for combo in itertools.combinations(ground, size):
                s = frozenset(combo)
                if inter.is_independent(s) != chain(s):
                    return False, s
    else:
        rng = random.Random(seed)
        for _ in range(set_samples):
            size = rng.randint(2, min(8, len(ground)))
            s = frozenset(rng.sample(ground, size))
            if inter.is_independent(s) != chain(s):
                return False, s
    return True, None
