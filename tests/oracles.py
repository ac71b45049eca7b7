"""Independent brute-force oracles the tests check the library against.

These deliberately avoid the library's evaluator code paths: the exact
oracles enumerate full type vectors or subsets with :func:`profiles` and
walk the tree with :func:`walk`, the Monte Carlo reference walks the
decision tree one sampled row of type ids at a time, independence is
decided from each family's definition rather than its stepper, and the
encoding reference asks that about every pair.
"""

import itertools
import math
import random

import numpy as np

from smplab import (
    RandomStream,
    TypeDistribution,
    ValidationError,
    bucketize,
    class_decompose,
    greedy_optimal_combine,
    select_representatives,
)
from smplab.core import _type_codes, _type_thresholds
from smplab.evaluate import MC_BLOCK
from smplab.families import (
    IntersectionFamily,
    MatchingFamily,
    PartitionMatroid,
    PathChainFamily,
)
from smplab.instances import _column_weights, submodular_lb_depth
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


def zero_first_types(dist):
    """``dist`` with the first type of every multi-type element at probability 0."""
    rows = {}
    for e, row in dist.probs.items():
        first = next(iter(row))
        if len(row) > 1:
            row = {t: 0 if t == first else p / (1 - row[first]) for t, p in row.items()}
        rows[e] = row
    return TypeDistribution(rows)


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


def sample_type_codes(universe, dist, stream, count):
    """Draw ``count`` joint type profiles as integer codes, one block per stream.

    Entry ``[i, j]`` is the position of row ``i``'s type for element
    ``universe.elements[j]`` within that element's type space. The whole
    block is a single counter-addressed draw; the Monte Carlo evaluators draw
    the same block and convert only the cells their walk visits.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    u = stream.generator().random((count, len(universe.elements)))
    return _type_codes(u, _type_thresholds(universe, dist, universe.elements))


def sampled_rows(universe, dist, stream, count):
    """The rows of ``sample_type_codes`` as tuples of type ids."""
    spaces = [universe.type_space[e] for e in universe.elements]
    return [
        tuple(space[c] for space, c in zip(spaces, row))
        for row in sample_type_codes(universe, dist, stream, count).tolist()
    ]


def reference_independent(family, types):
    """Whether ``types`` is independent in ``family``, from the family's definition
    rather than its stepper: within the ground, and then part counts within the
    capacities, no shared vertex, one ancestor chain of lower endpoints, independent
    in every member, or listed."""
    key = frozenset(types)
    return not key or (key <= family.ground and _defined_independent(family, key))


def _defined_independent(family, key):
    """``reference_independent`` for a nonempty ``key`` within the ground."""
    if isinstance(family, PartitionMatroid):
        counts: dict = {}
        for t in key:
            p = family.part_of[t]
            counts[p] = n = counts.get(p, 0) + 1
            if n > family.capacity[p]:
                return False
        return True
    if isinstance(family, MatchingFamily):
        ends = [v for t in key for v in family.edges[t]]
        return len(ends) == len(set(ends))
    if isinstance(family, PathChainFamily):
        low = [family._subtree[family.edges[t][1]] for t in key]
        deepest = max(r.start for r in low)
        return all(deepest in r for r in low)
    if isinstance(family, IntersectionFamily):  # its members share its ground
        return all(_defined_independent(m, key) for m in family.members)
    return key in family.sets


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


def reference_coverage(cover_sets, types):
    """``(value, reach)`` of a coverage valuation, computed as it was when
    coverage had a class of its own: the size of the union of the cover sets."""
    covered = set()
    for t in types:
        s = cover_sets.get(t)
        if s:
            covered |= s
    return len(covered), frozenset().union(*(cover_sets.get(t, ()) for t in types))


def reference_partition_weighted(part_of, part_weight, types):
    """``(value, reach)`` of a partition-weighted valuation, computed as it was
    when it had a class of its own: part weights summed in declaration order."""
    parts = {part_of[t] for t in types if t in part_of}
    value = sum(w for p, w in part_weight.items() if p in parts)
    return value, frozenset(part_of[t] for t in types if t in part_of)


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


def brute_greedy_interleaved(tree, family, universe, dist, online=False):
    """Greedy count over joint enumeration, scanning true-then-virtual; with
    ``online``, only the selections of true types count."""
    total = 0
    for vx, px in profiles(universe, dist):
        elems = [e for e, _ in walk(tree, vx)]
        for vt, pt in profiles(universe, dist):
            chosen, counted = [], 0
            for e in elems:
                for t, true in ((vt[e], True), (vx[e], False)):
                    if t in chosen:
                        continue
                    if reference_independent(family, [*chosen, t]):
                        chosen.append(t)
                        counted += true or not online
            total = total + px * pt * counted
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


def quadratic_adap_recurrence(eps):
    """``submodular_lb_adap_recurrence`` as a double loop over (column, run of
    inactive elements), in O(depth^2): the column k term sums
    (1-eps)^i * eps * ((1-eps)^k + adap(k+i+1)) over i."""
    depth = submodular_lb_depth(eps)
    qpow = _column_weights(eps, depth)
    adap = [0] * (depth + 2)
    for k in range(depth, -1, -1):
        s = 0
        for i in range(depth - k + 1):
            nxt = adap[k + i + 1] if k + i + 1 <= depth else 0
            s = s + qpow[i] * eps * (qpow[k] + nxt)
        adap[k] = s
    return adap[0]


def quadratic_alg_opt(eps):
    """``submodular_lb_alg_opt`` as a double loop, in O(depth^2): alg(k) is the
    best of (1-eps)^k (1-(1-eps)^(i+1)) + alg(k+i+1) over i, and at least 0."""
    depth = submodular_lb_depth(eps)
    qpow = _column_weights(eps, depth)
    alg = [0] * (depth + 2)
    for k in range(depth, -1, -1):
        best = 0
        for i in range(depth - k + 1):
            nxt = alg[k + i + 1] if k + i + 1 <= depth else 0
            v = qpow[k] * (1 - qpow[i + 1]) + nxt
            if v > best:
                best = v
        alg[k] = best
    return alg[0]


def reference_allows(constraint, sequence):
    """``constraint.allows`` by each kind's per-prefix rule: every element is
    checked against the whole prefix before it, in order, and the first
    rejection ends the check."""
    seq = tuple(sequence)
    return all(_reference_may_extend(constraint, seq[:i], seq[i]) for i in range(len(seq)))


def _reference_may_extend(c, prefix, nxt):
    if c.kind == "budget":
        spent = 0
        for e in (*prefix, nxt):
            if e not in c.cost:
                raise ValidationError(f"no probing cost for element {e!r}")
            spent = spent + c.cost[e]
        return spent <= c.budget
    if c.kind == "cardinality":
        return len(prefix) < c.limit
    if c.kind == "dag_path":
        return nxt == c.start if not prefix else nxt in c.arcs.get(prefix[-1], ())
    if c.kind == "tree_fan":
        # the parent vertices of the probed edges must be pairwise comparable
        parent = {v: u for u, v in c.edges.values()}

        def at_or_above(v):
            out = {v}
            while v in parent:
                v = parent[v]
                out.add(v)
            return out

        tops = []
        for e in (*prefix, nxt):
            if e not in c.edges:
                raise ValidationError(f"element {e!r} is not an edge of the tree")
            tops.append(c.edges[e][0])
        return all(
            a in at_or_above(b) or b in at_or_above(a)
            for a, b in itertools.combinations(tops, 2)
        )
    if c.kind == "table":
        return prefix + (nxt,) in c.sequences
    raise ValueError(f"no reference rule for constraint kind {c.kind!r}")


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
            if e in prefix or not constraint.allows(prefix + (e,)):
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
    """``check_encoding`` as a loop: every pair and set through ``reference_independent``."""
    inter = IntersectionFamily(list(matroids))
    ground = sorted(label_map)

    def chain(types):
        labs = [label_map[t][0] for t in types]
        return all(
            _ancestor_comparable(x, y) for x, y in itertools.combinations(labs, 2)
        )

    for a, b in itertools.combinations(ground, 2):
        expected = _ancestor_comparable(label_map[a][0], label_map[b][0])
        if reference_independent(inter, {a, b}) != expected:
            return False, frozenset({a, b})

    if len(ground) <= exhaustive_set_limit:
        for size in range(3, len(ground) + 1):
            for combo in itertools.combinations(ground, size):
                s = frozenset(combo)
                if reference_independent(inter, s) != chain(s):
                    return False, s
    else:
        rng = random.Random(seed)
        for _ in range(set_samples):
            size = rng.randint(2, min(8, len(ground)))
            s = frozenset(rng.sample(ground, size))
            if reference_independent(inter, s) != chain(s):
                return False, s
    return True, None
