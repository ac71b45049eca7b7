"""Exact and Monte Carlo evaluation of probing strategies.

``adap_*`` evaluators value an adaptive decision tree: the valuation of the realized
types on the walked path. ``alg_*`` evaluators value the random-walk non-adaptive
strategy, which samples a virtual root-leaf path and then probes its elements for fresh
independent types. ``greedy_interleaved_exact`` scores the greedy selection that scans
the path root first, the true draw before the virtual one at each element.

Each exact evaluation, and each report, prepares its instance once (``_Prepared``): one
tree check lists the distinct nodes children first, each element's rational
probabilities become int numerators over their lcm, and each valuation is compiled once,
so a set of types is an int mask. ``adap_exact`` and the greedy run on one memoized walk,
``_walk``, summing a node's arcs in ints with one gcd. A virtual path's weight is its
numerator product, and a probed set's fresh draws are grouped by the union of their
masks, each union valued once, in int tables shared along an order prefix. A weighted
coverage with exact weights on exact rows skips the draws: by linearity, ``alg_exact``
sums each item's chance of being covered in one children-first pass over the nodes, and
``best_nonadaptive_exact`` as a product per set. Float
probabilities, and a valuation's float values, are summed as Scalars in arc or draw
order, draws listed one by one, so floats keep their bits. Monte Carlo evaluators are
deterministic given (seed, trials) and bit-identical for any worker count.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Generator, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    ExactCapExceeded,
    RandomStream,
    Scalar,
    TypeDistribution,
    Universe,
    ValidationError,
    _type_codes,
    _type_thresholds,
    iter_type_profiles,  # noqa: F401  (perfbench traces this binding)
)
from .families import IndependenceOracle, PathChainFamily, _union
from .strategy import ConstraintOracle, DecisionTree, _feasible_sequences, _tree_nodes
from .valuation import ValuationFunction, WeightedCoverageValuation, WeightedRankValuation

#: Hard limit on the exact work per evaluation: tree arcs, fresh-draw arcs and item entries.
WORK_CAP = 1 << 22

#: Trials per counter-addressed Monte Carlo block.
MC_BLOCK = 1024

#: Most distinct (set, constraint state) pairs the exhaustive non-adaptive search visits.
SEQUENCE_CAP = 10**6

#: Slack the gap reports allow their inequalities for float rounding.
GAP_REPORT_TOL = 1e-9


@dataclass(frozen=True)
class EvalReport:
    """Value of a strategy evaluation plus its provenance.

    ``stderr`` is only present in Monte Carlo mode; ``trace`` carries side
    values: the greedy's ``online_value``, ``combined_value``'s class values.
    """

    value: Scalar
    mode: str
    trials: int | None = None
    seed: int | None = None
    stderr: float | None = None
    trace: Mapping | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "monte_carlo"):
            raise ValidationError(f"unknown evaluation mode {self.mode!r}")
        if self.mode == "exact" and self.stderr is not None:
            raise ValidationError("exact reports carry no standard error")
        if self.mode == "monte_carlo":
            if self.trials is None or self.trials < 1:
                raise ValidationError("monte_carlo reports need trials >= 1")
            if self.stderr is None or self.stderr < 0:
                raise ValidationError("monte_carlo reports need stderr >= 0")


def _tree_paths(tree: DecisionTree, level: Callable[[str], Mapping[str, Scalar]]) -> Iterator:
    """Each root-leaf path whose arcs have nonzero weights in ``level(element)``, with their
    product, root first: depth first in arc order, on a stack of its own."""
    stack: list[tuple[DecisionTree, tuple, Scalar]] = [(tree, (), 1)]
    while stack:
        node, steps, weight = stack.pop()
        if node.is_leaf:
            yield steps, weight
            continue
        e, weights = node.element, level(node.element)
        for t, child in reversed(node.children.items()):  # so the first arc is walked first
            if w := weights.get(t):
                stack.append((child, (*steps, (e, t)), weight * w))


#: What a work-cap refusal advises for the exact routes that no Monte Carlo route matches.
_NO_MC_ADVICE = "this value has no Monte Carlo route, so use a smaller instance"


class _WorkMeter:
    __slots__ = ("used", "cap", "advice")

    def __init__(self, advice: str = "use MC"):
        self.used = 0
        self.cap = WORK_CAP  # read per evaluation, so a test can patch it
        self.advice = advice

    def spend(self, amount: int, drawn: int | None = None) -> None:
        """Charge ``amount`` units; ``drawn`` is the size of the set whose
        fresh draws they pay for, which a refusal names."""
        self.used += amount
        if self.used > self.cap:
            need = "" if drawn is None else (
                f": fresh draws of a {drawn}-element set need {amount} units "
                f"on top of {self.used - amount}")
            raise ExactCapExceeded(
                f"exact evaluation exceeded the work cap of {self.cap}{need}; {self.advice}"
            )

    def spend_draws(self, order: Sequence[str], rows: Mapping[str, tuple]) -> None:
        """Charge the arcs of the fresh draws of ``order``: the sum, over its elements, of
        the running product of their positive-probability type counts in ``rows``."""
        arcs, width = 0, 1
        for e in order:
            width *= len(rows[e][0])
            arcs += width
        self.spend(arcs, len(order))


class _Prepared:
    """An instance made ready once per public call or report: its tree checked, its distinct
    internal nodes children first and whether a node has two parents; the universe's type
    names; ``rows``; and each valuation compiled once (``form``). No tree: None."""

    def __init__(self, tree: DecisionTree | None, universe: Universe, dist: TypeDistribution):
        self.tree, self.universe, self.dist = tree, universe, dist
        self.nodes, self.shared = ([], False) if tree is None else _tree_nodes(tree, universe)
        self.names = [t for e in universe.elements for t in universe.type_space[e]]
        self._forms: dict[int, tuple] = {}  # id -> (valuation, its compiled form)

    @functools.cached_property
    def rows(self) -> dict[str, tuple]:
        """Per element the tree probes (each element if no tree), ``(probs, weights, scale,
        fractional)``: its positive probabilities by type in type-space order and, if all are
        ints or Fractions, their numerators over their denominators' lcm ``scale`` and
        whether one is a Fraction; else the probabilities again, None and False."""
        rows, space = {}, self.universe.type_space
        for e in dict.fromkeys(n.element for n in self.nodes) if self.tree else space:
            probs = {t: p for t, p in zip(space[e], self.dist.row(e, space[e])) if p != 0}
            if not all(isinstance(p, (int, Fraction)) for p in probs.values()):
                rows[e] = probs, probs, None, False
                continue
            scale = math.lcm(*[p.denominator for p in probs.values()])
            rows[e] = (probs, {t: p.numerator * (scale // p.denominator) for t, p in probs.items()},
                       scale, any(isinstance(p, Fraction) for p in probs.values()))
        return rows

    def form(self, f: ValuationFunction) -> tuple[dict[str, int], Callable[[int], Scalar]]:
        """``f._compiled`` over the type names, once per valuation."""
        if id(f) not in self._forms:
            self._forms[id(f)] = f, f._compiled(self.names)
        return self._forms[id(f)][1]


def _probed_sets(prep: _Prepared, meter: _WorkMeter) -> list[list]:
    """Each distinct set the virtual paths probe, in order of first appearance, as ``[order
    of its first path, its probability]``: when every row on the tree is rational, an int,
    or a (sum of its paths' numerator products, product of its scales) pair if a row of it
    holds a Fraction; else the sum of its paths' probability products, in path order. A
    set's fresh draws are charged to ``meter`` when it is first met, before any draw."""
    rows = prep.rows
    rational = all(rows[node.element][2] for node in prep.nodes)
    sets: dict[frozenset[str], list] = {}
    for steps, weight in _tree_paths(prep.tree, lambda e: rows[e][1 if rational else 0]):
        order = tuple(e for e, _ in steps)
        if (entry := sets.get(elements := frozenset(order))) is None:
            meter.spend_draws(order, rows)
            sets[elements] = [order, weight]
        else:
            entry[1] = entry[1] + weight
    return [[order, (w, math.prod(rows[e][2] for e in order))
             if rational and any(rows[e][3] for e in order) else w] for order, w in sets.values()]


def _weighted_sum(terms: Iterable[tuple], scale: int | None, fractional: bool):
    """The sum of ``w / scale * (x + y)`` over ``(w, x, y)`` terms: in ints over the
    lcm of int, Fraction or ``(numerator, denominator)`` values' denominators, then
    one gcd to an int or, if ``fractional``, a pair in lowest terms; from a float
    value on, or with no scale, adding ``w / scale * (x + y)`` as Scalars in order."""
    num, den, rest = 0, 1, iter(terms)
    for w, x, y in rest if scale else ():
        if type(x) is int is type(y):
            num += w * (x + y) * den
            continue
        if isinstance(x, float) or isinstance(y, float):
            rest = itertools.chain([(w, x, y)], rest)
            break
        for v in (x, y):
            a, b = v if type(v) is tuple else v.as_integer_ratio()
            if den % b:
                num, den = num * (math.lcm(den, b) // den), math.lcm(den, b)
            num, fractional = num + w * a * (den // b), fractional or type(v) is not int
    else:  # no float met
        if scale:
            g = math.gcd(num, den * scale)
            return (num // g, den * scale // g) if fractional else num
    total = Fraction(num, den * scale) if fractional else num
    for w, x, y in rest:
        total = total + (Fraction(w, scale) if fractional else w) * (x + _scalar(y))
    return total


def _scalar(value) -> Scalar:
    """A value of ``_weighted_sum`` as a Scalar."""
    return Fraction(*value) if type(value) is tuple else value


def _draw_sums(sets: Iterable[Sequence], form: tuple, rows: Mapping[str, tuple]) -> Iterator:
    """Per ``_probed_sets`` entry ``(order, p)``, ``p`` times the expectation of ``form``'s
    value over the set's fresh draws. On rational rows, a table from the draws' mask unions
    to their int weights grows an element at a time, kept while the next order starts with
    the same prefix; each union is valued once, in one exact sum. A set with a float row,
    and all from ``form``'s first float value on, list their draws lazily instead."""
    masks, f = form
    chain: list[dict[int, int]] = []  # the tables of a prefix of the current order
    grouped = True  # until f gives a float
    for (order, p), (nxt, _) in itertools.pairwise(itertools.chain(sets, [((), 0)])):
        rs = [rows[e] for e in order]
        scale = None if any(r[2] is None for r in rs) else math.prod(r[2] for r in rs)
        fractional = scale is not None and any(r[3] for r in rs)
        keep = len(os.path.commonprefix([order, nxt]))  # the tables the next order reuses
        if scale and grouped:
            table = chain[-1] if chain else {0: 1}
            for r in rs[len(chain):]:
                grown: dict[int, int] = {}
                level = [(masks[t], w) for t, w in r[1].items()]
                for m, w in table.items():
                    for b, v in level:
                        key = m | b
                        grown[key] = grown.get(key, 0) + w * v
                table = grown
                if len(chain) < keep:
                    chain.append(table)
            values = list(map(f, table))
            if grouped := not any(isinstance(v, float) for v in values):
                n, d = p if type(p) is tuple else (p.numerator, p.denominator)
                yield _weighted_sum(zip(map(n.__mul__, table.values()), values,
                                        itertools.repeat(0)), scale * d, fractional)
        del chain[keep:]
        if not (scale and grouped):
            levels = [r[1] if scale else r[0] for r in rs]
            weights = map(math.prod, itertools.product(*[lv.values() for lv in levels]))
            unions = map(_union, itertools.product(*[[masks[t] for t in lv] for lv in levels]))
            drawn = _weighted_sum(zip(weights, map(f, unions), itertools.repeat(0)), scale,
                                  fractional)
            yield _scalar(p) * _scalar(drawn)


def _walk_values(sets: Sequence[list], forms: Sequence[tuple], rows: Mapping[str, tuple]) -> list:
    """The random-walk value of each compiled form: its ``_draw_sums``, exact until a float."""
    return [_scalar(_weighted_sum(((1, 0, term) for term in _draw_sums(sets, form, rows)), 1,
                                  False)) for form in forms]


def _coverage_hits(prep: _Prepared, f: ValuationFunction) -> dict[str, dict[int, int]] | None:
    """For a weighted coverage with int or Fraction weights, when each row of ``prep.rows``
    is rational (so its numerators sum to its scale): per element, each item its positive
    types reach, by its place in ``f.weight``, with their numerators' sum. Else None."""
    rows = prep.rows
    if type(f) is not WeightedCoverageValuation or not all(
            type(w) in (int, Fraction) for w in f.weight.values()) or not all(
            scale for _, _, scale, _ in rows.values()):
        return None
    place, hits = {x: i for i, x in enumerate(f.weight)}, {}
    for e, (_, nums, _, _) in rows.items():
        hit = hits[e] = {}
        for t, n in nums.items():
            for x in f.reach_of.get(t, ()):
                hit[place[x]] = hit.get(place[x], 0) + n
    return hits


def _coverage_value(f: WeightedCoverageValuation, covered: Mapping[int, int], scale: int,
                    fractional: bool) -> Scalar:
    """Σ_x w_x · covered[x] / scale, of the draw route's type: a Fraction if ``fractional``
    or a covered item's weight is one, else an int (``scale`` is then 1)."""
    weights = list(f.weight.values())
    total = sum(weights[x] * k for x, k in covered.items())
    fractional = fractional or any(type(weights[x]) is Fraction for x in covered)
    return Fraction(total, scale) if fractional else total


def _cover_step(hit: Mapping[int, int], s: int, after: Mapping[int, int], scale: int) -> tuple:
    """A fresh draw that reaches item x with numerator ``hit[x]`` over ``s``, before draws that
    cover it with numerator ``after[x]`` over ``scale``: each item's numerator over s·scale."""
    covered = {x: s * v for x, v in after.items()}
    for x, r in hit.items():
        covered[x] = r * scale + (s - r) * after.get(x, 0)
    return covered, s * scale


def _coverage_walk(prep: _Prepared, f: WeightedCoverageValuation, hits: Mapping) -> Scalar:
    """alg by linearity: Σ_x w_x · P(the virtual path's fresh draws cover x). Children first,
    a node gets a sparse table K over one denominator D of each item's chance of being
    covered at or below it: with row numerators n_t over scale s, r_x of them reaching x,
    and its children's tables over their denominators' lcm L, K[x] = r_x·s·L + (s − r_x)·Σ_t
    n_t·K_t[x]·L/D_t and D = s²·L. A child's table is dropped once its last parent read it:
    in a tree, its one parent; in a DAG, ``readers`` counts its positive arcs in."""
    rows, meter, leaf = prep.rows, _WorkMeter(), ({}, 1, False)
    readers = collections.Counter(id(c) for node in prep.nodes for t, c in node.children.items()
                                  if t in rows[node.element][1]) if prep.shared else None
    tables: dict[int, tuple] = {}  # id -> (K, D, whether a row at or below is fractional)
    covered, scale, fractional = {}, 1, False  # the last node's: the root's
    for node in prep.nodes:
        _, nums, s, fractional = rows[node.element]
        arcs = []  # (n_t, the child's entry) per positive arc; no leaf has a table
        for t, c in node.children.items():
            if (n := nums.get(t)) is not None:
                if readers and readers[key := id(c)] > 1:  # a later arc reads it too
                    readers[key] -= 1
                    arcs.append((n, tables.get(key, leaf)))
                else:
                    arcs.append((n, tables.pop(id(c), leaf)))
        lcm, below = math.lcm(*[d for _, (_, d, _) in arcs]), {}
        for n, (k, d, frac) in arcs:
            n, fractional = n * (lcm // d), fractional or frac
            for x, v in k.items():
                below[x] = below.get(x, 0) + n * v
        covered, scale = _cover_step(hits[node.element], s, below, s * lcm)
        meter.spend(len(arcs) * max(1, len(covered)))
        tables[id(node)] = covered, scale, fractional
    return _coverage_value(f, covered, scale, fractional)


def _coverage_product(order: Sequence[str], f: WeightedCoverageValuation, hits: Mapping,
                      rows: Mapping[str, tuple], meter: _WorkMeter) -> Scalar:
    """f's expectation over the fresh draws of ``order`` by linearity, an item missed with
    chance Π_e (s_e − r_{e,x}) / s_e; each element charges its table's entries (at least 1)."""
    covered, scale = {}, 1
    for e in order:
        covered, scale = _cover_step(hits[e], rows[e][2], covered, scale)
        meter.spend(max(1, len(covered)))
    return _coverage_value(f, covered, scale, any(rows[e][3] for e in order))


def _walk(expand: Callable[..., Generator], *root):
    """The value of ``expand(*root)``, a recursion written as generators and run
    on a stack of its own rather than Python's: a generator yields ``(key, args)``
    for a sub-call and is sent the value of ``expand(*args)``, computed once per
    key per walk and then reused, whatever it is; a None key is never reused."""
    memo: dict = {}
    stack, sent = [(None, expand(*root))], None
    while stack:
        try:
            key, args = stack[-1][1].send(sent)
        except StopIteration as done:
            key, sent = stack.pop()[0], done.value
            if key is not None:
                memo[key] = sent
            continue
        if key in memo:
            sent = memo[key]
        else:
            stack.append((key, expand(*args)))
            sent = None
    return sent


def adap_exact(
    tree: DecisionTree,
    f: ValuationFunction,
    universe: Universe,
    dist: TypeDistribution,
) -> EvalReport:
    """Expected adaptive value, by root decomposition.

    At each node the probe's marginal value is added to the value of the
    subtree below, evaluated with the revealed type fixed; this equals the
    direct sum over root-leaf paths. ``f`` is compiled once; when its masks are
    reach, a subtree's value depends on the revealed set only through its mask
    within what the subtree's types reach, so the walk expands each such
    ``(node, reach)`` pair once.
    """
    return EvalReport(value=_adap(_Prepared(tree, universe, dist), f), mode="exact")


def _adap(prep: _Prepared, f: ValuationFunction) -> Scalar:
    rows, meter = prep.rows, _WorkMeter()
    masks, f_of = prep.form(f)
    # without a shared subtree each node is entered once and no key repeats
    memoize = prep.shared and f.masks_reach
    below: dict[int, int] = {}  # reach of the types under each node
    if memoize:
        for node in prep.nodes:  # children first
            below[id(node)] = _union(masks[t] for t in node.children) | _union(
                below.get(id(c), 0) for c in node.children.values())

    def expand(node: DecisionTree, fixed: int, base: Scalar):
        # base is f(fixed), passed down so each arc values f once
        _, weights, scale, fractional = rows[node.element]
        meter.spend(len(weights))
        terms = []  # (weight, value gained at the arc, value gained below it) per arc
        for t, child in node.children.items():
            if (w := weights.get(t)) is None:
                continue  # a zero-probability arc
            ext = fixed | masks[t]
            value = f_of(ext)
            sub = 0
            if not child.is_leaf:
                key = (id(child), ext & below[id(child)]) if memoize else None
                sub = yield key, (child, ext, value)
            terms.append((w, value - base, sub))
        return _weighted_sum(terms, scale, fractional)  # memoized as it gives them

    return 0 if prep.tree.is_leaf else _scalar(_walk(expand, prep.tree, 0, f_of(0)))


def adap_by_path_enumeration(
    tree: DecisionTree,
    f: ValuationFunction,
    universe: Universe,
    dist: TypeDistribution,
) -> Scalar:
    """Reference route for the adaptive value: sum over root-leaf paths."""
    prep = _Prepared(tree, universe, dist)
    masks, f_of = prep.form(f)
    meter = _WorkMeter()
    total: Scalar = 0
    for steps, p in _tree_paths(tree, lambda e: prep.rows[e][0]):
        meter.spend(max(1, len(steps)))
        total = total + p * f_of(_union(masks[t] for _, t in steps))
    return total


def alg_exact(
    tree: DecisionTree,
    f: ValuationFunction,
    universe: Universe,
    dist: TypeDistribution,
) -> EvalReport:
    """Expected value of the random-walk non-adaptive strategy.

    Outer sum over the distinct sets the virtual root-leaf paths probe,
    weighted by the probability of their paths; inner sum over fresh
    independent types for the set's elements. ``f`` may be any function of
    the set of true types. A weighted coverage with int or Fraction weights on
    rational rows takes ``_coverage_walk`` instead, with the same result.
    """
    return EvalReport(value=_alg(_Prepared(tree, universe, dist), f), mode="exact")


def _alg(prep: _Prepared, f: ValuationFunction) -> Scalar:
    if (hits := _coverage_hits(prep, f)) is not None:
        return _coverage_walk(prep, f, hits)
    return _walk_values(_probed_sets(prep, _WorkMeter()), [prep.form(f)], prep.rows)[0]


def greedy_interleaved_exact(
    tree: DecisionTree,
    family: IndependenceOracle,
    universe: Universe,
    dist: TypeDistribution,
) -> EvalReport:
    """Expected greedy count over the union of true and virtual path types.

    Scans the path elements in root-to-leaf order; at each element the true
    type is considered before the virtual type. Non-loops get selected and
    counted, loops are skipped; equal draws collapse to one occurrence. The
    walk branches on the virtual arc, then the true type, once per (node,
    selection), the selection a mask over the universe's types and its state
    in the family's ``_stepper``. ``trace["online_value"]`` is the online value
    that only counts true-type selections while still selecting virtual types.
    """
    total, online = _greedy(_Prepared(tree, universe, dist), family)
    return EvalReport(value=total, mode="exact", trace={"online_value": online})


def _greedy(prep: _Prepared, family: IndependenceOracle) -> tuple[Scalar, Scalar]:
    rows, meter = prep.rows, _WorkMeter(_NO_MC_ADVICE)
    index = {t: i for i, t in enumerate(prep.names)}
    initial, step = family._stepper(prep.names)

    @functools.cache  # a table per call
    def add(chosen: tuple[int, object], t: str) -> tuple[int, object]:
        """``chosen`` plus ``t``, or ``chosen`` itself when ``t`` is a loop."""
        (mask, state), i = chosen, index[t]
        if mask >> i & 1 or (grown := step(state, i)) is None:
            return chosen
        return mask | 1 << i, grown

    def expand(node: DecisionTree, chosen: tuple[int, object]):
        """(expected final size, expected online gain) below ``node``."""
        _, weights, scale, fractional = rows[node.element]
        # true draws in type-space order, virtual arcs in child order
        draws = [(add(chosen, t), q) for t, q in weights.items()]
        got = []  # (weight, selections gained, child's (size, online gain)) per arc and draw
        for virtual, child in node.children.items():
            if (p := weights.get(virtual)) is None:
                continue  # a zero-probability arc
            meter.spend(len(draws))
            for grown, q in draws:
                nxt = add(grown, virtual)
                if child.is_leaf:
                    sub = nxt[0].bit_count(), 0
                else:
                    sub = yield (id(child), nxt[0]), (child, nxt)
                got.append((p * q, grown[0].bit_count() - chosen[0].bit_count(), sub))
        square = scale and scale * scale
        size = _weighted_sum([(w, 0, s) for w, _, (s, _) in got], square, fractional)
        online = _weighted_sum([(w, g, o) for w, g, (_, o) in got], square, fractional)
        return size, online

    if prep.tree.is_leaf:
        return 0, 0
    return tuple(map(_scalar, _walk(expand, prep.tree, (0, initial))))


def _mc_collect(
    trials: int,
    workers: int,
    fill_block,
) -> np.ndarray:
    values = np.empty(trials, dtype=np.float64)
    blocks = range((trials + MC_BLOCK - 1) // MC_BLOCK)
    if (threads := min(workers, len(blocks), os.cpu_count() or 1)) <= 1:
        for b in blocks:
            fill_block(b, values)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda b: fill_block(b, values), blocks))
    return values


class _CodedTree:
    """A decision tree compiled to integer tables for vectorized walks.

    Nodes are numbered once per distinct object, so shared subtrees stay
    shared; the root is node 0 and all leaves share the last node. ``column[v]``
    is the universe index of node ``v``'s element (-1 for the leaf),
    ``thresholds[v]`` that element's ``_type_thresholds`` row (+inf for the leaf)
    and ``child[v, c]`` the node reached when it takes the type at position ``c``
    of its type space. Only the probed elements' rows are read.
    """

    def __init__(self, prep: _Prepared):
        universe, nodes = prep.universe, prep.nodes[::-1]
        index = {e: j for j, e in enumerate(universe.elements)}
        spaces = [universe.type_space[e] for e in universe.elements]
        self.offset = np.cumsum([0] + [len(ts) for ts in spaces[:-1]])
        row = {id(node): v for v, node in enumerate(nodes)}
        leaf = len(nodes)
        self.column = np.array([index[node.element] for node in nodes] + [-1], dtype=np.intp)
        probed, at = np.unique(self.column[:-1], return_inverse=True)  # read no other row
        levels = _type_thresholds(universe, prep.dist, [universe.elements[j] for j in probed])
        self.thresholds = np.vstack([levels[at], np.full(levels.shape[1], np.inf)])
        # every slot starts at the leaf, so the leaf stays put on any code
        self.child = np.full((leaf + 1, self.thresholds.shape[1] + 1), leaf, dtype=np.intp)
        for v, node in enumerate(nodes):
            kids = [row.get(id(node.children[t]), leaf) for t in universe.type_space[node.element]]
            self.child[v, : len(kids)] = kids
        reached, self.height = np.zeros(1, dtype=np.intp), 0  # the most probes on a path
        while (self.column[reached] >= 0).any():  # until only the leaf is reached
            reached, self.height = np.unique(self.child[reached]), self.height + 1

    def walk(self, virtual: np.ndarray, true: np.ndarray) -> np.ndarray:
        """Global type ids revealed along each row's path, one column per level
        (one for a leaf tree), padded with -1. Of the uniform draws ``virtual``
        (which pick the path) and ``true`` (which are revealed), only visited cells
        become codes."""
        trial, node = np.arange(len(virtual)), np.zeros(len(virtual), dtype=np.intp)
        rows = np.full((len(virtual), max(self.height, 1)), -1, dtype=np.intp)
        for level in range(self.height):
            # rows already at the leaf read column -1: harmless, since their
            # level is masked and their child entry is the leaf itself
            col, th = self.column[node], self.thresholds[node]
            code = _type_codes(virtual[trial, col], th)
            got = code if true is virtual else _type_codes(true[trial, col], th)
            rows[:, level] = np.where(col >= 0, self.offset[col] + got, -1)
            node = self.child[node, code]
        return rows


def _path_chain_values(f: WeightedRankValuation, type_names: Sequence[str]):
    """Rows -> ``max_rank``'s best root path: a row's cells in its candidate order
    ``(-w, name)``, a name met twice counted once, and per candidate cell the weights of
    the cells whose lower endpoint's preorder range holds its start, added to 0.0 left
    to right as ``max_rank`` does; a column at a time, so rows x height cells."""
    family = f.family
    weight = {t: w for t in type_names if t in family.ground and (w := f.weights.get(t, 0)) > 0}
    names = sorted(set(type_names), key=lambda t: (-weight.get(t, 0), t))
    order = {t: r for r, t in enumerate(names)}
    # one entry per global type id and a last one, which the padding -1 reads
    low = [family._subtree[family.edges[t][1]] if t in weight else range(0) for t in type_names]
    start, stop = (np.array([getattr(r, a) for r in low] + [0]) for a in ("start", "stop"))
    rank = np.array([order[t] for t in type_names] + [len(order)])
    terms = np.array([weight.get(t, 0) for t in type_names] + [0], dtype=float)

    def chain_values(rows: np.ndarray) -> np.ndarray:
        rows = np.take_along_axis(rows, np.argsort(rank[rows], axis=1), axis=1)
        w, r, lo, hi = terms[rows], rank[rows], start[rows], stop[rows]
        w[:, 1:][r[:, 1:] == r[:, :-1]] = 0.0
        best = np.zeros(len(rows))  # a non-candidate's start, 0, is the root's: no range holds it
        for j in range(rows.shape[1]):
            at = lo[:, j, None]
            total = np.cumsum(np.where((lo <= at) & (at < hi), w, 0.0), axis=1)[:, -1]
            best = np.maximum(best, total)
        return best

    return chain_values


def _row_values(f: ValuationFunction, type_names: Sequence[str]):
    """A function from walked rows to ``float(f(types on the row))`` per row: by
    arrays for a weighted coverage, or a weighted rank of a path-chain family, whose
    weights are floats, or ints totalling at most 2**53, adding a row's weights to 0.0
    in the order ``f`` does; otherwise by ``f`` compiled once per call, a row valued
    by the union of its cells' masks, so the call's blocks share the form's table."""
    chain = type(f) is WeightedRankValuation and type(f.family) is PathChainFamily
    weights = list(f.weights.values() if chain else f.weight.values()
                   if type(f) is WeightedCoverageValuation else [None])
    if all(isinstance(w, (int, float)) for w in weights) and sum(
            w for w in weights if isinstance(w, int)) <= 1 << 53:
        if chain:
            return _path_chain_values(f, type_names)
        item = {x: i for i, x in enumerate(f.weight, 1)}  # column 0 holds the leading 0.0
        hits = [(g, item[x]) for g, t in enumerate(type_names) for x in f.reach_of.get(t, ())]
        # one row per global type id and an empty last one, which the padding -1 reads
        incidence = np.zeros((len(type_names) + 1, len(item) + 1), dtype=bool)
        incidence[tuple(np.array(hits, dtype=np.intp).reshape(-1, 2).T)] = True
        terms = np.array([0.0] + weights, dtype=float)

        def covered_values(rows: np.ndarray) -> np.ndarray:  # a level at a time: rows x items
            covered = functools.reduce(np.logical_or, (incidence[level] for level in rows.T))
            return np.cumsum(np.where(covered, terms, 0.0), axis=1)[:, -1]

        return covered_values
    masks, value = f._compiled(type_names)
    cells = [masks[t] for t in type_names] + [0]  # the padding -1 reads the last, mask 0
    return lambda rows: np.array([float(value(_union(cells[g] for g in row)))
                                  for row in rows.tolist()])


def _path_mc(
    tree: DecisionTree,
    f: ValuationFunction,
    universe: Universe,
    dist: TypeDistribution,
    trials: int,
    seed: int,
    workers: int,
    resample: bool,
) -> EvalReport:
    """Walk virtual draws (stream 0) and value the revealed types.

    The revealed types are the virtual ones, or with ``resample`` fresh draws from
    stream 1 at the same counter. A stream draws the block of uniforms that the test
    oracle ``tests/oracles.py:sample_type_codes`` converts whole: the same codes.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    RandomStream(seed)  # refuses a bad seed before the tree is compiled
    coded = _CodedTree(prep := _Prepared(tree, universe, dist))
    value_of = _row_values(f, prep.names)

    def fill_block(b: int, values: np.ndarray) -> None:
        start = b * MC_BLOCK
        stop = min(trials, start + MC_BLOCK)
        shape = (stop - start, len(universe.elements))
        virtual = RandomStream(seed, 0, b).generator().random(shape)
        true = RandomStream(seed, 1, b).generator().random(shape) if resample else virtual
        values[start:stop] = value_of(coded.walk(virtual, true))

    values = _mc_collect(trials, workers, fill_block)
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return EvalReport(value=float(values.mean()), mode="monte_carlo", trials=trials,
                      seed=seed, stderr=stderr)


def adap_mc(
    tree: DecisionTree,
    f: ValuationFunction,
    universe: Universe,
    dist: TypeDistribution,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> EvalReport:
    """Unbiased Monte Carlo estimate of the adaptive value."""
    return _path_mc(tree, f, universe, dist, trials, seed, workers, resample=False)


def alg_mc(
    tree: DecisionTree,
    f: ValuationFunction,
    universe: Universe,
    dist: TypeDistribution,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> EvalReport:
    """Unbiased Monte Carlo estimate of the random-walk non-adaptive value."""
    return _path_mc(tree, f, universe, dist, trials, seed, workers, resample=True)


def best_nonadaptive_exact(
    universe: Universe,
    dist: TypeDistribution,
    f: ValuationFunction,
    constraint: ConstraintOracle,
    max_len: int,
) -> tuple[tuple[str, ...], Scalar]:
    """Exhaustive best fixed probing set under the constraint.

    Value depends only on the probed set and feasibility on the constraint
    state, so the search visits each distinct (set, state) pair once. It
    keeps the first sequence of each set and charges the set's fresh draws
    to one work meter; each set is valued after the search, once, a rational
    weighted coverage by ``_coverage_product``, which charges as it goes.
    Returns the lexicographically smallest maximizing sequence.
    """
    meter = _WorkMeter(_NO_MC_ADVICE)
    prep = _Prepared(None, universe, dist)
    hits = _coverage_hits(prep, f)
    bit = {e: 1 << i for i, e in enumerate(sorted(universe.elements))}
    firsts: dict[int, tuple[str, ...]] = {}  # set as a bitmask over ``bit`` -> first sequence
    for expanded, seq in enumerate(_feasible_sequences(constraint, list(bit), max_len), 1):
        if expanded > SEQUENCE_CAP:
            raise ExactCapExceeded(
                f"more than {SEQUENCE_CAP} distinct (set, constraint state) pairs; "
                "use an instance-specific closed form"
            )
        if (mask := sum(bit[e] for e in seq)) not in firsts:
            if hits is None:  # draws follow the universe order, whatever the probing order
                meter.spend_draws([e for e in universe.elements if bit[e] & mask], prep.rows)
            firsts[mask] = seq
    sets = ((tuple(e for e in universe.elements if bit[e] & mask), 1) for mask in firsts)
    values = map(_scalar, _draw_sums(sets, prep.form(f), prep.rows)) if hits is None else (
        _coverage_product(order, f, hits, prep.rows, meter) for order, _ in sets)
    # the first best set, or none when no set gains
    return max(itertools.chain([((), 0)], zip(firsts.values(), values)), key=lambda sv: sv[1])


def submodular_gap_report(
    tree: DecisionTree,
    f: ValuationFunction,
    universe: Universe,
    dist: TypeDistribution,
) -> dict:
    """Check the submodular half-gap inequality alg >= adap/2 on one tree."""
    prep = _Prepared(tree, universe, dist)
    adap, alg = _adap(prep, f), _alg(prep, f)
    return {
        "adap": adap,
        "alg": alg,
        "bound": "alg >= adap/2",
        "ok": alg >= adap / 2 - GAP_REPORT_TOL,
    }


def kextendible_chain_report(
    tree: DecisionTree,
    family: IndependenceOracle,
    k: int,
    universe: Universe,
    dist: TypeDistribution,
    *,
    valuation: ValuationFunction,
) -> dict:
    """Check adap <= k*greedy and greedy <= 2*alg, adap and alg taken on ``valuation``."""
    prep = _Prepared(tree, universe, dist)
    adap, greedy, alg = _adap(prep, valuation), _greedy(prep, family)[0], _alg(prep, valuation)
    return {
        "adap": adap,
        "greedy": greedy,
        "alg": alg,
        "bound": "adap <= k*greedy and greedy <= 2*alg",
        "ok_k": adap <= k * greedy + GAP_REPORT_TOL,
        "ok_2": greedy <= 2 * alg + GAP_REPORT_TOL,
        "ok": adap <= k * greedy + GAP_REPORT_TOL and greedy <= 2 * alg + GAP_REPORT_TOL,
    }
