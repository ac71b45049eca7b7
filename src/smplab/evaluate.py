"""Exact and Monte Carlo evaluation of probing strategies.

``adap_*`` evaluators compute the expected value received by an adaptive
decision tree: the valuation of the realized types on the walked path.
``alg_*`` evaluators compute the value of the random-walk non-adaptive
strategy, which samples a virtual root-leaf path and then truly probes its
elements with fresh independent types. ``greedy_interleaved_exact`` scores
the greedy selection that scans the path in root-to-leaf order, feeding the
true draw before the virtual draw at each element.

Exact evaluators keep rational arithmetic when all inputs are rational.
Monte Carlo evaluators are deterministic given (seed, trials) and produce
bit-identical results for any worker count, because trials are partitioned
into fixed counter-addressed blocks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    DEFAULT_ASSIGNMENT_CAP,
    ExactCapExceeded,
    RandomStream,
    Scalar,
    TypeDistribution,
    Universe,
    ValidationError,
    check_assignment_count,
    iter_type_profiles,  # noqa: F401  (perfbench traces this binding)
    sample_type_codes,
)
from .families import IndependenceOracle, greedy_add
from .strategy import ConstraintOracle, DecisionTree, _feasible_sequences, validate_tree
from .valuation import ValuationFunction, unit_weights, weighted_rank

#: Hard limit on the amount of exact work (arc expansions) per evaluation.
DEFAULT_WORK_CAP = 1 << 22

#: Trials per counter-addressed Monte Carlo block.
MC_BLOCK = 1024

#: Feasible-sequence expansion limit for the exhaustive non-adaptive search.
DEFAULT_SEQUENCE_CAP = 10**6


@dataclass(frozen=True)
class EvalReport:
    """Value of a strategy evaluation plus its provenance.

    ``stderr`` is only present in Monte Carlo mode; ``trace`` optionally
    carries per-node or diagnostic values.
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


def iter_tree_paths(
    tree: DecisionTree, dist: TypeDistribution
) -> Iterator[tuple[tuple[tuple[str, str], ...], Scalar]]:
    """Yield every positive-probability root-leaf path with its probability."""

    def walk(node: DecisionTree, steps: tuple, prob: Scalar):
        if node.is_leaf:
            yield steps, prob
            return
        e = node.element
        for t, child in node.children.items():
            p = dist.prob(e, t)
            if p == 0:
                continue
            yield from walk(child, steps + ((e, t),), prob * p)

    yield from walk(tree, (), 1)


class _WorkMeter:
    __slots__ = ("used", "cap")

    def __init__(self, cap: int):
        self.used = 0
        self.cap = cap

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.cap:
            raise ExactCapExceeded(
                f"exact evaluation exceeded the work cap of {self.cap}; use MC"
            )


def _with_true(types: frozenset[str], _virtual: str | None, true: str) -> frozenset[str]:
    return types | {true}


def _fresh_draws(
    steps: tuple[tuple[str, str | None], ...],
    universe: Universe,
    dist: TypeDistribution,
    meter: _WorkMeter,
    cap: int,
    start=frozenset(),
    step: Callable = _with_true,
) -> Iterator[tuple[object, Scalar]]:
    """Every fresh true draw for a virtual path, as ``(state, probability)``.

    ``steps`` is the path's ``(element, virtual type)`` sequence. Each
    element takes a fresh independent true type; ``step(state, virtual,
    true)`` folds the elements into ``start`` in path order (by default the
    state is the set of true types). Draws come in the order of
    ``iter_type_profiles`` over the same elements with the same probability
    products, so a float sum over them adds the same terms in the same order.
    Drawn prefixes are shared and zero-probability types are skipped. Each
    expanded arc spends one unit of ``meter``.
    """
    check_assignment_count(universe, (e for e, _ in steps), cap)
    levels = [
        (virtual, [(t, p) for t in universe.type_space[e] if (p := dist.prob(e, t)) != 0])
        for e, virtual in steps
    ]
    stack: list[tuple[int, object, Scalar]] = [(0, start, 1)]
    while stack:
        i, state, q = stack.pop()
        if i == len(levels):
            yield state, q
            continue
        virtual, draws = levels[i]
        meter.spend(len(draws))
        # pushed in reverse so the first type is drawn first
        for t, p in reversed(draws):
            stack.append((i + 1, step(state, virtual, t), q * p))


def _set_values(
    f: ValuationFunction, universe: Universe, dist: TypeDistribution, meter: _WorkMeter, cap: int
) -> Callable[[frozenset[str], Sequence[str]], Scalar]:
    """``value(elements, order)``: the expectation of ``f`` over fresh true
    draws of ``elements``, once per element set. The draws follow ``order``
    restricted to ``elements``, which fixes the order of a float sum.
    """
    table: dict[frozenset[str], Scalar] = {}

    def value(elements: frozenset[str], order: Sequence[str]) -> Scalar:
        got = table.get(elements)
        if got is None:
            steps = tuple((e, None) for e in order if e in elements)
            got = 0
            for types, q in _fresh_draws(steps, universe, dist, meter, cap):
                got = got + q * f(types)
            table[elements] = got
        return got

    return value


def adap_exact(
    tree: DecisionTree,
    f: ValuationFunction,
    universe: Universe,
    dist: TypeDistribution,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
    want_trace: bool = False,
) -> EvalReport:
    """Expected adaptive value, by root decomposition.

    At each node the probe's marginal value is added to the value of the
    subtree below, evaluated with the revealed type fixed; this equals the
    direct sum over root-leaf paths. The optional trace maps the ``(element,
    type)`` prefix of every internal node that a positive-probability walk
    reaches to the value of its subtree, in preorder.
    """
    validate_tree(tree, universe)
    meter = _WorkMeter(work_cap)
    trace: dict[tuple, Scalar] | None = {} if want_trace else None

    # No memo: type ids are globally distinct and each arc is picked by its
    # element's type, so the revealed set ``fixed`` determines the walk that
    # reached a node and no (node, fixed) pair is visited twice.
    def rec(node: DecisionTree, fixed: frozenset[str], base: Scalar, prefix: tuple) -> Scalar:
        # base is f(fixed), passed down so each arc calls f once
        if node.is_leaf:
            return 0
        if trace is not None:
            trace[prefix] = None  # holds the node's preorder slot
        total: Scalar = 0
        for t, child in node.children.items():
            p = dist.prob(node.element, t)
            if p == 0:
                continue
            meter.spend()
            ext = fixed | {t}
            value = f(ext)
            below = prefix + ((node.element, t),) if trace is not None else prefix
            total = total + p * ((value - base) + rec(child, ext, value, below))
        if trace is not None:
            trace[prefix] = total
        return total

    value = rec(tree, frozenset(), f(frozenset()), ())
    return EvalReport(value=value, mode="exact", trace=trace)


def adap_by_path_enumeration(
    tree: DecisionTree,
    f: ValuationFunction,
    universe: Universe,
    dist: TypeDistribution,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
) -> Scalar:
    """Reference route for the adaptive value: sum over root-leaf paths."""
    validate_tree(tree, universe)
    meter = _WorkMeter(work_cap)
    total: Scalar = 0
    for steps, p in iter_tree_paths(tree, dist):
        meter.spend(max(1, len(steps)))
        total = total + p * f(frozenset(t for _, t in steps))
    return total


def alg_exact(
    tree: DecisionTree,
    f: ValuationFunction,
    universe: Universe,
    dist: TypeDistribution,
    *,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
    work_cap: int = DEFAULT_WORK_CAP,
) -> EvalReport:
    """Expected value of the random-walk non-adaptive strategy.

    Outer sum over virtual root-leaf paths weighted by path probability;
    inner sum over fresh independent types for the probed elements, once per
    distinct probed set. ``f`` may be any function of the set of true types.
    """
    validate_tree(tree, universe)
    value = _set_values(f, universe, dist, _WorkMeter(work_cap), assignment_cap)
    total: Scalar = 0
    for steps, p_path in iter_tree_paths(tree, dist):
        path = tuple(e for e, _ in steps)
        total = total + p_path * value(frozenset(path), path)
    return EvalReport(value=total, mode="exact")


def greedy_interleaved_exact(
    tree: DecisionTree,
    family: IndependenceOracle,
    universe: Universe,
    dist: TypeDistribution,
    *,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
    work_cap: int = DEFAULT_WORK_CAP,
    want_trace: bool = False,
) -> EvalReport:
    """Expected greedy count over the union of true and virtual path types.

    Scans the path elements in root-to-leaf order; at each element the true
    type is considered before the virtual type. Non-loops get selected and
    counted, loops are skipped; equal draws collapse to one occurrence. The
    optional trace reports the online value that only counts true-type
    selections while still selecting virtual types.
    """
    validate_tree(tree, universe)
    meter = _WorkMeter(work_cap)
    added: dict[tuple[frozenset[str], str], frozenset[str]] = {}

    def add(chosen: frozenset[str], t: str) -> frozenset[str]:
        key = (chosen, t)
        got = added.get(key)
        if got is None:
            got = added[key] = greedy_add(family, chosen, t)
        return got

    def greedy_step(state, virtual_t, true_t):
        chosen, online = state
        grown = add(chosen, true_t)
        online += len(grown) - len(chosen)
        return add(grown, virtual_t), online

    total: Scalar = 0
    online_total: Scalar = 0
    for steps, p_path in iter_tree_paths(tree, dist):
        draws = _fresh_draws(
            steps, universe, dist, meter, assignment_cap, (frozenset(), 0), greedy_step
        )
        for (chosen, online), q in draws:
            weight = p_path * q
            total = total + weight * len(chosen)
            online_total = online_total + weight * online
    trace = {"online_value": online_total} if want_trace else None
    return EvalReport(value=total, mode="exact", trace=trace)


def _mc_collect(
    trials: int,
    workers: int,
    fill_block,
) -> np.ndarray:
    values = np.empty(trials, dtype=np.float64)
    blocks = range((trials + MC_BLOCK - 1) // MC_BLOCK)
    if workers <= 1:
        for b in blocks:
            fill_block(b, values)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: fill_block(b, values), blocks))
    return values


def _finish_mc(values: np.ndarray, seed: int) -> EvalReport:
    trials = len(values)
    value = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return EvalReport(
        value=value, mode="monte_carlo", trials=trials, seed=seed, stderr=stderr
    )


class _CodedTree:
    """A decision tree compiled to integer tables for vectorized walks.

    Nodes are numbered once per distinct object, so shared subtrees stay
    shared; the root is node 0. ``column[v]`` is the universe index of node
    ``v``'s element (-1 for a leaf) and ``child[v, c]`` the node reached
    when that element takes the type at position ``c`` of its type space.
    """

    def __init__(self, tree: DecisionTree, universe: Universe):
        index = {e: j for j, e in enumerate(universe.elements)}
        spaces = [universe.type_space[e] for e in universe.elements]
        sizes = [len(ts) for ts in spaces]
        self.offset = np.cumsum([0] + sizes[:-1])
        self.type_names = [t for ts in spaces for t in ts]
        nodes = [tree]
        ids = {id(tree): 0}
        for node in nodes:  # grows while iterating: breadth-first numbering
            for child in node.children.values():
                if id(child) not in ids:
                    ids[id(child)] = len(nodes)
                    nodes.append(child)
        self.column = np.full(len(nodes), -1, dtype=np.intp)
        # every slot starts as a self-loop, so a leaf stays put on any code
        width = max(sizes, default=1)
        self.child = np.repeat(np.arange(len(nodes))[:, None], width, axis=1)
        for v, node in enumerate(nodes):
            if node.is_leaf:
                continue
            self.column[v] = index[node.element]
            for c, t in enumerate(universe.type_space[node.element]):
                self.child[v, c] = ids[id(node.children[t])]

    def walk(self, virtual: np.ndarray, true: np.ndarray) -> np.ndarray:
        """Global type ids revealed along each row's path, padded with -1.

        The path follows the ``virtual`` codes; each probe reveals the
        ``true`` code of its element. Row ``i`` of the result lists, level
        by level, the element's offset plus ``true[i, element]``.
        """
        trial = np.arange(len(virtual))
        node = np.zeros(len(virtual), dtype=np.intp)
        levels = []
        while True:
            col = self.column[node]
            live = col >= 0
            if not live.any():
                break
            # rows already at a leaf read column -1: harmless, since their
            # level is masked and their child entry is the leaf itself
            levels.append(np.where(live, self.offset[col] + true[trial, col], -1))
            node = self.child[node, virtual[trial, col]]
        if not levels:
            return np.empty((len(virtual), 0), dtype=np.intp)
        return np.stack(levels, axis=1)

    def values(self, rows: np.ndarray, f: ValuationFunction, table: dict) -> np.ndarray:
        """``float(f(types on the row))`` per row.

        ``table`` maps a path's revealed codes to its value; ``f`` is called
        only for paths it does not hold yet.
        """
        distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
        names = self.type_names
        got = np.empty(len(distinct))
        for k, row in enumerate(distinct.tolist()):
            key = tuple(g for g in row if g >= 0)
            value = table.get(key)
            if value is None:
                value = table[key] = float(f(frozenset([names[g] for g in key])))
            got[k] = value
        return got[inverse.reshape(-1)]


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

    The revealed types are the virtual ones, or with ``resample`` fresh
    draws from stream 1 at the same counter.
    """
    validate_tree(tree, universe)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    coded = _CodedTree(tree, universe)
    table: dict[tuple[int, ...], float] = {}  # shared by the call's blocks

    def fill_block(b: int, values: np.ndarray) -> None:
        start = b * MC_BLOCK
        stop = min(trials, start + MC_BLOCK)

        def draw(stream: int) -> np.ndarray:
            addr = RandomStream(seed, stream=stream, counter=b)
            return sample_type_codes(universe, dist, addr, stop - start)

        virtual = draw(0)
        true = draw(1) if resample else virtual
        values[start:stop] = coded.values(coded.walk(virtual, true), f, table)

    return _finish_mc(_mc_collect(trials, workers, fill_block), seed)


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
    *,
    sequence_cap: int = DEFAULT_SEQUENCE_CAP,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
) -> tuple[tuple[str, ...], Scalar]:
    """Exhaustive best fixed probing set under the constraint.

    Feasibility is a property of the sequence; value depends only on the
    probed set. Returns the lexicographically smallest maximizing sequence.
    """
    # the work is bounded by sequence_cap x assignment_cap
    value = _set_values(f, universe, dist, _WorkMeter(math.inf), assignment_cap)
    best_seq: tuple[str, ...] = ()
    best_val: Scalar = 0
    sequences = _feasible_sequences(constraint, sorted(universe.elements), max_len)
    for expanded, seq in enumerate(sequences, 1):
        if expanded > sequence_cap:
            raise ExactCapExceeded(
                f"more than {sequence_cap} feasible sequences; "
                "use an instance-specific closed form"
            )
        v = value(frozenset(seq), universe.elements)
        if v > best_val:
            best_val = v
            best_seq = seq
    return best_seq, best_val


def submodular_gap_report(
    tree: DecisionTree,
    f: ValuationFunction,
    universe: Universe,
    dist: TypeDistribution,
    tol: float = 1e-9,
) -> dict:
    """Check the submodular half-gap inequality alg >= adap/2 on one tree."""
    adap = adap_exact(tree, f, universe, dist).value
    alg = alg_exact(tree, f, universe, dist).value
    return {
        "adap": adap,
        "alg": alg,
        "bound": "alg >= adap/2",
        "ok": alg >= adap / 2 - tol,
    }


def kextendible_chain_report(
    tree: DecisionTree,
    family: IndependenceOracle,
    k: int,
    universe: Universe,
    dist: TypeDistribution,
    *,
    valuation: ValuationFunction | None = None,
    tol: float = 1e-9,
) -> dict:
    """Check adap <= k*greedy and greedy <= 2*alg for an unweighted rank."""
    f = valuation if valuation is not None else weighted_rank(family, unit_weights(family))
    adap = adap_exact(tree, f, universe, dist).value
    greedy = greedy_interleaved_exact(tree, family, universe, dist).value
    alg = alg_exact(tree, f, universe, dist).value
    return {
        "adap": adap,
        "greedy": greedy,
        "alg": alg,
        "bound": "adap <= k*greedy and greedy <= 2*alg",
        "ok_k": adap <= k * greedy + tol,
        "ok_2": greedy <= 2 * alg + tol,
        "ok": adap <= k * greedy + tol and greedy <= 2 * alg + tol,
    }
