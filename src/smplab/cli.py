"""Experiment runner: load or generate instances, run evaluators, reductions
and verifiers, and emit JSON + CSV reports.

Exit status is 0 exactly when every asserted bound holds; parse errors, cap
errors and bound violations exit nonzero with the offending item named.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from pathlib import Path

from .core import ExactCapExceeded, ValidationError
from .evaluate import (
    MC_TRIAL_CAP,
    adap_by_path_enumeration,
    adap_exact,
    adap_mc,
    alg_exact,
    alg_mc,
    best_nonadaptive_exact,
    greedy_interleaved_exact,
    kextendible_chain_report,
    submodular_gap_report,
)
from .families import _total
from .instances import (
    RandomInstanceParams,
    gen_prime_matroid_encoding,
    gen_random_instance,
    submodular_lb_adap_recurrence,
    submodular_lb_alg_opt,
    tree_lb_adaptive_value,
    tree_lb_nonadaptive_bound,
)
from .reduction import combined_value
from .serialize import ParseError, ReportRecord, parse_instance, report_to_csv, serialize_report
from .strategy import check_tree_feasible
from .valuation import WeightedCoverageValuation
from .verify import (
    check_downward_closed,
    check_encoding,
    check_monotone,
    check_prefix_closed,
    check_submodular,
)

_SUBMOD_RATIO_BOUNDS = {0.05: 1.75, 0.02: 1.88, 0.01: 1.9}


def _check(args: argparse.Namespace, **least: int) -> None:
    """Refuse a count flag below its least value, then a non-finite --tolerance."""
    for name, low in least.items():
        value = getattr(args, name, None)  # mc-estimate has no --max-len
        if value is not None and value < low:
            flag = "--" + name.replace("_", "-")
            raise ValidationError(f"{flag} must be >= {low}, got {value}")
    if args.tolerance is not None and not math.isfinite(args.tolerance):
        raise ValidationError(f"--tolerance must be finite, got {args.tolerance}")


def _record(name, value, *, bound=None, passed=None, mode=None, seed=None,
            trials=None, stderr=None) -> ReportRecord:
    try:
        value = None if value is None else float(value)
    except OverflowError:  # an exact value past a float's range
        raise ValidationError(
            f"record {name!r} is past a float's range: {int(value).bit_length()} bits"
        ) from None
    return ReportRecord(
        name=name,
        value=value,
        mode=mode,
        seed=seed,
        trials=trials,
        stderr=stderr,
        bound=bound,
        passed=passed,
    )


def _run_gap_submodular(args: argparse.Namespace) -> list[ReportRecord]:
    _check(args)
    eps = args.eps
    if not (0 < eps < 0.5):
        raise ValidationError("gap-submodular requires --eps in (0, 1/2)")
    adap0 = submodular_lb_adap_recurrence(eps)
    alg0 = submodular_lb_alg_opt(eps)
    ratio = adap0 / alg0
    threshold = args.tolerance
    if threshold is None:
        threshold = _SUBMOD_RATIO_BOUNDS.get(eps, max(1.0, 2 - 20 * eps))
    return [
        _record("adap0", adap0, mode="exact"),
        _record("alg_opt0", alg0, mode="exact",
                bound="alg_opt(0) < 1", passed=bool(alg0 < 1)),
        _record("ratio", ratio, mode="exact",
                bound=f"ratio >= {threshold}", passed=bool(ratio >= threshold)),
    ]


def _run_gap_kext(args: argparse.Namespace) -> list[ReportRecord]:
    _check(args)
    k = args.k
    if k < 1:
        raise ValidationError("gap-kext requires --k >= 1")
    default_params = args.w is None and args.p is None
    # w = k**4 leaves k = 2 (ratio 1.411) short of k - 0.5; w = 64 gives 1.600 there
    w = args.w if args.w is not None else max(k**4, 64)
    for flag, name, n in (("--k", "k", k), ("--k" if args.w is None else "--w", "w", w)):
        if n > sys.float_info.max:
            raise ValidationError(f"{flag} sets {name} past a float's range: {n.bit_length()} bits")
    p = args.p if args.p is not None else 1 / k**3
    if p == 0 and args.p is None:
        raise ValidationError(f"--k sets p = 1/k**3 below a float's range: {k.bit_length()} bits")
    adaptive = tree_lb_adaptive_value(k, w, p)
    bound = tree_lb_nonadaptive_bound(k, p)
    ratio = adaptive / bound
    threshold = args.tolerance
    if threshold is None and default_params:
        threshold = k - 0.5
    records = [
        _record("adaptive_value", adaptive, mode="exact"),
        _record("nonadaptive_bound", bound, mode="exact"),
    ]
    if threshold is None:
        records.append(_record("ratio", ratio, mode="exact"))
    else:
        records.append(
            _record("ratio", ratio, mode="exact",
                    bound=f"ratio >= {threshold}", passed=bool(ratio >= threshold))
        )
    return records


def _run_gap_matroid_encoding(args: argparse.Namespace) -> list[ReportRecord]:
    _check(args, samples=0)
    k = args.k
    matroids, label_map = gen_prime_matroid_encoding(k)
    ok, witness = check_encoding(matroids, label_map, set_samples=args.samples, seed=args.seed)
    adaptive = tree_lb_adaptive_value(k, k, 1 / k)
    floor = k * (1 - 1 / math.e)
    records = [
        _record("encoding_check", 1.0 if ok else 0.0,
                bound="intersection independent iff ancestor chain",
                passed=ok),
        _record("adaptive_value", adaptive, mode="exact",
                bound=f"value >= k*(1-1/e) = {floor:.6f}",
                passed=bool(adaptive >= floor)),
        _record("nonadaptive_bound", 2.0, mode="exact"),
        _record("ratio", adaptive / 2.0, mode="exact"),
    ]
    if not ok:
        records.append(_record("encoding_witness_size", float(len(witness or ()))))
    return records


def _require_family(bundle):
    family = bundle.family
    if family is None:
        raise ValidationError("this evaluation needs a weighted-rank valuation")
    return family


def _run_eval(args: argparse.Namespace) -> list[ReportRecord]:
    """``eval``, and ``mc-estimate``, which is ``eval --mode mc``."""
    _check(args, workers=1, max_len=1)
    what = args.what
    if args.mode == "mc":
        if args.trials is None or args.trials < 1:
            raise ValidationError("mc mode requires --trials >= 1")
        if args.trials > MC_TRIAL_CAP:
            raise ValidationError(f"--trials must be <= {MC_TRIAL_CAP}; {args.trials} trials "
                                  f"need {8 * args.trials} bytes of values")
        if args.seed is None:
            raise ValidationError("mc mode requires --seed")
        if what not in ("adap", "alg"):
            raise ValidationError(f"mc mode supports adap|alg, not {what!r}")
    bundle = parse_instance(Path(args.file).read_text())
    if what == "best-na":
        max_len = args.max_len or len(bundle.universe.elements)
        seq, value = best_nonadaptive_exact(
            bundle.universe, bundle.dist, bundle.valuation, bundle.constraint, max_len
        )
        return [
            _record("best_nonadaptive_value", value, mode="exact"),
            _record("best_nonadaptive_length", float(len(seq)), mode="exact"),
        ]
    if bundle.tree is None:
        raise ValidationError("this instance file carries no decision tree")
    if args.mode == "mc":
        fn = adap_mc if what == "adap" else alg_mc
        rep = fn(bundle.tree, bundle.valuation, bundle.universe, bundle.dist,
                 args.trials, args.seed, workers=args.workers)
        return [_record(f"{what}_mc", rep.value, mode="monte_carlo",
                        seed=rep.seed, trials=rep.trials, stderr=rep.stderr)]
    if what == "adap":
        rep = adap_exact(bundle.tree, bundle.valuation, bundle.universe, bundle.dist)
    elif what == "alg":
        rep = alg_exact(bundle.tree, bundle.valuation, bundle.universe, bundle.dist)
    else:
        rep = greedy_interleaved_exact(
            bundle.tree, _require_family(bundle), bundle.universe, bundle.dist
        )
    return [_record(f"{what}_exact", rep.value, mode="exact")]


def _run_reduce_weighted(args: argparse.Namespace) -> list[ReportRecord]:
    _check(args)
    if bool(args.file) == (args.seed is not None):
        raise ValidationError(
            "reduce-weighted needs exactly one instance source (--file or --seed)"
        )
    if args.file:
        bundle = parse_instance(Path(args.file).read_text())
    else:
        # --seed draws a 2- or 3-extendible instance; another k checks the wrong bound
        if args.k not in (None, 2, 3):
            raise ValidationError(f"--k must be 2 or 3 with --seed, got {args.k}")
        params = RandomInstanceParams(
            valuation_kinds=("matroid_intersection_rank", "matching_rank"),
            k_extendible=args.k or 2,
            weight_high=1024,
        )
        bundle = gen_random_instance(args.seed, params)
    family = _require_family(bundle)
    weights = bundle.weights
    k = args.k if args.k is not None else bundle.metadata.get("k")
    if not isinstance(k, int) or k < 2:
        raise ValidationError("reduce-weighted needs --k >= 2 (or instance metadata)")
    if bundle.tree is None:
        raise ValidationError("reduce-weighted needs an instance with a tree")
    adap = adap_exact(bundle.tree, bundle.valuation, bundle.universe, bundle.dist).value
    rep = combined_value(bundle.tree, weights, family, k, bundle.universe, bundle.dist)
    trace = rep.trace
    selected_sum = _total(trace["scaled_class_alg"][j] for _, j in trace["selected"])
    tol = args.tolerance if args.tolerance is not None else 1e-9
    overall_factor = 32 * k * math.log2(k)
    records = [
        _record("adap_exact", adap, mode="exact"),
        _record("combined_value", rep.value, mode="exact"),
        _record("selected_scaled_sum", selected_sum, mode="exact"),
        _record(
            "combine_vs_selected", rep.value, mode="exact",
            bound="combined >= selected_scaled_sum/4",
            passed=bool(rep.value >= selected_sum / 4 - tol),
        ),
        _record(
            "combine_vs_adaptive", rep.value, mode="exact",
            bound=f"combined >= adap/(32*k*log2(k)) = adap/{overall_factor:.4f}",
            passed=bool(rep.value >= adap / overall_factor - tol),
        ),
    ]
    for i, j in sorted(trace["representatives"].items()):
        records.append(_record(f"representative_bucket_{i}", float(j)))
    records.append(_record("parity_odd", 1.0 if trace["parity"] == "odd" else 0.0))
    return records


def _run_verify_suite(args: argparse.Namespace) -> list[ReportRecord]:
    _check(args, cases=1)
    seed, cases = args.seed, args.cases
    counts: dict[str, list[int]] = {}

    def tally(name: str, ok: bool) -> None:
        got = counts.setdefault(name, [0, 0])
        got[ok] += 1

    small = RandomInstanceParams(max_elements=3, max_types=2)
    for i in range(cases):
        bundle = gen_random_instance(seed * 1_000_003 + i, small)
        uni, dist = bundle.universe, bundle.dist
        ground = sorted(uni.all_types)
        tally("monotone", check_monotone(bundle.valuation, ground)[0])
        if isinstance(bundle.valuation, WeightedCoverageValuation):
            tally("submodular", check_submodular(bundle.valuation, ground)[0])
        family = bundle.family
        if family is not None and len(family.ground) <= 12:
            tally("downward_closed", check_downward_closed(family, family.ground)[0])
        tally("prefix_closed", check_prefix_closed(bundle.constraint, uni, 4)[0])
        tally("tree_feasible", check_tree_feasible(bundle.tree, bundle.constraint)[0])
        exact = adap_exact(bundle.tree, bundle.valuation, uni, dist).value
        byref = adap_by_path_enumeration(bundle.tree, bundle.valuation, uni, dist)
        tally("decomposition_identity", abs(exact - byref) <= 1e-9)

    for i in range(cases):
        bundle = gen_random_instance(seed * 7_000_003 + i)
        if isinstance(bundle.valuation, WeightedCoverageValuation):
            ok = submodular_gap_report(
                bundle.tree, bundle.valuation, bundle.universe, bundle.dist
            )["ok"]
            tally("submodular_half_gap", ok)
        else:
            ok = kextendible_chain_report(
                bundle.tree, bundle.family, bundle.metadata["k"],
                bundle.universe, bundle.dist, valuation=bundle.valuation,
            )["ok"]
            tally("kextendible_chain", ok)

    records = []
    for name in sorted(counts):
        fails, passes = counts[name][0], counts[name][1]
        records.append(
            _record(
                name, float(passes),
                bound=f"0 failures out of {passes + fails}",
                passed=fails == 0,
            )
        )
    return records


def run(argv: list[str] | None) -> tuple[list[ReportRecord], dict, int]:
    """Parse ``argv`` (None: ``sys.argv``), run its command and write the ``--out`` report.

    Returns (records, timings, exit status); bad arguments exit through argparse.
    """
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    records = args.runner(args)
    timings = {"wall_seconds": time.monotonic() - started}
    if args.out:
        _write_outputs(records, timings, args.out)
    failed = [r for r in records if r.passed is False]
    return records, timings, 1 if failed else 0


def _write_outputs(records, timings, out: str) -> None:
    path = Path(out)
    json_path = path if path.suffix == ".json" else Path(str(path) + ".json")
    csv_path = json_path.with_suffix(".csv")
    json_path.write_text(serialize_report(records, timings))
    csv_path.write_text(report_to_csv(records))


@functools.cache  # parsing leaves the parser as it was, so every call can share one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smplab",
        description="adaptive vs non-adaptive probing experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, runner, help: str):
        p = sub.add_parser(name, help=help)
        p.set_defaults(runner=runner)
        p.add_argument("--out", help="report path; writes JSON and CSV")
        p.add_argument("--tolerance", type=float, help="bound threshold override")
        return p

    p = add("gap-submodular", _run_gap_submodular, "recurrence gap for the triangular instance")
    p.add_argument("--eps", type=float, required=True)

    p = add("gap-kext", _run_gap_kext, "closed-form gap for the w-ary tree instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w", type=int)
    p.add_argument("--p", type=float)

    p = add("gap-matroid-encoding", _run_gap_matroid_encoding, "verify the k^2-matroid encoding")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)

    p = add("eval", _run_eval, "evaluate an instance file")
    p.add_argument("--file", required=True)
    p.add_argument("--what", choices=("adap", "alg", "greedy", "best-na"), default="adap")
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--max-len", type=int, dest="max_len")

    p = add("mc-estimate", _run_eval, "Monte Carlo estimate for an instance file")
    p.set_defaults(mode="mc")
    p.add_argument("--file", required=True)
    p.add_argument("--what", choices=("adap", "alg"), default="adap")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)

    p = add("reduce-weighted", _run_reduce_weighted, "weighted-to-unweighted reduction report")
    p.add_argument("--file")
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int)

    p = add("verify-suite", _run_verify_suite, "randomized verifier battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=200)

    return parser


def main(argv=None) -> int:
    try:
        records, _, status = run(argv)
    except (ParseError, ValidationError, ExactCapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in records:
        flag = "    " if r.passed is None else ("PASS" if r.passed else "FAIL")
        line = f"[{flag}] {r.name} value={r.value}"
        if r.stderr is not None:
            line += f" stderr={r.stderr:.3g}"
        if r.bound:
            line += f" bound={r.bound!r}"
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
