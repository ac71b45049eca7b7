"""Per-layer metrics of the traced run, derived from the recorder's spans.

Each layer is named after its ``smplab`` module. ``TARGETS`` records, for
each group of layer metrics, the end-to-end metric and workload it should
move and the workloads where it should not move.
"""

from __future__ import annotations

VALUATION_KINDS = ("coverage", "partition_weighted", "weighted_rank")
ORACLE_KINDS = ("partition_matroid", "intersection", "matching", "path_chain")
EVALUATORS = (
    "adap_exact", "adap_by_path_enumeration", "alg_exact", "greedy_interleaved_exact",
    "adap_mc", "alg_mc", "submodular_gap_report", "kextendible_chain_report",
)
GENERATORS = ("gen_random_instance", "gen_submodular_lb", "gen_tree_lb",
              "gen_prime_matroid_encoding")
CHECKS = ("check_monotone", "check_submodular", "check_downward_closed",
          "check_prefix_closed", "check_encoding")
ARITHMETIC = ("fraction", "float")
REPORT_FUNCTIONS = ("serialize.serialize_report", "serialize.report_to_csv")


def _names() -> dict[str, str]:
    names = {
        "core.sample.rows": "count", "core.sample.self_s": "s",
        "core.sample.rows_per_s": "1/s",
    }
    for a in ARITHMETIC:
        names[f"core.enum.assignments.{a}"] = "count"
        names[f"core.enum.self_s.{a}"] = "s"
        names[f"core.enum.assignments_per_s.{a}"] = "1/s"
    for kind in VALUATION_KINDS:
        names[f"valuation.calls.{kind}"] = "count"
        names[f"valuation.hit_ratio.{kind}"] = "ratio"
        names[f"valuation.self_s.{kind}"] = "s"
    names["valuation.memo_entries_peak"] = "count"
    for kind in ORACLE_KINDS:
        names[f"families.oracle.calls.{kind}"] = "count"
        names[f"families.oracle.hit_ratio.{kind}"] = "ratio"
        names[f"families.oracle.self_s.{kind}"] = "s"
    names["families.max_rank.self_s"] = "s"
    names["families.memo_entries_peak"] = "count"
    for fn in EVALUATORS:
        names[f"evaluate.{fn}.calls"] = "count"
        names[f"evaluate.{fn}.self_s"] = "s"
    names["evaluate.tree_paths"] = "count"
    names["reduction.combined_value.self_s"] = "s"
    names["reduction.greedy_optimal_combine.self_s"] = "s"
    for fn in GENERATORS:
        names[f"instances.{fn}.s"] = "s"
    for fn in CHECKS:
        names[f"verify.{fn}.calls"] = "count"
        names[f"verify.{fn}.self_s"] = "s"
    names["strategy.validate_tree.self_s"] = "s"
    names["cli.self_s"] = "s"
    names["serialize.report_s"] = "s"
    names["trace.overhead_s"] = "s"
    return names


#: Every per-layer metric with its unit, in report order.
UNITS = _names()

_ALL = ("sweep", "constructions", "mc", "encoding")

#: Metric-name prefix -> (end-to-end metric and workload it should move,
#: workloads where it should not move).
TARGETS = {
    "core.sample.": (["mc: trials_per_s_w1, trials_per_s_w2, wall_ref"],
                     ["sweep", "constructions", "encoding"]),
    "core.enum.": (["constructions: wall_ref", "sweep: wall_ref"], ["mc", "encoding"]),
    "valuation.": (["constructions: wall_ref, peak_rss_mb", "mc: wall_ref (warm memo)",
                    "sweep: wall_ref (cold memo)"], ["encoding"]),
    "families.": (["encoding: wall_ref, pairs_per_s, peak_rss_mb",
                   "constructions: wall_ref (path-chain oracle under greedy)"], ["mc"]),
    "evaluate.": (["constructions: wall_ref (exact evaluators)",
                   "mc: trials_per_s_w1, trials_per_s_w2 (adap_mc/alg_mc self time is the "
                   "tree walk)"], ["encoding"]),
    "reduction.": (["sweep: wall_ref"], ["constructions", "mc", "encoding"]),
    "instances.": (["setup_s on every workload"], []),
    "verify.": (["encoding: wall_ref (check_encoding)", "sweep: wall_ref (verify-suite)"],
                ["constructions", "mc"]),
    "strategy.": (["sweep: wall_ref, mc: wall_ref (small share)"], ["constructions", "encoding"]),
    "cli.": (["none: expected near 0"], list(_ALL)),
    "serialize.": (["none: expected near 0"], list(_ALL)),
    "trace.": (["none: traced pass seconds minus the median untraced pass"], []),
}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(snapshot: dict, overhead_s: float) -> dict[str, float]:
    """Map a recorder snapshot of one traced pass onto ``UNITS``."""
    spans = snapshot["spans"]
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0}

    def span(name: str) -> dict:
        return spans.get(name, zero)

    m: dict[str, float] = {}
    sample = span("core.sample_type_profiles")
    m["core.sample.rows"] = sample["items"]
    m["core.sample.self_s"] = sample["self_s"]
    m["core.sample.rows_per_s"] = _rate(sample["items"], sample["self_s"])
    for a in ARITHMETIC:
        s = span(f"core.enum.{a}")
        m[f"core.enum.assignments.{a}"] = s["items"]
        m[f"core.enum.self_s.{a}"] = s["self_s"]
        m[f"core.enum.assignments_per_s.{a}"] = _rate(s["items"], s["self_s"])
    for prefix, kinds in (("valuation", VALUATION_KINDS), ("families.oracle", ORACLE_KINDS)):
        for kind in kinds:
            s = span(f"{prefix}.{kind}")
            # a miss is a call after which the object's memo grew
            m[f"{prefix}.calls.{kind}"] = s["calls"]
            m[f"{prefix}.hit_ratio.{kind}"] = 1 - _rate(s["items"], s["calls"]) if s["calls"] else 0.0
            m[f"{prefix}.self_s.{kind}"] = s["self_s"]
    m["valuation.memo_entries_peak"] = snapshot["valuation_memo_peak"]
    m["families.max_rank.self_s"] = span("families.max_rank")["self_s"]
    m["families.memo_entries_peak"] = snapshot["family_memo_peak"]
    for fn in EVALUATORS:
        m[f"evaluate.{fn}.calls"] = span(f"evaluate.{fn}")["calls"]
        m[f"evaluate.{fn}.self_s"] = span(f"evaluate.{fn}")["self_s"]
    m["evaluate.tree_paths"] = span("evaluate.iter_tree_paths")["items"]
    for fn in ("combined_value", "greedy_optimal_combine"):
        m[f"reduction.{fn}.self_s"] = span(f"reduction.{fn}")["self_s"]
    for fn in GENERATORS:
        m[f"instances.{fn}.s"] = span(f"instances.{fn}")["total_s"]
    for fn in CHECKS:
        m[f"verify.{fn}.calls"] = span(f"verify.{fn}")["calls"]
        m[f"verify.{fn}.self_s"] = span(f"verify.{fn}")["self_s"]
    m["strategy.validate_tree.self_s"] = span("strategy.validate_tree")["self_s"]
    m["cli.self_s"] = sum((s["self_s"] for k, s in spans.items() if k.startswith("cli.")), 0.0)
    m["serialize.report_s"] = sum(span(k)["total_s"] for k in REPORT_FUNCTIONS)
    m["trace.overhead_s"] = overhead_s
    return {name: m[name] for name in UNITS}
