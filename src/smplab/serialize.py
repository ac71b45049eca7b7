"""Instance and report file formats.

Instances are schema-versioned JSON documents with sections for the
universe, distribution, valuation, constraint, and optional tree. Numbers
travel as strings ("0.3", "5", "1/2") so rational inputs survive exactly
and exact-mode evaluation stays bit-exact after a round trip.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .core import Scalar, TypeDistribution, Universe, ValidationError, check_finite
from .families import (
    ExplicitFamily,
    IndependenceOracle,
    IntersectionFamily,
    MatchingFamily,
    PartitionMatroid,
    PathChainFamily,
)
from .instances import InstanceBundle
from .strategy import (
    BudgetConstraint,
    CardinalityConstraint,
    ConstraintOracle,
    DagPathConstraint,
    DecisionTree,
    TableConstraint,
    TreeFanConstraint,
    leaf,
    probe,
    validate_tree,
)
from .valuation import (
    CoverageValuation,
    ExplicitValuation,
    PartitionWeightedValuation,
    ValuationFunction,
    WeightedRankValuation,
)

INSTANCE_SCHEMA = "smplab-instance/1"
REPORT_SCHEMA = "smplab-report/1"

_TREE_NODE_CAP = 200_000


class ParseError(ValueError):
    """A document failed to parse: bad JSON, schema, or unknown kind."""


def scalar_to_str(x: Scalar) -> str:
    if isinstance(x, Fraction):
        return str(x)  # "p/q", or just "p" for integral fractions
    return repr(x)


def str_to_scalar(s: str) -> Scalar:
    s = s.strip()
    try:
        if "/" in s:
            return Fraction(s)
        if any(c in s for c in ".eE") or s in ("inf", "-inf", "nan"):
            return float(s)
        return int(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar {s!r}") from exc


def _pairs(mapping: Mapping[Any, Scalar]) -> list[list]:
    return [[key, scalar_to_str(val)] for key, val in mapping.items()]


def _integer(value: Any, field: str) -> int:
    """A JSON integer field; bools, floats and strings are rejected."""
    if type(value) is not int:
        raise ParseError(f"{field} must be a JSON integer, not {value!r}")
    return value


def _unpairs(pairs) -> dict:
    try:
        return {key: str_to_scalar(val) for key, val in pairs}
    except (TypeError, ValueError) as exc:
        raise ParseError("expected a list of [label, scalar] pairs") from exc


# --- families ---------------------------------------------------------------


def family_to_dict(family: IndependenceOracle) -> dict:
    if isinstance(family, PartitionMatroid):
        return {
            "kind": "partition_matroid",
            "part_of": dict(family.part_of),
            "capacity": [[p, c] for p, c in family.capacity.items()],
        }
    if isinstance(family, MatchingFamily):
        return {"kind": "matching", "edges": {t: list(uv) for t, uv in family.edges.items()}}
    if isinstance(family, IntersectionFamily):
        return {"kind": "intersection", "members": [family_to_dict(m) for m in family.members]}
    if isinstance(family, PathChainFamily):
        return {
            "kind": "path_chain",
            "edges": {t: list(uv) for t, uv in family.edges.items()},
            "root": family.root,
        }
    if isinstance(family, ExplicitFamily):
        return {
            "kind": "explicit",
            "ground": sorted(family.ground),
            "sets": sorted(sorted(s) for s in family.sets),
        }
    raise ValidationError(f"cannot serialize family kind {family.kind!r}")


def family_from_dict(doc: dict) -> IndependenceOracle:
    kind = doc.get("kind")
    if kind == "partition_matroid":
        return PartitionMatroid(
            dict(doc["part_of"]),
            {p: _integer(c, f"capacity of part {p!r}") for p, c in doc["capacity"]},
        )
    if kind == "matching":
        return MatchingFamily({t: (u, v) for t, (u, v) in doc["edges"].items()})
    if kind == "intersection":
        return IntersectionFamily(tuple(family_from_dict(m) for m in doc["members"]))
    if kind == "path_chain":
        return PathChainFamily(
            {t: (u, v) for t, (u, v) in doc["edges"].items()}, doc["root"]
        )
    if kind == "explicit":
        return ExplicitFamily(
            frozenset(doc["ground"]), frozenset(frozenset(s) for s in doc["sets"])
        )
    raise ParseError(f"unknown family kind {kind!r}")


# --- valuations -------------------------------------------------------------


def valuation_to_dict(valuation: ValuationFunction) -> dict:
    if isinstance(valuation, CoverageValuation):
        return {
            "kind": "coverage",
            "cover_sets": {t: sorted(s) for t, s in valuation.cover_sets.items()},
        }
    if isinstance(valuation, PartitionWeightedValuation):
        return {
            "kind": "partition_weighted",
            "part_of": dict(valuation.part_of),
            "part_weight": _pairs(valuation.part_weight),
        }
    if isinstance(valuation, WeightedRankValuation):
        return {
            "kind": "weighted_rank",
            "family": family_to_dict(valuation.family),
            "weights": {t: scalar_to_str(w) for t, w in valuation.weights.items()},
            "rank_cap": valuation.rank_cap,
        }
    if isinstance(valuation, ExplicitValuation):
        return {
            "kind": "explicit",
            "ground": sorted(valuation.ground),
            "table": [[sorted(k), scalar_to_str(v)] for k, v in
                      sorted(valuation.table.items(), key=lambda kv: sorted(kv[0]))],
        }
    raise ValidationError(f"cannot serialize valuation kind {valuation.kind!r}")


def valuation_from_dict(doc: dict) -> ValuationFunction:
    kind = doc.get("kind")
    if kind == "coverage":
        return CoverageValuation(
            {t: frozenset(s) for t, s in doc["cover_sets"].items()}
        )
    if kind == "partition_weighted":
        return PartitionWeightedValuation(dict(doc["part_of"]), _unpairs(doc["part_weight"]))
    if kind == "weighted_rank":
        return WeightedRankValuation(
            family_from_dict(doc["family"]),
            {t: str_to_scalar(w) for t, w in doc["weights"].items()},
            _integer(doc.get("rank_cap", 20), "rank_cap"),
        )
    if kind == "explicit":
        return ExplicitValuation(
            frozenset(doc["ground"]),
            {frozenset(k): str_to_scalar(v) for k, v in doc["table"]},
        )
    raise ParseError(f"unknown valuation kind {kind!r}")


# --- constraints ------------------------------------------------------------


def constraint_to_dict(constraint: ConstraintOracle) -> dict:
    if isinstance(constraint, BudgetConstraint):
        return {
            "kind": "budget",
            "cost": {e: scalar_to_str(c) for e, c in constraint.cost.items()},
            "budget": scalar_to_str(constraint.budget),
        }
    if isinstance(constraint, CardinalityConstraint):
        return {"kind": "cardinality", "limit": constraint.limit}
    if isinstance(constraint, DagPathConstraint):
        return {
            "kind": "dag_path",
            "arcs": {e: sorted(out) for e, out in constraint.arcs.items()},
            "start": constraint.start,
        }
    if isinstance(constraint, TreeFanConstraint):
        return {
            "kind": "tree_fan",
            "edges": {e: list(uv) for e, uv in constraint.edges.items()},
            "root": constraint.root,
        }
    if isinstance(constraint, TableConstraint):
        return {"kind": "table", "sequences": sorted(list(s) for s in constraint.sequences)}
    raise ValidationError(f"cannot serialize constraint kind {constraint.kind!r}")


def constraint_from_dict(doc: dict) -> ConstraintOracle:
    kind = doc.get("kind")
    if kind == "budget":
        return BudgetConstraint(
            {e: str_to_scalar(c) for e, c in doc["cost"].items()},
            str_to_scalar(doc["budget"]),
        )
    if kind == "cardinality":
        return CardinalityConstraint(_integer(doc["limit"], "limit"))
    if kind == "dag_path":
        return DagPathConstraint(
            {e: frozenset(out) for e, out in doc["arcs"].items()}, doc["start"]
        )
    if kind == "tree_fan":
        return TreeFanConstraint(
            {e: (u, v) for e, (u, v) in doc["edges"].items()}, doc["root"]
        )
    if kind == "table":
        return TableConstraint(frozenset(tuple(s) for s in doc["sequences"]))
    raise ParseError(f"unknown constraint kind {kind!r}")


# --- trees ------------------------------------------------------------------


def tree_to_dict(tree: DecisionTree) -> dict | None:
    count = 0

    def enc(node: DecisionTree):
        nonlocal count
        count += 1
        if count > _TREE_NODE_CAP:
            raise ValidationError(
                f"tree too large to serialize: expands past {_TREE_NODE_CAP} nodes"
            )
        if node.is_leaf:
            return None
        return {
            "element": node.element,
            "children": {t: enc(child) for t, child in node.children.items()},
        }

    return enc(tree)


def tree_from_dict(doc) -> DecisionTree:
    if doc is None:
        return leaf()
    try:
        element = doc["element"]
        children = doc["children"]
    except (TypeError, KeyError) as exc:
        raise ParseError("tree nodes need 'element' and 'children'") from exc
    return probe(element, {t: tree_from_dict(child) for t, child in children.items()})


# --- metadata and whole bundles ---------------------------------------------


def _meta_to_json(meta: Mapping) -> dict:
    out = {}
    for key, val in meta.items():
        if isinstance(val, bool) or val is None or isinstance(val, str):
            out[key] = val
        elif isinstance(val, (int, float, Fraction)):
            out[key] = {"scalar": scalar_to_str(val)}
        else:
            raise ValidationError(f"metadata value for {key!r} is not serializable")
    return out


def _meta_from_json(doc: Mapping) -> dict:
    out = {}
    for key, val in doc.items():
        if isinstance(val, dict) and set(val) == {"scalar"}:
            out[key] = str_to_scalar(val["scalar"])
            check_finite(out[key], f"metadata value for {key!r}")
        else:
            out[key] = val
    return out


def instance_to_dict(bundle: InstanceBundle) -> dict:
    return {
        "schema": INSTANCE_SCHEMA,
        "universe": {
            "elements": list(bundle.universe.elements),
            "types": {e: list(ts) for e, ts in bundle.universe.type_space.items()},
        },
        "distribution": {
            e: {t: scalar_to_str(p) for t, p in row.items()}
            for e, row in bundle.dist.probs.items()
        },
        "valuation": valuation_to_dict(bundle.valuation),
        "constraint": constraint_to_dict(bundle.constraint),
        "tree": tree_to_dict(bundle.tree) if bundle.tree is not None else None,
        "metadata": _meta_to_json(bundle.metadata),
    }


def serialize_instance(bundle: InstanceBundle) -> str:
    return json.dumps(instance_to_dict(bundle), indent=2, sort_keys=True) + "\n"


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{field} must be a JSON object, not {type(value).__name__}")
    return value


def instance_from_dict(doc: dict) -> InstanceBundle:
    if not isinstance(doc, dict) or doc.get("schema") != INSTANCE_SCHEMA:
        raise ParseError(f"expected schema {INSTANCE_SCHEMA!r}")
    try:
        uni = doc["universe"]
        universe = Universe(
            tuple(uni["elements"]), {e: tuple(ts) for e, ts in uni["types"].items()}
        )
        rows = _object(doc["distribution"], "distribution")
        dist = TypeDistribution(
            {
                e: {
                    t: str_to_scalar(p)
                    for t, p in _object(row, f"distribution[{e!r}]").items()
                }
                for e, row in rows.items()
            }
        )
        valuation = valuation_from_dict(doc["valuation"])
        constraint = constraint_from_dict(doc["constraint"])
        tree = tree_from_dict(doc["tree"]) if doc.get("tree") is not None else None
        if tree is not None:
            validate_tree(tree, universe)
        metadata = _meta_from_json(doc.get("metadata", {}))
        dist.validate_against(universe)
    except ParseError:
        raise
    # ValueError covers ValidationError; int() raises ValueError or OverflowError
    except (
        AttributeError, KeyError, TypeError, ValueError, OverflowError, RecursionError
    ) as exc:
        raise ParseError(f"malformed instance document: {exc}") from exc
    return InstanceBundle(universe, dist, valuation, constraint, tree, metadata)


def parse_instance(text: str) -> InstanceBundle:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"invalid JSON: {exc}") from exc
    return instance_from_dict(doc)


# --- reports ----------------------------------------------------------------


@dataclass(frozen=True)
class ReportRecord:
    """One metric: value plus provenance and the verbatim bound it checks."""

    name: str
    value: float | None
    mode: str | None = None
    seed: int | None = None
    trials: int | None = None
    stderr: float | None = None
    bound: str | None = None
    passed: bool | None = None


#: Report columns in ``ReportRecord`` field order; "pass" is ``passed``.
_REPORT_COLUMNS = ("name", "value", "mode", "seed", "trials", "stderr", "bound", "pass")


def _report_row(r: ReportRecord) -> list:
    return [r.name, r.value, r.mode, r.seed, r.trials, r.stderr, r.bound, r.passed]


def serialize_report(records: Sequence[ReportRecord], timings: Mapping | None = None) -> str:
    rows = [dict(zip(_REPORT_COLUMNS, _report_row(r))) for r in records]
    doc = {"schema": REPORT_SCHEMA, "records": rows}
    if timings is not None:
        doc["timings"] = dict(timings)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_report(text: str) -> tuple[list[ReportRecord], dict]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if doc.get("schema") != REPORT_SCHEMA:
        raise ParseError(f"expected schema {REPORT_SCHEMA!r}")
    records = [
        ReportRecord(r["name"], *(r.get(c) for c in _REPORT_COLUMNS[1:]))
        for r in doc.get("records", [])
    ]
    return records, doc.get("timings", {})


def report_to_csv(records: Sequence[ReportRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_REPORT_COLUMNS)
    writer.writerows(_report_row(r) for r in records)
    return buf.getvalue()
