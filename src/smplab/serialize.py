"""Instance and report file formats.

Instances are schema-versioned JSON documents with sections for the
universe, distribution, valuation, constraint, and optional tree. Numbers
travel as strings ("0.3", "5", "1/2") so rational inputs survive exactly
and exact-mode evaluation stays bit-exact after a round trip.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

from .core import Scalar, TypeDistribution, Universe, ValidationError, check_finite
from .families import (
    ExplicitFamily,
    IntersectionFamily,
    MatchingFamily,
    PartitionMatroid,
    PathChainFamily,
)
from .instances import InstanceBundle
from .strategy import (
    BudgetConstraint,
    CardinalityConstraint,
    DagPathConstraint,
    TableConstraint,
    TreeFanConstraint,
    _tree_nodes,
    check_tree_feasible,
    leaf,
    probe,
    validate_tree,
)
from .valuation import (
    ExplicitValuation,
    WeightedRankValuation,
    coverage_valuation,
    partition_weighted_valuation,
)

INSTANCE_SCHEMA = "smplab-instance/1"
REPORT_SCHEMA = "smplab-report/1"

_TREE_NODE_CAP = 200_000

#: Deepest tree written: one that reads back under the default recursion limit.
_TREE_DEPTH_CAP = 400


class ParseError(ValueError):
    """A document failed to parse; a bad field is named by its JSON path."""


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


# --- field shapes -----------------------------------------------------------
#
# A shape writes one kind of model value as JSON and reads it back. ``read``
# names a bad value by its JSON path: record fields join with ".", object
# keys and array indices with "[...]", as in
# ``valuation.family.members[0].capacity['q0']``.


def _object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{path} must be a JSON object, not {reprlib.repr(value)}")
    return value


def _construct(build: Callable, path: str, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ValidationError prefixed by ``path``."""
    try:
        return build(*args, **kwargs)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}" if path else str(exc)) from exc


class _Leaf:
    """A JSON value of one of ``types``, passed through ``load`` and ``dump``
    when given."""

    def __init__(self, what: str, types: tuple, load=None, dump=None):
        self.what, self.types, self.load, self.dump = what, types, load, dump

    def write(self, value):
        return self.dump(value) if self.dump else value

    def read(self, value, path):
        if type(value) not in self.types:  # bools and floats are no JSON integers here
            raise ParseError(f"{path} must be {self.what}, not {reprlib.repr(value)}")
        try:
            return self.load(value) if self.load else value
        except ParseError as exc:  # a scalar string that is no number
            raise ParseError(f"{path}: {exc}") from exc


class _Array:
    """A JSON array of ``item``, read as a tuple: of ``size`` entries when
    given, and written sorted when ``sort`` is set."""

    def __init__(self, item, size: int | None = None, sort: bool = False):
        self.item, self.size, self.sort = item, size, sort

    def write(self, values):
        out = [self.item.write(x) for x in values]
        return sorted(out) if self.sort else out

    def read(self, value, path):
        if not isinstance(value, list) or self.size not in (None, len(value)):
            length = "" if self.size is None else f" of length {self.size}"
            raise ParseError(f"{path} must be a JSON array{length}, not {reprlib.repr(value)}")
        return tuple(self.item.read(x, f"{path}[{i}]") for i, x in enumerate(value))


class _Mapping:
    """A JSON object whose values are ``item``."""

    def __init__(self, item):
        self.item = item

    def write(self, mapping):
        return {key: self.item.write(val) for key, val in mapping.items()}

    def read(self, value, path):
        return {key: self.item.read(val, f"{path}[{key!r}]")
                for key, val in _object(value, path).items()}


class _Pairs:
    """A mapping written as a JSON array of [key, value] pairs, for keys that
    JSON objects cannot hold; written sorted when ``sort`` is set."""

    def __init__(self, key, value, sort: bool = False):
        self.key, self.value, self.sort = key, value, sort

    def write(self, mapping):
        out = [[self.key.write(k), self.value.write(v)] for k, v in mapping.items()]
        return sorted(out) if self.sort else out

    def read(self, value, path):
        if not (isinstance(value, list)
                and all(isinstance(kv, list) and len(kv) == 2 for kv in value)):
            raise ParseError(
                f"{path} must be a JSON array of [key, value] pairs, not {reprlib.repr(value)}"
            )
        return {self.key.read(k, f"{path}[{i}][0]"): self.value.read(v, f"{path}[{k!r}]")
                for i, (k, v) in enumerate(value)}


class _Record:
    """A JSON object with one field per parameter of ``build``, which makes
    the model object; a field whose parameter has a default may be left out.
    ``dump`` gives an object's field values (default: its attributes)."""

    def __init__(self, build: Callable, fields: dict, dump: Callable = vars):
        self.build, self.fields, self.dump = build, fields, dump
        params = inspect.signature(build).parameters.values()
        self.optional = {p.name for p in params if p.default is not p.empty}

    def write(self, obj):
        values = self.dump(obj)
        return {key: shape.write(values[key]) for key, shape in self.fields.items()}

    def read(self, value, path):
        _object(value, path)
        args = {}
        for key, shape in self.fields.items():
            field = f"{path}.{key}" if path else key
            if key in value:
                args[key] = shape.read(value[key], field)
            elif key not in self.optional:
                raise ParseError(f"{field} is missing")
        return _construct(self.build, path, **args)


class _Kinds:
    """A JSON object whose "kind" picks the record that holds the rest."""

    def __init__(self, what: str, **kinds: _Record):
        self.what, self.kinds = what, kinds

    def write(self, obj):
        record = self.kinds.get(obj.kind)
        if record is None:
            raise ValidationError(f"cannot serialize {self.what} kind {obj.kind!r}")
        doc = {"kind": obj.kind, **record.write(obj)}
        if record.read(doc, self.what) != obj:  # e.g. coverage weights other than 1
            raise ValidationError(f"a {obj.kind} document cannot hold this {self.what}")
        return doc

    def read(self, value, path):
        kind = _object(value, path).get("kind")
        if not isinstance(kind, str) or kind not in self.kinds:
            kinds = ", ".join(self.kinds)
            raise ParseError(f"{path}.kind must be one of {kinds}, not {reprlib.repr(kind)}")
        return self.kinds[kind].read(value, path)


class _Tree:
    """A decision tree node: JSON null for a leaf, else the probed element
    and one child per type; a shared subtree is written once per path. Both
    ways take two frames a level, as ``json`` does, to nest as deep as it."""

    def write(self, tree):
        if tree.is_leaf:
            return None
        return {"element": tree.element,
                "children": {t: self.write(child) for t, child in tree.children.items()}}

    def read(self, value, path):
        if value is None:
            return leaf()
        element = _STRING.read(_object(value, path).get("element"), f"{path}.element")
        children = _object(value.get("children"), f"{path}.children")
        return _construct(probe, path, element, {
            t: self.read(child, f"{path}.children[{t!r}]") for t, child in children.items()
        })


class _MetaValue:
    """A metadata value: strings, booleans and nulls as they are, numbers as
    {"scalar": ...} objects; other JSON values are read back as they are."""

    def write(self, value):
        if value is None or isinstance(value, (bool, str)):
            return value
        if isinstance(value, (int, float, Fraction)):
            return {"scalar": scalar_to_str(value)}
        raise ValidationError(f"metadata value {value!r} is not serializable")

    def read(self, value, path):
        if isinstance(value, dict) and set(value) == {"scalar"}:
            value = _SCALAR.read(value["scalar"], f"{path}.scalar")
            check_finite(value, f"{path}.scalar")
        return value


# --- the instance format ----------------------------------------------------

_LABEL = _Leaf("a JSON string or integer", (str, int))
_STRING = _Leaf("a JSON string", (str,))
_INTEGER = _Leaf("a JSON integer", (int,))
_SCALAR = _Leaf("a JSON string", (str,), str_to_scalar, scalar_to_str)
_STRINGS = _Array(_STRING)
_SORTED_STRINGS = _Array(_STRING, sort=True)
_EDGE = _Array(_STRING, size=2)
_TREE = _Tree()

_FAMILY = _Kinds("family")
_FAMILY.kinds.update(
    partition_matroid=_Record(
        PartitionMatroid, {"part_of": _Mapping(_LABEL), "capacity": _Pairs(_LABEL, _INTEGER)}
    ),
    matching=_Record(MatchingFamily, {"edges": _Mapping(_EDGE)}),
    intersection=_Record(IntersectionFamily, {"members": _Array(_FAMILY)}),
    path_chain=_Record(PathChainFamily, {"edges": _Mapping(_EDGE), "root": _STRING}),
    explicit=_Record(
        ExplicitFamily, {"ground": _SORTED_STRINGS, "sets": _Array(_SORTED_STRINGS, sort=True)}
    ),
)

_VALUATION = _Kinds(
    "valuation",
    coverage=_Record(
        coverage_valuation,
        {"cover_sets": _Mapping(_SORTED_STRINGS)},
        lambda v: {"cover_sets": v.reach_of},
    ),
    partition_weighted=_Record(
        partition_weighted_valuation,
        {"part_of": _Mapping(_LABEL), "part_weight": _Pairs(_LABEL, _SCALAR)},
        lambda v: {"part_of": {t: p for t, s in v.reach_of.items() for p in s},
                   "part_weight": v.weight},
    ),
    weighted_rank=_Record(
        WeightedRankValuation,
        {"family": _FAMILY, "weights": _Mapping(_SCALAR)},
    ),
    explicit=_Record(
        ExplicitValuation,
        {"ground": _SORTED_STRINGS, "table": _Pairs(_SORTED_STRINGS, _SCALAR, sort=True)},
    ),
)

_CONSTRAINT = _Kinds(
    "constraint",
    budget=_Record(BudgetConstraint, {"cost": _Mapping(_SCALAR), "budget": _SCALAR}),
    cardinality=_Record(CardinalityConstraint, {"limit": _INTEGER}),
    dag_path=_Record(DagPathConstraint, {"arcs": _Mapping(_SORTED_STRINGS), "start": _STRING}),
    tree_fan=_Record(TreeFanConstraint, {"edges": _Mapping(_EDGE), "root": _STRING}),
    table=_Record(TableConstraint, {"sequences": _Array(_STRINGS, sort=True)}),
)


def _bundle(universe, distribution, valuation, constraint, tree=None, metadata=None):
    """An instance from its sections, checked against its universe."""
    dist = _construct(TypeDistribution, "distribution", distribution)
    dist.validate_against(universe)
    tree = None if tree is None or tree.is_leaf else tree  # JSON null: no tree
    if tree is not None:
        _construct(validate_tree, "tree", tree, universe)
    if isinstance(constraint, DagPathConstraint) and constraint.start not in universe.type_space:
        start = constraint.start
        raise ParseError(f"constraint.start must be in universe.elements, not {start!r}")
    for e in universe.elements:  # a missing budget cost or tree-fan edge raises here
        _construct(constraint.step, "constraint", constraint.initial, e)
    if tree is not None and (broken := check_tree_feasible(tree, constraint)[1]):
        raise ParseError(f"tree: probing path {list(broken)} breaks the constraint")
    return InstanceBundle(universe, dist, valuation, constraint, tree, metadata or {})


_INSTANCE = _Record(
    _bundle,
    {
        "universe": _Record(
            lambda elements, types: Universe(elements, types),
            {"elements": _STRINGS, "types": _Mapping(_STRINGS)},
            lambda u: {"elements": u.elements, "types": u.type_space},
        ),
        "distribution": _Mapping(_Mapping(_SCALAR)),
        "valuation": _VALUATION,
        "constraint": _CONSTRAINT,
        "tree": _TREE,
        "metadata": _Mapping(_MetaValue()),
    },
    lambda b: {**vars(b), "distribution": b.dist.probs, "tree": b.tree or leaf()},
)


def instance_to_dict(bundle: InstanceBundle) -> dict:
    size: dict[int, int] = {}  # nodes, leaves included, that writing a subtree takes
    height: dict[int, int] = {}  # internal levels, each a few frames to write and to read
    for node in _tree_nodes(bundle.tree, bundle.universe)[0] if bundle.tree else ():
        kids = node.children.values()
        size[id(node)] = 1 + sum(size.get(id(c), 1) for c in kids)
        height[id(node)] = 1 + max((height.get(id(c), 0) for c in kids), default=0)
    if size.get(id(bundle.tree), 1) > _TREE_NODE_CAP:
        raise ValidationError(f"tree too large to serialize: expands past {_TREE_NODE_CAP} nodes")
    if (depth := height.get(id(bundle.tree), 0)) > _TREE_DEPTH_CAP:
        raise ValidationError(f"tree nested too deeply to serialize: {depth} levels "
                              f"exceed the cap of {_TREE_DEPTH_CAP}")
    return {"schema": INSTANCE_SCHEMA, **_shallow(_INSTANCE.write, bundle)}


def serialize_instance(bundle: InstanceBundle) -> str:
    return _shallow(json.dumps, instance_to_dict(bundle), indent=2, sort_keys=True) + "\n"


def _shallow(write: Callable, *args, **kwargs):
    """``write(*args, **kwargs)``, refusing a tree nested past Python's recursion limit."""
    try:
        return write(*args, **kwargs)
    except RecursionError as exc:
        raise ValidationError(f"tree nested too deeply to serialize: {exc}") from exc


def instance_from_dict(doc: Any) -> InstanceBundle:
    if not isinstance(doc, dict) or doc.get("schema") != INSTANCE_SCHEMA:
        raise ParseError(f"expected schema {INSTANCE_SCHEMA!r}")
    try:
        return _INSTANCE.read(doc, "")
    except RecursionError as exc:
        raise ParseError(f"instance nested too deeply: {exc}") from exc


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
