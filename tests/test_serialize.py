"""File formats: scalar strings, round trips, named parse failures."""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from smplab import (
    InstanceBundle,
    RandomInstanceParams,
    TypeDistribution,
    ValidationError,
    constraint_cardinality,
    coverage_valuation,
    gen_random_instance,
    gen_submodular_lb,
    gen_tree_lb,
    universe_from_type_space,
)
from smplab.serialize import (
    ParseError,
    ReportRecord,
    instance_to_dict,
    parse_instance,
    parse_report,
    report_to_csv,
    scalar_to_str,
    serialize_instance,
    serialize_report,
    str_to_scalar,
)


class TestScalars:
    @pytest.mark.parametrize(
        "value",
        [0, 1, -3, 1024, 0.5, 0.3, 1e-9, 1e20, Fraction(1, 3), Fraction(7, 2)],
    )
    def test_round_trip(self, value):
        assert str_to_scalar(scalar_to_str(value)) == value

    def test_fraction_strings_parse(self):
        assert str_to_scalar("1/2") == Fraction(1, 2)
        assert str_to_scalar("5") == 5
        assert str_to_scalar("5.0") == 5.0

    def test_bad_scalar(self):
        with pytest.raises(ParseError):
            str_to_scalar("1/0")
        with pytest.raises(ParseError):
            str_to_scalar("abc")


class TestInstanceRoundTrip:
    def test_empty_universe(self):
        bundle = InstanceBundle(
            universe=universe_from_type_space({}),
            dist=TypeDistribution({}),
            valuation=coverage_valuation({}),
            constraint=constraint_cardinality(0),
        )
        assert parse_instance(serialize_instance(bundle)) == bundle

    def test_triangular_rational_bundle(self):
        bundle = gen_submodular_lb(Fraction(1, 2))
        text = serialize_instance(bundle)
        again = parse_instance(text)
        assert again == bundle
        assert serialize_instance(again) == text  # byte-stable re-serialization

    def test_tree_instance(self):
        bundle = gen_tree_lb(2, 2, Fraction(1, 8))
        assert parse_instance(serialize_instance(bundle)) == bundle

    def test_random_instances_all_kinds(self):
        for seed in range(12):
            inst = gen_random_instance(seed)
            assert parse_instance(serialize_instance(inst)) == inst

    def test_weighted_rank_instance(self):
        params = RandomInstanceParams(
            valuation_kinds=("matroid_intersection_rank", "matching_rank"),
            weight_high=1024,
        )
        for seed in range(6):
            inst = gen_random_instance(seed, params)
            assert parse_instance(serialize_instance(inst)) == inst

    def test_rational_mode_survives_round_trip(self):
        from smplab import adap_exact

        bundle = gen_submodular_lb(Fraction(1, 2))
        again = parse_instance(serialize_instance(bundle))
        before = adap_exact(bundle.tree, bundle.valuation, bundle.universe, bundle.dist)
        after = adap_exact(again.tree, again.valuation, again.universe, again.dist)
        assert before.value == after.value
        assert isinstance(after.value, Fraction)


class TestTreeCodec:
    def test_expanding_tree_refused_with_its_cap(self):
        # every path of the eps 1/10 triangle probes 45 elements, so its 1035
        # shared nodes expand to 2^46 - 1 nodes, leaves included
        with pytest.raises(ValidationError, match="expands past 200000 nodes"):
            serialize_instance(gen_submodular_lb(Fraction(1, 10)))


class TestParseFailures:
    def test_truncated_document(self):
        text = serialize_instance(gen_random_instance(1))
        with pytest.raises(ParseError):
            parse_instance(text[: len(text) // 2])

    def test_wrong_schema(self):
        with pytest.raises(ParseError):
            parse_instance('{"schema": "something-else/9"}')

    def test_unknown_valuation_kind(self):
        text = serialize_instance(gen_random_instance(2))
        broken = text.replace('"kind": "coverage"', '"kind": "mystery"').replace(
            '"kind": "partition_weighted"', '"kind": "mystery"'
        ).replace('"kind": "weighted_rank"', '"kind": "mystery"')
        with pytest.raises(ParseError):
            parse_instance(broken)

    def test_unknown_constraint_kind(self):
        inst = gen_random_instance(3)
        doc = serialize_instance(inst)
        for kind in ("budget", "cardinality", "dag_path"):
            doc = doc.replace(f'"kind": "{kind}"', '"kind": "weird"')
        with pytest.raises(ParseError):
            parse_instance(doc)


def _field_paths(node, path=()):
    """The key path of every value nested in a JSON document."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


_FUZZ_DOCS = [
    instance_to_dict(gen_random_instance(seed, params))
    for seed, params in [
        (1, RandomInstanceParams()),
        (2, RandomInstanceParams(valuation_kinds=("matching_rank",), weight_high=8)),
        (3, RandomInstanceParams(valuation_kinds=("matroid_intersection_rank",),
                                 k_extendible=2, constraint_kinds=("budget",))),
        (4, RandomInstanceParams(valuation_kinds=("coverage",), constraint_kinds=("dag_path",))),
    ]
] + [instance_to_dict(gen_tree_lb(2, 2, Fraction(1, 2)))]

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_parse_instance_returns_a_bundle_or_raises_parse_error(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_DOCS), label="doc"))
    path = data.draw(st.sampled_from(list(_field_paths(doc))), label="field")
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = data.draw(_JSON_VALUES, label="value")
    try:
        got = parse_instance(json.dumps(doc))
    except ParseError:
        return
    assert isinstance(got, InstanceBundle)


class TestReports:
    def records(self):
        return [
            ReportRecord("adap0", 1.25, mode="exact"),
            ReportRecord(
                "ratio", 1.97, mode="exact", bound="ratio >= 1.9", passed=True
            ),
            ReportRecord(
                "adap_mc", 1.24, mode="monte_carlo", seed=7, trials=1000, stderr=0.01
            ),
        ]

    def test_round_trip(self):
        text = serialize_report(self.records(), timings={"wall_seconds": 0.5})
        records, timings = parse_report(text)
        assert records == self.records()
        assert timings == {"wall_seconds": 0.5}

    def test_identical_records_identical_bytes_without_timings(self):
        a = serialize_report(self.records())
        b = serialize_report(self.records())
        assert a == b

    def test_csv_export(self):
        csv_text = report_to_csv(self.records())
        lines = csv_text.strip().split("\n")
        assert lines[0] == "name,value,mode,seed,trials,stderr,bound,pass"
        assert len(lines) == 4
        assert lines[1].startswith("adap0,1.25,exact")

    def test_report_schema_enforced(self):
        with pytest.raises(ParseError):
            parse_report('{"schema": "nope"}')
