"""End-to-end CLI runs: exit codes, report files, reproducibility."""

import importlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import smplab
from smplab import gen_random_instance, gen_submodular_lb, gen_tree_lb, RandomInstanceParams
from smplab.cli import main, run
from smplab.core import ValidationError
from smplab.serialize import (
    instance_to_dict,
    parse_report,
    serialize_instance,
    serialize_report,
)


def _exact_tree_doc(weight=None):
    """``gen_tree_lb(2, 2, 1/2)`` as a document (k = 2, rational probabilities), every
    weight set to ``weight`` if given."""
    doc = instance_to_dict(gen_tree_lb(2, 2, Fraction(1, 2)))
    if weight is not None:
        doc["valuation"]["weights"] = dict.fromkeys(doc["valuation"]["weights"], weight)
    return doc


@pytest.fixture
def instance_file(tmp_path):
    inst = gen_random_instance(
        11,
        RandomInstanceParams(
            valuation_kinds=("matroid_intersection_rank",), k_extendible=2
        ),
    )
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(inst))
    return path


def _empty_distribution(doc):
    doc["distribution"] = []


def _nan_probabilities(doc):
    dist = doc["distribution"]
    e = next(iter(dist))
    dist[e] = {t: "nan" for t in dist[e]}


def _inf_weights(doc):
    valuation = doc["valuation"]
    valuation["weights"] = {t: "inf" for t in valuation["weights"]}


def _nan_table_value(doc):
    first = next(iter(doc["distribution"].values()))
    t = sorted(first)[0]
    doc["valuation"] = {
        "kind": "explicit",
        "ground": [t],
        "table": [[[], "0"], [[t], "nan"]],
    }


def _nonzero_empty_table_value(doc):
    t = sorted(next(iter(doc["distribution"].values())))[0]
    doc["valuation"] = {"kind": "explicit", "ground": [t], "table": [[[], "1"], [[t], "2"]]}


def _inf_metadata(doc):
    doc["metadata"]["seed"] = {"scalar": "inf"}


def _word_limit(doc):
    doc["constraint"] = {"kind": "cardinality", "limit": "abc"}


def _infinite_limit(doc):
    doc["constraint"] = {"kind": "cardinality", "limit": float("inf")}


def _negative_limit(doc):
    doc["constraint"] = {"kind": "cardinality", "limit": -1}


def _word_capacity(doc):
    doc["valuation"]["family"]["members"][0]["capacity"][0][1] = "abc"


def _fractional_limit(doc):
    doc["constraint"] = {"kind": "cardinality", "limit": 2.5}


def _huge_limit(doc):
    doc["constraint"] = {"kind": "cardinality", "limit": 1e300}


def _float_capacity(doc):
    doc["valuation"]["family"]["members"][0]["capacity"][0][1] = 1.0


def _number_probability(doc):
    doc["distribution"]["e0"]["e0.t0"] = 0.5


def _number_weight(doc):
    doc["valuation"]["weights"]["e0.t0"] = 1


def _number_table_value(doc):
    table = [[[], "0"], [["e0.t0"], 2]]
    doc["valuation"] = {"kind": "explicit", "ground": ["e0.t0"], "table": table}


def _number_metadata(doc):
    doc["metadata"]["seed"] = {"scalar": 11}


def _number_cost(doc):
    doc["constraint"] = {"kind": "budget", "cost": {"e0": 1}, "budget": "1"}


def _number_budget(doc):
    doc["constraint"] = {"kind": "budget", "cost": {"e0": "1"}, "budget": 2}


def _list_tree_element(doc):
    doc["tree"]["element"] = []


def _null_tree_element(doc):
    doc["tree"]["element"] = None


def _list_fan_root(doc):
    doc["constraint"] = {"kind": "tree_fan", "edges": {"e0": ["r", "v"]}, "root": []}


def _list_dag_start(doc):
    doc["constraint"] = {"kind": "dag_path", "arcs": {"e0": []}, "start": []}


def _unknown_dag_start(doc):
    doc["constraint"] = {"kind": "dag_path", "arcs": {"e0": []}, "start": "zzz"}


def _unpaired_capacity(doc):
    doc["valuation"]["family"]["members"][0]["capacity"] = [["q0"]]


def _number_capacity(doc):
    doc["valuation"]["family"]["members"][0]["capacity"] = 5


def _no_members(doc):
    doc["valuation"]["family"]["members"] = []


def _member_on_another_ground(doc):
    doc["valuation"]["family"]["members"][1]["part_of"] = {}


def _repeated_tree_element(doc):
    types = doc["universe"]["types"]["e0"]
    inner = {"element": "e0", "children": {t: None for t in types}}
    doc["tree"] = {"element": "e0", "children": {t: inner for t in types}}


def _unknown_tree_element(doc):
    doc["tree"] = {"element": "zz", "children": {"zz.t": None}}


def _missing_tree_arc(doc):
    doc["tree"] = {"element": "e0", "children": {doc["universe"]["types"]["e0"][0]: None}}


def _deep_tree(doc):
    # built as text: json.dumps recurses too
    e = doc["universe"]["elements"][0]
    t = doc["universe"]["types"][e][0]
    node = "null"
    for _ in range(600):
        node = f'{{"element": "{e}", "children": {{"{t}": {node}}}}}'
    doc["tree"] = None
    return json.dumps(doc).replace('"tree": null', f'"tree": {node}')


class TestGapCommands:
    def test_gap_submodular_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["gap-submodular", "--eps", "0.05", "--out", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out
        records, timings = parse_report(out.read_text())
        names = {r.name for r in records}
        assert {"adap0", "alg_opt0", "ratio"} <= names
        assert (tmp_path / "report.csv").exists()
        assert "wall_seconds" in timings

    def test_unwritable_report_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        assert main(["gap-kext", "--k", "3", "--out", str(out)]) == 2
        assert "No such file or directory" in capsys.readouterr().err

    def test_gap_submodular_bound_violation_fails(self):
        assert main(["gap-submodular", "--eps", "0.05", "--tolerance", "1.99"]) == 1

    def test_gap_submodular_refuses_a_tiny_eps_past_the_depth_cap(self):
        # 1 - eps rounds to 1, so counting the depth would never end: a subprocess
        # with a timeout fails instead of hanging
        src = str(Path(smplab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "smplab", "gap-submodular", "--eps", "1e-300"],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert done.returncode == 2
        assert "eps=1e-300 needs about 1.382e+303 columns, past the depth cap of 16384" in (
            done.stderr)

    def test_gap_submodular_at_eps_one_thousandth_takes_under_a_second(self, capsys):
        # 13,809 columns: the closed forms carry one sum and one maximum per column
        start = time.perf_counter()
        assert main(["gap-submodular", "--eps", "0.001"]) == 0
        assert time.perf_counter() - start < 1
        assert "[PASS] ratio value=1.99898" in capsys.readouterr().out

    def test_gap_kext_default_parameters(self):
        assert main(["gap-kext", "--k", "3"]) == 0

    def test_gap_kext_default_parameters_reach_the_threshold_at_k2(self, capsys):
        assert main(["gap-kext", "--k", "2"]) == 0
        assert "[PASS] ratio value=1.599" in capsys.readouterr().out

    def test_gap_kext_custom_parameters_report_only(self):
        assert main(["gap-kext", "--k", "2", "--w", "2", "--p", "0.125"]) == 0

    @pytest.mark.parametrize(
        "args, named",
        [
            (["--p", "nan"], "p must satisfy 0 < p <= 1, got nan"),
            (["--p", "2"], "p must satisfy 0 < p <= 1, got 2.0"),
            (["--w", "0"], "w must be >= 1, got 0"),
            (["--p", "-0.5", "--w", "3"], "p must satisfy 0 < p <= 1, got -0.5"),
        ],
    )
    def test_gap_kext_rejects_bad_parameters(self, capsys, args, named):
        assert main(["gap-kext", "--k", "3", *args]) == 2
        assert named in capsys.readouterr().err

    def test_gap_kext_keeps_p_past_the_precision_of_one_minus_p(self, capsys):
        # p = 1/k**3 < 2**-54 from k = 2**18 on, where 1 - p rounds to 1.0
        assert main(["gap-kext", "--k", "300000"]) == 0
        ratio = capsys.readouterr().out.splitlines()[-1]
        assert ratio.startswith("[PASS] ratio value=")
        assert float(ratio.split("value=")[1].split()[0]) >= 299999.5

    @pytest.mark.parametrize("args, flag", [(["--k", str(10**80)], "--k sets w"),
                                            (["--k", "2", "--w", str(10**400)], "--w sets w")],
                             ids=["k", "w"])
    def test_gap_kext_refuses_a_size_past_a_float(self, capsys, args, flag):
        assert main(["gap-kext", *args]) == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err

    def test_gap_kext_refuses_a_k_whose_default_p_is_zero(self, capsys):
        # with --w given, k = 10**200 passes the float check but 1/k**3 underflows to 0.0
        assert main(["gap-kext", "--k", str(10**200), "--w", "4"]) == 2
        err = capsys.readouterr().err
        assert "--k sets p" in err and "Traceback" not in err

    def test_gap_matroid_encoding(self):
        assert main(["gap-matroid-encoding", "--k", "2", "--samples", "500"]) == 0

    def test_gap_matroid_encoding_report_is_the_same_at_any_samples_and_seed(self, tmp_path,
                                                                           capsys):
        # the check is exact: --samples and --seed still parse, and change nothing
        reports = []
        for i, flags in enumerate((["--seed", "0", "--samples", "500"],
                                   ["--seed", "1", "--samples", "10000"], ["--samples", "0"])):
            out = tmp_path / f"encoding{i}.json"
            assert main(["gap-matroid-encoding", "--k", "3", *flags, "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            del doc["timings"]
            reports.append((json.dumps(doc), out.with_suffix(".csv").read_bytes()))
        assert reports[1:] == reports[:1] * 2
        capsys.readouterr()
        assert main(["gap-matroid-encoding", "--k", "3", "--samples", "-1"]) == 2
        assert "--samples must be >= 0, got -1" in capsys.readouterr().err

    def test_gap_matroid_encoding_rejects_composite(self):
        assert main(["gap-matroid-encoding", "--k", "4"]) == 2

    def test_gap_matroid_encoding_refuses_past_the_edge_cap(self, capsys):
        # the 7-ary depth-7 tree would need 49 maps over its 960799 edges
        assert main(["gap-matroid-encoding", "--k", "7"]) == 2
        assert "960799 edges exceed the materialization cap 5000" in capsys.readouterr().err

    def test_python_dash_m(self):
        src = str(Path(smplab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def status(*args):
            return subprocess.run(
                [sys.executable, "-m", "smplab", *args],
                env=env, capture_output=True, timeout=120,
            ).returncode

        assert status("gap-matroid-encoding", "--k", "2", "--samples", "100") == 0
        assert status("gap-matroid-encoding", "--k", "4") == 2
        importlib.import_module("smplab.__main__")  # an import alone runs nothing


class TestEvalCommands:
    def test_eval_exact_targets(self, instance_file):
        for what in ("adap", "alg", "greedy", "best-na"):
            assert main(["eval", "--file", str(instance_file), "--what", what]) == 0

    def test_eval_missing_file(self, tmp_path):
        assert main(["eval", "--file", str(tmp_path / "nope.json")]) == 2

    def test_eval_rejects_bad_document(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["eval", "--file", str(bad)]) == 2

    @pytest.mark.parametrize(
        "edit, named",
        [
            (_empty_distribution, "distribution must be a JSON object, not []"),
            (_nan_probabilities, "distribution: probability of type 'e0.t0' is nan"),
            (_inf_weights, "valuation: weight of type 'e0.t0' is inf"),
            (_nan_table_value, "valuation: table value for ['e0.t0'] is nan"),
            (_nonzero_empty_table_value, "valuation: table value for [] must be 0, got 1"),
            (_inf_metadata, "metadata['seed'].scalar is inf"),
            (_word_limit, "constraint.limit must be a JSON integer, not 'abc'"),
            (_infinite_limit, "constraint.limit must be a JSON integer, not inf"),
            (_negative_limit, "constraint: limit must be >= 0, got -1"),
            (_fractional_limit, "constraint.limit must be a JSON integer, not 2.5"),
            (_huge_limit, "constraint.limit must be a JSON integer, not 1e+300"),
            (_word_capacity,
             "valuation.family.members[0].capacity['q0'] must be a JSON integer, not 'abc'"),
            (_float_capacity,
             "valuation.family.members[0].capacity['q0'] must be a JSON integer, not 1.0"),
            (_deep_tree, "recursion"),
            (_repeated_tree_element, "tree: element 'e0' repeats on a probing path"),
            (_unknown_tree_element, "tree: unknown element 'zz' in tree"),
            (_missing_tree_arc, "tree: node for 'e0' must have exactly one arc per type"),
            (_number_probability, "distribution['e0']['e0.t0'] must be a JSON string, not 0.5"),
            (_number_weight, "valuation.weights['e0.t0'] must be a JSON string, not 1"),
            (_number_table_value, "valuation.table[['e0.t0']] must be a JSON string, not 2"),
            (_number_metadata, "metadata['seed'].scalar must be a JSON string, not 11"),
            (_number_cost, "constraint.cost['e0'] must be a JSON string, not 1"),
            (_number_budget, "constraint.budget must be a JSON string, not 2"),
            (_list_tree_element, "tree.element must be a JSON string, not []"),
            (_null_tree_element, "tree.element must be a JSON string, not None"),
            (_list_fan_root, "constraint.root must be a JSON string, not []"),
            (_list_dag_start, "constraint.start must be a JSON string, not []"),
            (_unknown_dag_start, "constraint.start must be in universe.elements, not 'zzz'"),
            (_unpaired_capacity, "valuation.family.members[0].capacity must be a JSON array of "
                                 "[key, value] pairs, not [['q0']]"),
            (_number_capacity, "valuation.family.members[0].capacity must be a JSON array of "
                               "[key, value] pairs, not 5"),
            (_no_members, "valuation.family: intersection needs at least one family"),
            (_member_on_another_ground,
             "valuation.family: members[1] has another ground set than members[0]"),
        ],
        ids=[
            "_empty_distribution-distribution must be a JSON object",
            "_nan_probabilities-probability of type",
            "_inf_weights-weight of type",
            "_nan_table_value-table value for",
            "_nonzero_empty_table_value-table value for [] must be 0, got 1",
            "_inf_metadata-metadata value for 'seed'",
            "_word_limit-limit must be a JSON integer, not 'abc'",
            "_infinite_limit-limit must be a JSON integer, not inf",
            "_negative_limit-limit must be >= 0, got -1",
            "_fractional_limit-limit must be a JSON integer, not 2.5",
            "_huge_limit-limit must be a JSON integer, not 1e+300",
            "_word_capacity-capacity of part 'q0' must be a JSON integer, not 'abc'",
            "_float_capacity-capacity of part 'q0' must be a JSON integer, not 1.0",
            "_deep_tree-recursion",
            "_repeated_tree_element-element 'e0' repeats on a probing path",
            "_unknown_tree_element-unknown element 'zz' in tree",
            "_missing_tree_arc-node for 'e0' must have exactly one arc per type",
            "_number_probability-probability of type 'e0.t0' must be a JSON string, not 0.5",
            "_number_weight-weight of type 'e0.t0' must be a JSON string, not 1",
            "_number_table_value-table value for ['e0.t0'] must be a JSON string, not 2",
            "_number_metadata-metadata value for 'seed' must be a JSON string, not 11",
            "_number_cost-cost of 'e0' must be a JSON string, not 1",
            "_number_budget-budget must be a JSON string, not 2",
            "_list_tree_element",
            "_null_tree_element",
            "_list_fan_root",
            "_list_dag_start",
            "_unknown_dag_start",
            "_unpaired_capacity",
            "_number_capacity",
            "_no_members",
            "_member_on_another_ground",
        ],
    )
    def test_eval_rejects_malformed_fields(self, instance_file, capsys, edit, named):
        doc = json.loads(instance_file.read_text())
        text = edit(doc)  # an edit that cannot go through json.dumps returns the text
        instance_file.write_text(text or json.dumps(doc))
        assert main(["eval", "--file", str(instance_file), "--what", "adap"]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, part, named",
        [
            ("universe", {"elements": "e0", "types": {"e0": ["e0.t0"]}},
             "universe.elements must be a JSON array, not 'e0'"),
            ("universe", {"elements": ["e0"], "types": {"e0": "e0.t0"}},
             "universe.types['e0'] must be a JSON array, not 'e0.t0'"),
            ("valuation", {"kind": "coverage", "cover_sets": {"e0.t0": "g12"}},
             "valuation.cover_sets['e0.t0'] must be a JSON array, not 'g12'"),
            ("valuation", {"kind": "explicit", "ground": "e0.t0", "table": [[[], "0"]]},
             "valuation.ground must be a JSON array, not 'e0.t0'"),
            ("valuation", {"kind": "explicit", "ground": ["e0.t0"], "table": [["e0.t0", "1"]]},
             "valuation.table[0][0] must be a JSON array, not 'e0.t0'"),
            ("valuation", {"kind": "weighted_rank", "weights": {},
                           "family": {"kind": "explicit", "ground": "ab", "sets": []}},
             "valuation.family.ground must be a JSON array, not 'ab'"),
            ("valuation", {"kind": "weighted_rank", "weights": {},
                           "family": {"kind": "explicit", "ground": ["a"], "sets": ["a"]}},
             "valuation.family.sets[0] must be a JSON array, not 'a'"),
            ("valuation", {"kind": "weighted_rank", "weights": {},
                           "family": {"kind": "matching", "edges": {"e0.t0": "uv"}}},
             "valuation.family.edges['e0.t0'] must be a JSON array of length 2, not 'uv'"),
            ("valuation", {"kind": "weighted_rank", "weights": {},
                           "family": {"kind": "matching", "edges": {"e0.t0": ["u", "v", "w"]}}},
             "valuation.family.edges['e0.t0'] must be a JSON array of length 2, "
             "not ['u', 'v', 'w']"),
            ("valuation", {"kind": "weighted_rank", "weights": {}, "family": {
                "kind": "path_chain", "edges": {"e0.t0": "rv"}, "root": "r"}},
             "valuation.family.edges['e0.t0'] must be a JSON array of length 2, not 'rv'"),
            ("constraint", {"kind": "dag_path", "arcs": {"e0": "e1"}, "start": "e0"},
             "constraint.arcs['e0'] must be a JSON array, not 'e1'"),
            ("constraint", {"kind": "table", "sequences": ["e0"]},
             "constraint.sequences[0] must be a JSON array, not 'e0'"),
            ("constraint", {"kind": "table", "sequences": [["e0", 1]]},
             "constraint.sequences[0][1] must be a JSON string, not 1"),
            ("constraint", {"kind": "tree_fan", "edges": {"e0": "rv"}, "root": "r"},
             "constraint.edges['e0'] must be a JSON array of length 2, not 'rv'"),
        ],
        ids=["elements", "types", "cover_set", "valuation_ground", "table_key", "family_ground",
             "family_set", "matching_edge", "matching_triple", "path_chain_edge", "dag_arcs",
             "table_sequence", "table_mixed", "tree_fan_edge"],
    )
    def test_eval_rejects_a_string_where_a_string_array_belongs(
        self, instance_file, capsys, key, part, named
    ):
        # a bare string would otherwise be split into its characters
        doc = json.loads(instance_file.read_text())
        doc[key] = part
        instance_file.write_text(json.dumps(doc))
        assert main(["eval", "--file", str(instance_file), "--what", "adap"]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, part, named",
        [
            ("universe", [], "universe must be a JSON object, not []"),
            ("universe", {"elements": ["e0"], "types": [["e0", ["e0.t0"]]]},
             "universe.types must be a JSON object, not [['e0', ['e0.t0']]]"),
            ("metadata", [], "metadata must be a JSON object, not []"),
            ("constraint", [], "constraint must be a JSON object, not []"),
            ("constraint", {"kind": "budget", "cost": [["e0", "1"]], "budget": "1"},
             "constraint.cost must be a JSON object, not [['e0', '1']]"),
            ("constraint", {"kind": "dag_path", "arcs": [["e0", []]], "start": "e0"},
             "constraint.arcs must be a JSON object, not [['e0', []]]"),
            ("constraint", {"kind": "tree_fan", "edges": [["e0", ["r", "v"]]], "root": "r"},
             "constraint.edges must be a JSON object, not [['e0', ['r', 'v']]]"),
            ("valuation", {"kind": "weighted_rank", "weights": [["e0.t0", "1"]],
                           "family": {"kind": "explicit", "ground": [], "sets": []}},
             "valuation.weights must be a JSON object, not [['e0.t0', '1']]"),
            ("valuation", {"kind": "weighted_rank", "weights": {}, "family": ["matching"]},
             "valuation.family must be a JSON object, not ['matching']"),
            ("valuation", {"kind": "weighted_rank", "weights": {},
                           "family": {"kind": "matching", "edges": [["e0.t0", ["u", "v"]]]}},
             "valuation.family.edges must be a JSON object, not [['e0.t0', ['u', 'v']]]"),
            ("valuation", {"kind": "weighted_rank", "weights": {}, "family": {
                "kind": "path_chain", "edges": [["e0.t0", ["r", "v"]]], "root": "r"}},
             "valuation.family.edges must be a JSON object, not [['e0.t0', ['r', 'v']]]"),
            ("tree", {"element": "e0", "children": [["e0.t0", None]]},
             "tree.children must be a JSON object, not [['e0.t0', None]]"),
        ],
        ids=["universe", "universe_types", "metadata", "constraint", "cost", "dag_arcs",
             "tree_fan_edges", "weights", "family", "matching_edges", "path_chain_edges",
             "tree_children"],
    )
    def test_eval_names_a_field_that_must_be_an_object(
        self, instance_file, capsys, key, part, named
    ):
        doc = json.loads(instance_file.read_text())
        doc[key] = part
        instance_file.write_text(json.dumps(doc))
        assert main(["eval", "--file", str(instance_file), "--what", "adap"]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "valuation, named",
        [
            # read through dict() as a mapping, this pair would name a real part
            ({"kind": "partition_weighted", "part_of": [["e0.t0", "p"]],
              "part_weight": [["p", "1"]]},
             "valuation.part_of must be a JSON object, not [['e0.t0', 'p']]"),
            ({"kind": "coverage", "cover_sets": [["e0.t0", ["g1"]]]},
             "valuation.cover_sets must be a JSON object, not [['e0.t0', ['g1']]]"),
            ("coverage", "valuation must be a JSON object, not 'coverage'"),
            ({"kind": "partition_weighted", "part_of": {"e0.t0": ["p"]},
              "part_weight": [["p", "1"]]},
             "valuation.part_of['e0.t0'] must be a JSON string or integer, not ['p']"),
            ({"kind": "partition_weighted", "part_of": {"e0.t0": "p"},
              "part_weight": [[["p"], "1"]]},
             "valuation.part_weight[0][0] must be a JSON string or integer, not ['p']"),
            ({"kind": "partition_weighted", "part_of": {"e0.t0": "p"},
              "part_weight": {"p": "1"}},
             "valuation.part_weight must be a JSON array of [key, value] pairs, not {'p': '1'}"),
            ({"kind": "weighted_rank", "weights": {}, "family": {
                "kind": "partition_matroid", "part_of": [["e0.t0", "p"]], "capacity": [["p", 1]]}},
             "valuation.family.part_of must be a JSON object, not [['e0.t0', 'p']]"),
            ({"kind": "partition_weighted", "part_of": {"e0.t0": "p0"},
              "part_weight": [["p0", 1]]},
             "valuation.part_weight['p0'] must be a JSON string, not 1"),
        ],
        ids=["part_of_pairs", "cover_sets_list", "valuation_string", "part_of_list_label",
             "part_weight_list_label", "part_weight_object", "family_part_of_pairs",
             "part_weight_number"],
    )
    def test_eval_names_the_malformed_valuation_field(
        self, instance_file, capsys, valuation, named
    ):
        doc = json.loads(instance_file.read_text())
        doc["valuation"] = valuation
        instance_file.write_text(json.dumps(doc))
        assert main(["eval", "--file", str(instance_file), "--what", "adap"]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["adap", "best-na"])
    @pytest.mark.parametrize(
        "constraint, named",
        [
            ({"kind": "budget", "cost": {"e0": "1"}, "budget": "3"},
             "constraint: no probing cost for element 'e1'"),
            ({"kind": "tree_fan", "edges": {"e0": ["r", "v"]}, "root": "r"},
             "constraint: element 'e1' is not an edge of the tree"),
            ({"kind": "cardinality", "limit": 1},
             "tree: probing path ['e0', 'e1'] breaks the constraint"),
        ],
        ids=["budget_cost", "tree_fan_edge", "tree_breaks_constraint"],
    )
    def test_eval_checks_the_constraint_at_parse(self, tmp_path, capsys, constraint, named, what):
        doc = instance_to_dict(gen_random_instance(11))
        doc["constraint"] = constraint
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", "--file", str(path), "--what", what]) == 2
        assert named in capsys.readouterr().err

    def test_mc_estimate_deterministic(self, instance_file):
        argv = ["mc-estimate", "--file", str(instance_file), "--what", "adap",
                "--trials", "2000", "--seed", "5"]
        records1, _, status1 = run(argv)
        records2, _, status2 = run(argv)
        assert status1 == status2 == 0
        assert serialize_report(records1) == serialize_report(records2)

    def test_mc_requires_seed_and_trials(self, instance_file):
        argv = ["eval", "--file", str(instance_file), "--mode", "mc"]
        with pytest.raises(ValidationError, match="mc mode requires --trials >= 1"):
            run(argv)
        with pytest.raises(ValidationError, match="mc mode requires --seed"):
            run([*argv, "--trials", "10"])

    def test_mc_refuses_trials_past_the_cap_before_allocating(self, instance_file, capsys,
                                                              monkeypatch):
        def collect(*args):
            raise AssertionError("the values array was allocated")

        monkeypatch.setattr(smplab.evaluate, "_mc_collect", collect)
        argv = ["mc-estimate", "--file", str(instance_file), "--trials", str(10**12),
                "--seed", "1"]
        assert main(argv) == 2
        assert "--trials must be <= 134217728" in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["greedy", "best-na"])
    def test_mc_mode_refuses_exact_only_targets(self, instance_file, capsys, what):
        argv = ["eval", "--file", str(instance_file), "--mode", "mc", "--trials", "10",
                "--seed", "1", "--what", what]
        assert main(argv) == 2
        assert f"mc mode supports adap|alg, not {what!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["adap", "alg"])
    def test_mc_estimate_is_eval_in_mc_mode(self, instance_file, tmp_path, what):
        reports = []
        for command in (["mc-estimate"], ["eval", "--mode", "mc"]):
            out = tmp_path / f"{command[0]}.json"
            assert main([*command, "--file", str(instance_file), "--what", what,
                         "--trials", "3000", "--seed", "9", "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            del doc["timings"]
            reports.append((json.dumps(doc), out.with_suffix(".csv").read_bytes()))
        assert reports[0] == reports[1]


class TestReduceWeighted:
    def test_from_seed(self):
        assert main(["reduce-weighted", "--seed", "4", "--k", "2"]) == 0

    def test_from_file(self, tmp_path):
        inst = gen_random_instance(
            9,
            RandomInstanceParams(
                valuation_kinds=("matching_rank",), weight_high=1024
            ),
        )
        path = tmp_path / "weighted.json"
        path.write_text(serialize_instance(inst))
        assert main(["reduce-weighted", "--file", str(path)]) == 0

    def test_seed_rejects_k_outside_two_and_three(self, capsys):
        # a seeded instance is 2-extendible for any other --k, so the bound
        # adap/(32 k log2 k) would be checked with the wrong k
        for k in (4, 5):
            assert main(["reduce-weighted", "--seed", "3", "--k", str(k)]) == 2
            assert f"--k must be 2 or 3 with --seed, got {k}" in capsys.readouterr().err
        assert main(["reduce-weighted", "--seed", "3", "--k", "3"]) == 0

    def test_extreme_fraction_weights(self, tmp_path, capsys):
        # weight classes by bit lengths: 10**-400 is class -1328, with no float log2 in between
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(_exact_tree_doc("1/1" + "0" * 400)))
        assert main(["reduce-weighted", "--file", str(path)]) == 0
        assert "representative_bucket_1 value=-1328.0" in capsys.readouterr().out

    def test_both_sources_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(serialize_instance(gen_random_instance(1)))
        assert main(["reduce-weighted", "--file", str(path), "--seed", "1"]) == 2


class TestVerifySuite:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "suite.json"
        assert main(["verify-suite", "--seed", "1", "--cases", "12", "--out", str(out)]) == 0
        records, _ = parse_report(out.read_text())
        assert all(r.passed for r in records)
        names = {r.name for r in records}
        assert "decomposition_identity" in names
        assert "tree_feasible" in names

    def test_identical_config_identical_records(self):
        r1, _, _ = run(["verify-suite", "--seed", "3", "--cases", "8"])
        r2, _, _ = run(["verify-suite", "--seed", "3", "--cases", "8"])
        assert serialize_report(r1) == serialize_report(r2)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["verify-suite", "--cases", "0"], "--cases must be >= 1, got 0"),
        (["verify-suite", "--cases", "-4"], "--cases must be >= 1, got -4"),
        (["gap-matroid-encoding", "--k", "2", "--samples", "-5"],
         "--samples must be >= 0, got -5"),
        (["eval", "--file", "FILE", "--mode", "mc", "--trials", "10", "--seed", "1",
          "--workers", "0"], "--workers must be >= 1, got 0"),
        (["mc-estimate", "--file", "FILE", "--trials", "10", "--seed", "1",
          "--workers", "-3"], "--workers must be >= 1, got -3"),
        (["eval", "--file", "FILE", "--what", "best-na", "--max-len", "-2"],
         "--max-len must be >= 1, got -2"),
        (["gap-submodular", "--eps", "0.05", "--tolerance", "nan"],
         "--tolerance must be finite, got nan"),
        (["reduce-weighted", "--seed", "4", "--k", "2", "--tolerance", "inf"],
         "--tolerance must be finite, got inf"),
        (["gap-submodular", "--eps", "0.5"], "gap-submodular requires --eps in (0, 1/2)"),
        (["gap-kext", "--k", "0"], "gap-kext requires --k >= 1"),
        (["reduce-weighted", "--file", "COVERAGE"],
         "this evaluation needs a weighted-rank valuation"),
        (["reduce-weighted", "--file", "TREELESS"],
         "reduce-weighted needs an instance with a tree"),
        (["reduce-weighted", "--file", "FILE", "--k", "0"],  # not the file's k = 2
         "reduce-weighted needs --k >= 2 (or instance metadata)"),
    ],
)
def test_rejects_bad_count_or_tolerance(instance_file, tmp_path, capsys, argv, named):
    def path(a):
        if a == "FILE":
            return str(instance_file)
        if a in REFUSED_FILES:
            (got := tmp_path / f"{a}.json").write_text(json.dumps(REFUSED_FILES[a]()))
            return str(got)
        return a

    assert main([path(a) for a in argv]) == 2
    assert named in capsys.readouterr().err


REFUSED_FILES = {
    "COVERAGE": lambda: instance_to_dict(
        gen_random_instance(1, RandomInstanceParams(valuation_kinds=("coverage",)))),
    "TREELESS": lambda: {**_exact_tree_doc(), "tree": None},  # JSON null: no tree
}


def test_huge_exact_value_refused_by_name(tmp_path, capsys):
    # an exact value of 1330 bits has no float to report
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_exact_tree_doc("1" + "0" * 400)))
    assert main(["eval", "--file", str(path)]) == 2
    assert "record 'adap_exact' is past a float's range: 1330 bits" in capsys.readouterr().err


def test_mc_report_independent_of_hash_seed(tmp_path):
    # string hashing is salted per process; a float value must not depend on it
    path = tmp_path / "triangle.json"
    path.write_text(serialize_instance(gen_submodular_lb(0.2)))
    src = str(Path(smplab.__file__).resolve().parents[1])
    reports = []
    for hash_seed in ("0", "4"):
        out = tmp_path / f"mc_{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "smplab.cli", "mc-estimate", "--file", str(path),
             "--what", "alg", "--trials", "2048", "--seed", "11", "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        reports.append(out.with_suffix(".csv").read_bytes())
    assert reports[0] == reports[1]


def test_triangular_instance_file_round_trips_through_eval(tmp_path):
    bundle = gen_submodular_lb(Fraction(1, 2))
    path = tmp_path / "triangle.json"
    path.write_text(serialize_instance(bundle))
    out = tmp_path / "eval.json"
    assert main(["eval", "--file", str(path), "--what", "adap", "--out", str(out)]) == 0
    records, _ = parse_report(out.read_text())
    assert records[0].value == pytest.approx(41 / 32)


def test_a_rank_cap_field_is_ignored(tmp_path):
    # a weighted-rank file may hold "rank_cap": 20, which the codec does not
    # read: the exact rank search is capped at families.RANK_CAP
    doc = instance_to_dict(gen_tree_lb(2, 2, Fraction(1, 8)))
    doc["valuation"]["rank_cap"] = 20
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "eval.json"
    assert main(["eval", "--file", str(path), "--what", "adap", "--out", str(out)]) == 0
    records, _ = parse_report(out.read_text())
    assert records[0].value == 0.46875
