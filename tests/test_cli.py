"""End-to-end CLI runs: exit codes, report files, reproducibility."""

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import smplab
from smplab import gen_random_instance, gen_submodular_lb, RandomInstanceParams
from smplab.cli import ExperimentConfig, main, run
from smplab.core import ValidationError
from smplab.serialize import parse_report, serialize_instance, serialize_report


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


def _inf_metadata(doc):
    doc["metadata"]["seed"] = {"scalar": "inf"}


def _word_limit(doc):
    doc["constraint"] = {"kind": "cardinality", "limit": "abc"}


def _infinite_limit(doc):
    doc["constraint"] = {"kind": "cardinality", "limit": float("inf")}


def _word_capacity(doc):
    doc["valuation"]["family"]["members"][0]["capacity"][0][1] = "abc"


def _word_rank_cap(doc):
    doc["valuation"]["rank_cap"] = "abc"


def _fractional_limit(doc):
    doc["constraint"] = {"kind": "cardinality", "limit": 2.5}


def _huge_limit(doc):
    doc["constraint"] = {"kind": "cardinality", "limit": 1e300}


def _float_capacity(doc):
    doc["valuation"]["family"]["members"][0]["capacity"][0][1] = 1.0


def _bool_rank_cap(doc):
    doc["valuation"]["rank_cap"] = True


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

    def test_gap_submodular_bound_violation_fails(self):
        assert main(["gap-submodular", "--eps", "0.05", "--tolerance", "1.99"]) == 1

    def test_gap_kext_default_parameters(self):
        assert main(["gap-kext", "--k", "3"]) == 0

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

    def test_gap_matroid_encoding(self):
        assert main(["gap-matroid-encoding", "--k", "2", "--samples", "500"]) == 0

    def test_gap_matroid_encoding_rejects_composite(self):
        assert main(["gap-matroid-encoding", "--k", "4"]) == 2

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
            (_empty_distribution, "distribution must be a JSON object"),
            (_nan_probabilities, "probability of type"),
            (_inf_weights, "weight of type"),
            (_nan_table_value, "table value for"),
            (_inf_metadata, "metadata value for 'seed'"),
            (_word_limit, "limit must be a JSON integer, not 'abc'"),
            (_infinite_limit, "limit must be a JSON integer, not inf"),
            (_fractional_limit, "limit must be a JSON integer, not 2.5"),
            (_huge_limit, "limit must be a JSON integer, not 1e+300"),
            (_word_capacity, "capacity of part 'q0' must be a JSON integer, not 'abc'"),
            (_float_capacity, "capacity of part 'q0' must be a JSON integer, not 1.0"),
            (_word_rank_cap, "rank_cap must be a JSON integer, not 'abc'"),
            (_bool_rank_cap, "rank_cap must be a JSON integer, not True"),
            (_deep_tree, "recursion"),
            (_repeated_tree_element, "element 'e0' repeats on a probing path"),
            (_unknown_tree_element, "unknown element 'zz' in tree"),
            (_missing_tree_arc, "node for 'e0' must have exactly one arc per type"),
        ],
    )
    def test_eval_rejects_malformed_fields(self, instance_file, capsys, edit, named):
        doc = json.loads(instance_file.read_text())
        text = edit(doc)  # an edit that cannot go through json.dumps returns the text
        instance_file.write_text(text or json.dumps(doc))
        assert main(["eval", "--file", str(instance_file), "--what", "adap"]) == 2
        assert named in capsys.readouterr().err

    def test_mc_estimate_deterministic(self, instance_file):
        config = ExperimentConfig(
            command="mc-estimate",
            instance_file=str(instance_file),
            what="adap",
            trials=2000,
            seed=5,
            mode="mc",
        )
        records1, _, status1 = run(config)
        records2, _, status2 = run(config)
        assert status1 == status2 == 0
        assert serialize_report(records1) == serialize_report(records2)

    def test_mc_requires_seed_and_trials(self, instance_file):
        config = ExperimentConfig(
            command="mc-estimate", instance_file=str(instance_file), mode="mc"
        )
        with pytest.raises(ValidationError):
            run(config)


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
        config = ExperimentConfig(command="verify-suite", seed=3, cases=8)
        r1, _, _ = run(config)
        r2, _, _ = run(ExperimentConfig(command="verify-suite", seed=3, cases=8))
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
    ],
)
def test_rejects_bad_count_or_tolerance(instance_file, capsys, argv, named):
    assert main([str(instance_file) if a == "FILE" else a for a in argv]) == 2
    assert named in capsys.readouterr().err


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
