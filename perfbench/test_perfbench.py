"""Self-tests of the benchmark: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from recorder import Recorder  # noqa: E402

import smplab  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_named_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_table_matches_benchmark_json():
    assert list(layers.UNITS) == [m["name"] for m in SPEC["per_layer"]]
    for name in layers.UNITS:
        assert any(name.startswith(prefix) for prefix in layers.TARGETS), name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_values_identical(name, tmp_path):
    workload = workloads.WORKLOADS[name]("tiny", str(tmp_path))
    plain = workload.run(workload.generate(5, 0))
    originals = (
        smplab.core.iter_type_profiles,
        smplab.evaluate.iter_type_profiles,
        smplab.ValuationFunction.__call__,
        smplab.IndependenceOracle.is_independent,
    )
    with Recorder() as rec:
        # a name bound in two modules gets the same wrapper in both
        assert smplab.evaluate.iter_type_profiles is smplab.core.iter_type_profiles
        assert smplab.evaluate.iter_type_profiles is not originals[1]
        traced = workload.run(workload.generate(5, 0))
    assert traced.values == plain.values
    assert all(ok for _, ok in plain.checks + traced.checks)
    assert (
        smplab.core.iter_type_profiles,
        smplab.evaluate.iter_type_profiles,
        smplab.ValuationFunction.__call__,
        smplab.IndependenceOracle.is_independent,
    ) == originals
    metrics = layers.layer_metrics(rec.snapshot(), 0.0)
    assert set(metrics) == set(layers.UNITS)
    assert any(v > 0 for k, v in metrics.items() if k.startswith("instances."))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
