#!/usr/bin/env python3
"""smplab benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in its own fresh child process (``worker.py``). The
end-to-end metrics and their bounds are listed in ``BENCHMARK.json``;
``--trace 0`` reports them, ``--trace 1`` reports the per-layer metrics of
a separate traced pass instead. The lines before the last one print the
run's provenance, every pass time, the raw pass-time percentiles
(``wall_p50_s``, ``wall_p75_s``), the workload's own rates
(``instances_per_s``, ``instance_p50_ms``, ``instance_p99_ms``,
``trials_per_s_w1``, ``trials_per_s_w2``, ``pairs_per_s``) and
``fail_frac``, failed output checks over attempted ones. The last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Exits non-zero without a result when the package sources are missing or a
workload fails to run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "constructions", "mc", "encoding")
CHILD_TIMEOUT_S = 170


def _expected_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _run_child(workload: str, args) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size,
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"workload {workload!r} exited with status {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"workload {workload!r} printed no result")
    return json.loads(lines[-1])


def _show(workload: str, child: dict, expected: dict[str, str]) -> None:
    got = child["metrics"]
    if set(got) != set(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        raise RuntimeError(f"metric mismatch: missing {missing}, unexpected {extra}")
    print(f"# {workload}: provenance {json.dumps(child['provenance'], sort_keys=True)}")
    print(f"{workload} pass_s: {' '.join(f'{s:.4f}' for s in child['pass_s'])}")
    rows = {**got, **child.get("extras", {})}
    for name, m in rows.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} checks: {child['attempted'] - child['failed']}/{child['attempted']} "
          f"passed over {len(child['pass_s'])} passes"
          + (f"; failed: {child['failures']}" if child["failed"] else ""))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every workload at toy sizes, for self-tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "smplab" / "__init__.py").is_file():
        print(f"error: no smplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = _expected_metrics(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in names:
            results[workload] = child = _run_child(workload, args)
            _show(workload, child, expected)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
