"""One benchmark workload in a fresh process; prints one JSON line.

``run.py`` starts this script once per workload, so that ``peak_rss_mb``
and ``setup_s`` belong to that workload alone. ``setup_s`` (imports plus
the first input generation) is the median of this process's own set-up
and of ``SETUP_PROBES`` fresh interpreters started at even intervals
between the passes, so that it samples the host's speed over the whole
run rather than at one moment. Untraced, it repeats passes
until ``--seconds`` is used up and reports end-to-end metrics. Traced, it
spends half the time on untraced passes, then repeats pass 0 once under
the span recorder and reports the per-layer metrics.

``wall_ref`` divides each pass's wall time by the time of a fixed
pure-Python reference routine run just before and just after it, and
takes the median over passes. Small shared hosts switch between a fast
and a loaded speed about 1.6x apart, for seconds or for longer than a
run, so raw pass times flip between two levels from run to run; the
reference slows down with the pass beside it and the ratio does not flip.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
SETUP_PROBES = 6  # extra fresh-interpreter set-ups per untraced run
clock = time.perf_counter


def _git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "smplab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _reference() -> float:
    """Wall time of a fixed routine of set, dict and Fraction work.

    The collector is off while it runs: a collection it triggered would
    walk the pass's live objects and tie its time to their number.
    """
    gc.disable()
    try:
        t0 = clock()
        counts: dict = {}
        acc = Fraction(0)
        for i in range(24_000):
            key = frozenset((i % 7, i % 11, i % 13))
            counts[key] = counts.get(key, 0) + 1
            if i % 10 == 0:
                acc += Fraction(i % 9 + 1, 7)
        return clock() - t0
    finally:
        gc.enable()


def _passes(workload, seed: int, seconds: float, min_passes: int):
    """Run passes 0, 1, ... until the next one would overrun ``seconds``.

    Yields (generation s, pass s, reference s, outcome) per pass.
    """
    deadline = clock() + seconds
    index = 0
    while True:
        gc.collect()
        g0 = clock()
        inputs = workload.generate(seed, index)
        g1 = clock()
        before = _reference()
        r0 = clock()
        outcome = workload.run(inputs)
        r1 = clock()
        after = _reference()
        del inputs
        yield g1 - g0, r1 - r0, (before + after) / 2, outcome
        index += 1
        if index >= min_passes and clock() + (clock() - g0) > deadline:
            return


def _setup_probe(argv: list[str]) -> float:
    """Set-up time (imports plus first input generation) of a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, *argv], stdout=subprocess.PIPE,
        text=True, check=True, timeout=60,
    )
    return json.loads(done.stdout)["setup_s"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import and generate the first inputs; print the set-up time")
    args = ap.parse_args(argv)

    t0 = clock()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import smplab  # noqa: F401  (timed: imports are part of set-up)
    import_s = clock() - t0
    if Path(smplab.__file__).resolve().parent != ROOT / "src" / "smplab":
        raise SystemExit(f"smplab imported from {smplab.__file__}, not the checkout")

    import layers
    import workloads
    from recorder import Recorder

    if args.setup_probe:
        workload = workloads.WORKLOADS[args.workload](args.size, str(ROOT))
        g0 = clock()
        workload.generate(args.seed, 0)
        print(json.dumps({"setup_s": import_s + clock() - g0}))
        return 0

    failures: list[str] = []
    attempted = 0

    def tally(outcome) -> None:
        nonlocal attempted
        attempted += len(outcome.checks)
        failures.extend(label for label, ok in outcome.checks if not ok)

    with tempfile.TemporaryDirectory(prefix=".perfbench-out-", dir=ROOT) as out_dir:
        workload = workloads.WORKLOADS[args.workload](args.size, out_dir)
        budget = args.seconds / 2 if args.trace else args.seconds
        probes = 0 if args.trace else SETUP_PROBES
        probe_argv = [*(sys.argv[1:] if argv is None else argv), "--setup-probe"]
        start = clock()
        gen_s, run_s, ref_s, setup_s, latencies, work, first = [], [], [], [], [], {}, None
        for g, r, ref, outcome in _passes(workload, args.seed, budget,
                                          1 if args.trace else MIN_PASSES):
            tally(outcome)
            gen_s.append(g)
            run_s.append(r)
            ref_s.append(ref)
            latencies += outcome.latencies_s
            for rate, (count, secs) in outcome.work.items():
                acc = work.setdefault(rate, [0.0, 0.0])
                acc[0] += count
                acc[1] += secs
            if first is None:
                first = outcome
            if len(setup_s) < probes and clock() >= start + budget * len(setup_s) / probes:
                setup_s.append(_setup_probe(probe_argv))
        while len(setup_s) < probes:
            setup_s.append(_setup_probe(probe_argv))
        if args.trace:
            gc.collect()
            with Recorder() as rec:
                inputs = workload.generate(args.seed, 0)
                traced_s = clock()
                traced = workload.run(inputs)
                traced_s = clock() - traced_s
                del inputs
            tally(traced)
            attempted += 1
            if traced.values != first.values:
                failures.append("traced_values_identical")

    result: dict = {"attempted": attempted, "failed": len(failures),
                    "failures": failures[:10], "pass_s": run_s}
    if args.trace:
        result["metrics"] = {
            name: {"value": value, "unit": layers.UNITS[name]}
            for name, value in layers.layer_metrics(
                rec.snapshot(), traced_s - statistics.median(run_s)
            ).items()
        }
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = {
            "wall_ref": {
                "value": statistics.median(r / ref for r, ref in zip(run_s, ref_s)),
                "unit": "ref",
            },
            "setup_s": {"value": statistics.median([import_s + gen_s[0], *setup_s]),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
        extras = {
            "wall_p50_s": {"value": statistics.median(run_s), "unit": "s"},
            "wall_p75_s": {"value": _percentile(run_s, 0.75), "unit": "s"},
            "reference_p50_s": {"value": statistics.median(ref_s), "unit": "s"},
            "fail_frac": {"value": len(failures) / max(attempted, 1), "unit": "ratio"},
        }
        for rate, (count, secs) in sorted(work.items()):
            extras[rate] = {"value": count / secs if secs > 0 else 0.0, "unit": "1/s"}
        if latencies:
            extras["instance_p50_ms"] = {"value": 1e3 * _percentile(latencies, 0.5), "unit": "ms"}
            extras["instance_p99_ms"] = {"value": 1e3 * _percentile(latencies, 0.99), "unit": "ms"}
            extras["instance_samples"] = {"value": len(latencies), "unit": "count"}
        result["extras"] = extras
    result["provenance"] = {
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "params": {k: str(v) for k, v in workload.params.items()},
        "import_s": import_s,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
