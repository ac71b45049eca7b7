#!/usr/bin/env python3
"""Run the headline gap experiments and drop reports under reports/.

Covers the triangular-instance recurrence gaps for a sweep of eps, the
w-ary-tree closed-form gaps for several k, the matroid-encoding check, a
weighted-reduction sample, and the randomized verifier battery.
"""

import pathlib
import sys

from smplab.cli import main as cli_main

REPORT_DIR = pathlib.Path(__file__).resolve().parent.parent / "reports"


def invoke(args, name):
    out = REPORT_DIR / name
    print(f"\n=== smplab {' '.join(args)}")
    status = cli_main([*args, "--out", str(out)])
    if status != 0:
        print(f"    exited with status {status}")
    return status


def main() -> int:
    REPORT_DIR.mkdir(exist_ok=True)
    worst = 0
    for eps in ("0.05", "0.02", "0.01"):
        worst = max(worst, invoke(["gap-submodular", "--eps", eps], f"submodular_{eps}"))
    for k in ("2", "3", "4", "5"):
        worst = max(worst, invoke(["gap-kext", "--k", k], f"kext_{k}"))
    for k in ("2", "3", "5"):
        worst = max(worst, invoke(["gap-matroid-encoding", "--k", k], f"encoding_{k}"))
    worst = max(worst, invoke(["reduce-weighted", "--seed", "1", "--k", "2"], "reduction"))
    worst = max(worst, invoke(["verify-suite", "--seed", "1", "--cases", "100"], "verify"))
    print(f"\nreports written to {REPORT_DIR}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
