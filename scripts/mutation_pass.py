#!/usr/bin/env python3
"""The full mutation pass: count how ``smplab eval --file`` treats every
one-node corruption of 18 instance documents, with ``--what adap``, with
``--what best-na`` and, on the weighted-rank ones, with ``--what greedy``.

The documents are ``gen_random_instance`` seeds 0-15 with default
parameters, the triangle at eps 1/3 and ``gen_tree_lb(2, 2, 1/8)``. The walk
and the verdict are the tier-1 gate's own (``tests/mutations.py``): every
JSON node up to depth 6 is replaced by each of its bad values, 23,820 runs
per mode (fewer for ``greedy``). Prints each failing run, then the count per mode and outcome;
exits 1 if any run failed.

Usage: PYTHONPATH=src python scripts/mutation_pass.py
"""

import collections
import pathlib
import sys
import tempfile
from fractions import Fraction

from smplab import gen_random_instance, gen_submodular_lb, gen_tree_lb
from smplab.serialize import instance_to_dict

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from mutations import WHATS, mutants, outcome, walks  # noqa: E402


def main() -> int:
    bundles = [gen_random_instance(seed) for seed in range(16)]
    bundles += [gen_submodular_lb(Fraction(1, 3)), gen_tree_lb(2, 2, Fraction(1, 8))]
    counts: collections.Counter = collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        file = pathlib.Path(tmp) / "mutant.json"
        for what in WHATS:
            for doc in map(instance_to_dict, bundles):
                for text, *where in mutants(doc) if walks(what, doc) else ():
                    got = outcome(text, file, what, *where)
                    if got.startswith("FAIL"):
                        print(f"{what}: {got}")
                        got = "FAIL"
                    counts[what, got] += 1
    for (what, name), n in sorted(counts.items()):
        print(f"{n:6d}  {what}: {name}")
    print(f"{sum(counts.values()):6d}  runs")
    return 1 if any(name == "FAIL" for _, name in counts) else 0


if __name__ == "__main__":
    sys.exit(main())
