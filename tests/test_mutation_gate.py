"""Every malformed instance file exits 2 naming its field, or evaluates.

The walk is in ``mutations.py``; ``scripts/mutation_pass.py`` runs it over
more documents. Here it takes three small ones: a coverage valuation under a
dag_path constraint, the w-ary tree instance, and a weighted-rank
intersection under a budget, 3,260 runs for each ``--what``; ``greedy``
walks the two weighted-rank ones, 2,290 runs.
"""

from fractions import Fraction

from mutations import WHATS, mutants, outcome, walks
from smplab import RandomInstanceParams, gen_random_instance, gen_tree_lb
from smplab.serialize import instance_to_dict


def test_every_mutation_is_named_or_evaluates(tmp_path):
    coverage = RandomInstanceParams(valuation_kinds=("coverage",), constraint_kinds=("dag_path",))
    weighted = RandomInstanceParams(
        valuation_kinds=("matroid_intersection_rank",), k_extendible=2,
        constraint_kinds=("budget",), weight_high=8,
    )
    bundles = [
        gen_random_instance(0, coverage),
        gen_tree_lb(2, 2, Fraction(1, 8)),
        gen_random_instance(2, weighted),
    ]
    file = tmp_path / "mutant.json"
    for what in WHATS:
        runs = 0
        for doc in map(instance_to_dict, bundles):
            for text, *where in mutants(doc) if walks(what, doc) else ():
                got = outcome(text, file, what, *where)
                runs += 1
                assert not got.startswith("FAIL"), got
        assert runs == (2290 if what == "greedy" else 3260)
