"""The four benchmark workloads.

Each workload splits one pass into ``generate`` (input generation, timed
as set-up) and ``run`` (the program's work, timed as the pass). A single
closed-loop client makes every call: each starts when the previous one
returns. Inputs come only from the workload seed and the pass index, and
every pass works on freshly generated objects, so memos start cold at the
start of each pass.

``run`` returns an :class:`Outcome`: the output checks, the values the
program returned (compared between traced and untraced passes), and the
work counted for the workload's own rates.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import smplab
from smplab import cli

TOL = 1e-9
MC_SIGMAS = 4

clock = time.perf_counter


@dataclass
class Outcome:
    checks: list[tuple[str, bool]] = field(default_factory=list)
    values: list = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    work: dict[str, list[float]] = field(default_factory=dict)  # rate name -> [count, seconds]

    def check(self, label: str, ok: bool) -> None:
        self.checks.append((label, bool(ok)))

    def add_work(self, rate: str, count: float, seconds: float) -> None:
        got = self.work.setdefault(rate, [0.0, 0.0])
        got[0] += count
        got[1] += seconds


def _rng(*key) -> random.Random:
    return random.Random(repr(key))


def _quiet_cli(args: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(args)
    return status, buf.getvalue()


# ---------------------------------------------------------------------------


class Sweep:
    """The acceptance sweeps over many small random instances: cold memos,
    little shared work, cost paid per call.

    The half-gap, k-extendible chain and weighted-reduction sweeps take the
    first tenth of the acceptance suite's fixed instance seeds, so every pass
    does the same work there. Passes run ``verify-suite`` at a cycle of
    ``VERIFY_SEEDS`` seeds drawn from the workload seed: its cost varies
    with the seed, and a run should not rest on one draw.
    """

    name = "sweep"
    VERIFY_SEEDS = 8
    sizes = {
        "full": {"half_gap": 100, "chain_per_k": 17, "reduction_per_k": 11,
                 "verify_cases": 20},
        "tiny": {"half_gap": 4, "chain_per_k": 2, "reduction_per_k": 2,
                 "verify_cases": 3},
    }

    def __init__(self, size: str, out_dir: str):
        self.params = dict(self.sizes[size])
        self.out_dir = out_dir

    def generate(self, seed: int, index: int):
        p = self.params
        gen = smplab.gen_random_instance
        half = smplab.RandomInstanceParams(valuation_kinds=("coverage", "partition_weighted"))
        half_gap = [gen(i, half) for i in range(p["half_gap"])]
        chain = []
        for k in (1, 2, 3):
            if k == 2:
                params = smplab.RandomInstanceParams(valuation_kinds=("matching_rank",))
            else:
                params = smplab.RandomInstanceParams(
                    valuation_kinds=("matroid_intersection_rank",), k_extendible=k
                )
            chain += [(k, gen(i, params)) for i in range(p["chain_per_k"])]
        reduction = []
        for k in (2, 3):
            params = smplab.RandomInstanceParams(
                valuation_kinds=("matroid_intersection_rank", "matching_rank"),
                k_extendible=k, weight_high=1 << 10,
            )
            reduction += [gen(i, params) for i in range(p["reduction_per_k"])]
        verify_seed = _rng(self.name, seed, index % self.VERIFY_SEEDS).getrandbits(31)
        return half_gap, chain, reduction, verify_seed

    def run(self, inputs) -> Outcome:
        half_gap, chain, reduction, verify_seed = inputs
        out = Outcome()
        for inst in half_gap:
            t0 = clock()
            adap = smplab.adap_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value
            alg = smplab.alg_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value
            out.latencies_s.append(clock() - t0)
            out.check("half_gap", alg >= adap / 2 - TOL)
            out.values.append((adap, alg))
        for k, inst in chain:
            t0 = clock()
            adap = smplab.adap_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value
            greedy = smplab.greedy_interleaved_exact(
                inst.tree, inst.family, inst.universe, inst.dist
            ).value
            alg = smplab.alg_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value
            out.latencies_s.append(clock() - t0)
            out.check("kext_chain", adap <= k * greedy + TOL and greedy <= 2 * alg + TOL)
            out.values.append((adap, greedy, alg))
        for inst in reduction:
            t0 = clock()
            k = inst.metadata["k"]
            rep = smplab.combined_value(
                inst.tree, inst.weights, inst.family, k, inst.universe, inst.dist
            )
            adap = smplab.adap_exact(inst.tree, inst.valuation, inst.universe, inst.dist).value
            out.latencies_s.append(clock() - t0)
            selected = sum(rep.trace["scaled_class_alg"][j] for _, j in rep.trace["selected"])
            out.check("reduction", rep.value >= selected / 4 - TOL
                      and rep.value >= adap / (32 * k * math.log2(k)) - TOL)
            out.values.append((rep.value, adap))
        out.add_work("instances_per_s", len(out.latencies_s), sum(out.latencies_s))
        status, text = _quiet_cli([
            "verify-suite", "--seed", str(verify_seed),
            "--cases", str(self.params["verify_cases"]),
            "--out", f"{self.out_dir}/verify",
        ])
        out.check("verify_suite_exit_0", status == 0)
        out.values.append(text)
        return out


class Constructions:
    """Exact evaluation of the paper's two constructions in Fraction and in
    float: few deep instances with shared prefixes and warm memos."""

    name = "constructions"
    sizes = {
        "full": {"tri_eps": Fraction(1, 4), "tree_k": 3, "tree_w": 2, "tree_p": Fraction(1, 3)},
        "tiny": {"tri_eps": Fraction(1, 3), "tree_k": 2, "tree_w": 2, "tree_p": Fraction(1, 3)},
    }

    def __init__(self, size: str, out_dir: str):
        self.params = dict(self.sizes[size])

    def generate(self, seed: int, index: int):
        # the constructions are fixed by the paper; the seed selects nothing
        p = self.params
        k, w, eps, prob = p["tree_k"], p["tree_w"], p["tri_eps"], p["tree_p"]
        return {
            arith: (smplab.gen_submodular_lb(cast(eps)), smplab.gen_tree_lb(k, w, cast(prob)))
            for arith, cast in (("fraction", Fraction), ("float", float))
        }

    def run(self, inputs) -> Outcome:
        p = self.params
        k, w = p["tree_k"], p["tree_w"]
        out = Outcome()
        got = {}
        for arith, (tri, tree) in inputs.items():
            t0 = clock()
            tri_adap = smplab.adap_exact(tri.tree, tri.valuation, tri.universe, tri.dist).value
            args = (tree.tree, tree.valuation, tree.universe, tree.dist)
            adap = smplab.adap_exact(*args).value
            alg = smplab.alg_exact(*args).value
            greedy = smplab.greedy_interleaved_exact(
                tree.tree, tree.family, tree.universe, tree.dist
            ).value
            out.add_work(f"evaluations_per_s_{arith}", 4, clock() - t0)
            out.check(f"tree_chain_{arith}", adap <= k * greedy + TOL and greedy <= 2 * alg + TOL)
            got[arith] = (tri_adap, adap, alg, greedy)
            out.values.append((arith, got[arith]))
        exact, approx = got["fraction"], got["float"]
        out.check("tri_adap_eq_recurrence",
                  exact[0] == smplab.submodular_lb_adap_recurrence(p["tri_eps"]))
        out.check("tree_adap_eq_closed_form",
                  exact[1] == smplab.tree_lb_adaptive_value(k, w, p["tree_p"]))
        out.check("float_matches_fraction",
                  all(abs(float(a) - b) <= TOL for a, b in zip(exact, approx)))
        return out


class MonteCarlo:
    """``adap_mc`` and ``alg_mc`` at one and two workers: the only workload
    where type-profile sampling and the Monte Carlo tree walk dominate."""

    name = "mc"
    sizes = {
        "full": {"tri_eps": 0.2, "tree_k": 3, "tree_w": 4, "tree_p": 0.25, "trials": 2048},
        "tiny": {"tri_eps": 0.3, "tree_k": 2, "tree_w": 2, "tree_p": 0.25, "trials": 1024},
    }
    workers = (1, 2)

    def __init__(self, size: str, out_dir: str):
        self.params = dict(self.sizes[size])

    def generate(self, seed: int, index: int):
        # every pass repeats the run's Monte Carlo seed on fresh objects, so
        # passes do identical work from a cold memo
        p = self.params
        bundles = {}
        for fn in ("adap_mc", "alg_mc"):
            for workers in self.workers:
                bundles["tri", fn, workers] = smplab.gen_submodular_lb(p["tri_eps"])
                bundles["tree", fn, workers] = smplab.gen_tree_lb(
                    p["tree_k"], p["tree_w"], p["tree_p"]
                )
        return bundles, _rng(self.name, seed).getrandbits(31)

    def run(self, inputs) -> Outcome:
        bundles, mc_seed = inputs
        p = self.params
        trials = p["trials"]
        out = Outcome()
        reports = {}
        for (inst, fn, workers), b in bundles.items():
            t0 = clock()
            rep = getattr(smplab, fn)(b.tree, b.valuation, b.universe, b.dist, trials,
                                      mc_seed, workers=workers)
            out.add_work(f"trials_per_s_w{workers}", trials, clock() - t0)
            reports[inst, fn, workers] = rep
            out.values.append((inst, fn, workers, rep.value, rep.stderr))
        for inst in ("tri", "tree"):
            for fn in ("adap_mc", "alg_mc"):
                first, second = (reports[inst, fn, w] for w in self.workers)
                out.check(f"{inst}_{fn}_workers_identical",
                          (first.value, first.stderr) == (second.value, second.stderr))
        eps, k, tp = p["tri_eps"], p["tree_k"], p["tree_p"]
        tri_adap = smplab.submodular_lb_adap_recurrence(eps)
        tree_adap = smplab.tree_lb_adaptive_value(k, p["tree_w"], tp)
        bounds = {
            ("tri", "adap_mc"): (tri_adap, tri_adap),
            ("tree", "adap_mc"): (tree_adap, tree_adap),
            # alg >= adap/2 is the submodular half-gap; alg_opt caps every
            # non-adaptive strategy
            ("tri", "alg_mc"): (tri_adap / 2, smplab.submodular_lb_alg_opt(eps)),
            # adap <= k*greedy <= 2k*alg, and no non-adaptive strategy beats 1+kp
            ("tree", "alg_mc"): (tree_adap / (2 * k), smplab.tree_lb_nonadaptive_bound(k, tp)),
        }
        for (inst, fn), (lo, hi) in bounds.items():
            rep = reports[inst, fn, 1]
            slack = MC_SIGMAS * rep.stderr
            out.check(f"{inst}_{fn}_reference", lo - slack <= rep.value <= hi + slack)
        return out


class Encoding:
    """The k=5 matroid-intersection encoding: oracle calls and the pair loop
    of ``check_encoding`` dominate, and memo growth sets the memory."""

    name = "encoding"
    sizes = {
        "full": {"k": 5, "types": 300, "set_samples": 2000, "cli_k": 3},
        "tiny": {"k": 3, "types": 20, "set_samples": 50, "cli_k": 2},
    }

    def __init__(self, size: str, out_dir: str):
        self.params = dict(self.sizes[size])
        self.out_dir = out_dir

    def generate(self, seed: int, index: int):
        p = self.params
        matroids, label_map = smplab.gen_prime_matroid_encoding(p["k"])
        # a fresh subset per pass: the pair loop's cost depends on how many
        # chosen types are ancestor-related, and a run should not rest on one
        rng = _rng(self.name, seed, index)
        chosen = rng.sample(sorted(label_map), min(p["types"], len(label_map)))
        return matroids, {t: label_map[t] for t in chosen}, rng.getrandbits(31)

    def run(self, inputs) -> Outcome:
        matroids, label_map, sample_seed = inputs
        p = self.params
        out = Outcome()
        t0 = clock()
        ok, witness = smplab.check_encoding(
            matroids, label_map, set_samples=p["set_samples"], seed=sample_seed
        )
        n = len(label_map)
        out.add_work("pairs_per_s", n * (n - 1) // 2, clock() - t0)
        out.check("encoding_subset", ok)
        out.values.append((ok, witness))
        status, text = _quiet_cli([
            "gap-matroid-encoding", "--k", str(p["cli_k"]), "--seed", str(sample_seed),
            "--samples", str(p["set_samples"]), "--out", f"{self.out_dir}/encoding",
        ])
        out.check("cli_exit_0", status == 0)
        out.check("cli_encoding_check", "[PASS] encoding_check" in text)
        out.values.append(text)
        return out


WORKLOADS = {w.name: w for w in (Sweep, Constructions, MonteCarlo, Encoding)}
