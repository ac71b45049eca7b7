"""Ground-set model: validation, sampling determinism, exact enumeration."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from smplab import (
    RandomStream,
    TypeDistribution,
    ValidationError,
    universe_from_type_space,
)
from smplab.core import _type_codes, _type_thresholds, iter_type_profiles
from oracles import sample_type_codes


def two_coin_universe():
    universe = universe_from_type_space({"a": ("a.h", "a.t"), "b": ("b.h", "b.t")})
    dist = TypeDistribution(
        {"a": {"a.h": 0.3, "a.t": 0.7}, "b": {"b.h": 0.5, "b.t": 0.5}}
    )
    return universe, dist


class TestValidation:
    def test_duplicate_elements(self):
        from smplab import Universe

        with pytest.raises(ValidationError):
            Universe(("a", "a"), {"a": ("t",)})

    def test_empty_universe_is_valid(self):
        assert len(universe_from_type_space({})) == 0

    def test_duplicate_types_across_elements(self):
        with pytest.raises(ValidationError):
            universe_from_type_space({"a": ("t",), "b": ("t",)})

    def test_element_without_types(self):
        with pytest.raises(ValidationError):
            universe_from_type_space({"a": ()})

    def test_distribution_must_sum_to_one(self):
        # a row of ints and Fractions exactly; one holding a float within 1e-12
        short = Fraction(1, 2) - Fraction(1, 10**13)
        for row in ({"x": 0.5, "y": 0.4}, {"x": Fraction(1, 2), "y": short}):
            with pytest.raises(ValidationError, match="sum to"):
                TypeDistribution({"a": row})
        TypeDistribution({"a": {"x": 0.5, "y": short}, "b": {"u": 0, "v": 1}})

    def test_distribution_range(self):
        with pytest.raises(ValidationError):
            TypeDistribution({"a": {"x": -0.1, "y": 1.1}})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_distribution_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="probability of type 'x'.*not a finite"):
            TypeDistribution({"a": {"x": bad, "y": 1.0}})

    def test_fraction_distribution_exact(self):
        dist = TypeDistribution({"a": {"x": Fraction(1, 3), "y": Fraction(2, 3)}})
        assert dist.prob("a", "x") == Fraction(1, 3)

    def test_validate_against_mismatch(self):
        universe, _ = two_coin_universe()
        dist = TypeDistribution({"a": {"a.h": 1}})
        with pytest.raises(ValidationError):
            dist.validate_against(universe)


class TestSampling:
    def test_single_type_deterministic(self):
        universe = universe_from_type_space({"e": ("t",)})
        dist = TypeDistribution({"e": {"t": 1}})
        for seed in (0, 7, 123):
            codes = sample_type_codes(universe, dist, RandomStream(seed), 5)
            assert codes.tolist() == [[0]] * 5

    def test_certain_bernoulli_always_active(self):
        universe = universe_from_type_space({"e": ("on", "off")})
        dist = TypeDistribution({"e": {"on": 1, "off": 0}})
        for counter in range(25):
            codes = sample_type_codes(universe, dist, RandomStream(3, counter=counter), 4)
            assert codes.tolist() == [[0]] * 4

    def test_reproducible_per_address(self):
        universe, dist = two_coin_universe()
        s = RandomStream(seed=11, stream=2, counter=5)
        first = sample_type_codes(universe, dist, s, 50)
        assert np.array_equal(first, sample_type_codes(universe, dist, s, 50))

    def test_counters_and_streams_decorrelate(self):
        universe, dist = two_coin_universe()

        def draws(stream):
            return [
                tuple(sample_type_codes(universe, dist, RandomStream(11, stream, c), 1)[0])
                for c in range(40)
            ]

        base = draws(0)
        assert len(set(base)) > 1
        assert base != draws(1)

    def test_codes_match_per_column_search(self):
        # b and c share a probability vector, a and d have their own
        universe = universe_from_type_space(
            {
                "a": ("a0", "a1", "a2"),
                "b": ("b0", "b1"),
                "c": ("c0", "c1"),
                "d": ("d0", "d1"),
            }
        )
        dist = TypeDistribution(
            {
                "a": {"a0": 0.2, "a1": 0.3, "a2": 0.5},
                "b": {"b0": 0.6, "b1": 0.4},
                "c": {"c0": 0.6, "c1": 0.4},
                "d": {"d0": 0.1, "d1": 0.9},
            }
        )
        stream = RandomStream(5, stream=1, counter=3)
        codes = sample_type_codes(universe, dist, stream, 300)
        u = stream.generator().random((300, 4))
        for j, e in enumerate(universe.elements):
            cum = np.cumsum([dist.prob(e, t) for t in universe.type_space[e]])
            want = np.minimum(np.searchsorted(cum, u[:, j], side="right"), len(cum) - 1)
            assert codes[:, j].tolist() == want.tolist()
        drawn = {
            universe.type_space[e][c]
            for row in codes.tolist()
            for e, c in zip(universe.elements, row)
        }
        assert drawn == universe.all_types

    def test_codes_clip_a_running_sum_below_one(self):
        # r's float running sum ends at the largest double below 1.0, so a
        # draw there is past every entry and takes the last code
        universe = universe_from_type_space({"r": ("r0", "r1", "r2")})
        dist = TypeDistribution({"r": {"r0": 0.7, "r1": 0.2, "r2": 0.1}})
        cum = np.cumsum([0.7, 0.2, 0.1])
        assert cum[-1] == np.nextafter(1.0, 0.0)
        u = np.array([[0.0], [0.7], [0.8999999999999999], [cum[-1]]])
        want = np.minimum(np.searchsorted(cum, u[:, 0], side="right"), len(cum) - 1)
        got = _type_codes(u, _type_thresholds(universe, dist, universe.elements))
        assert got[:, 0].tolist() == want.tolist() == [0, 1, 2, 2]

    def test_frequencies_within_three_sigma(self):
        # 2 elements x 2 types, seed 7, 1e5 draws: counts near expectation
        universe, dist = two_coin_universe()
        n = 100_000
        codes = sample_type_codes(universe, dist, RandomStream(7), n)
        for j, e in enumerate(universe.elements):
            counts = np.bincount(codes[:, j], minlength=len(universe.type_space[e]))
            for t, count in zip(universe.type_space[e], counts.tolist()):
                p = dist.prob(e, t)
                sigma = math.sqrt(n * p * (1 - p))
                assert abs(count - n * p) <= 3 * sigma


class TestEnumeration:
    def test_empty_subset(self):
        universe, dist = two_coin_universe()
        assert list(iter_type_profiles(universe, dist, ())) == [((), 1)]

    def test_single_bernoulli(self):
        universe = universe_from_type_space({"e": ("on", "off")})
        dist = TypeDistribution({"e": {"on": 0.3, "off": 0.7}})
        assert list(iter_type_profiles(universe, dist, ("e",))) == [
            (("on",), 0.3),
            (("off",), 0.7),
        ]

    def test_product_2_2_3(self):
        universe = universe_from_type_space(
            {"a": ("a1", "a2"), "b": ("b1", "b2"), "c": ("c1", "c2", "c3")}
        )
        dist = TypeDistribution(
            {
                "a": {"a1": Fraction(1, 4), "a2": Fraction(3, 4)},
                "b": {"b1": Fraction(1, 2), "b2": Fraction(1, 2)},
                "c": {"c1": Fraction(1, 6), "c2": Fraction(1, 3), "c3": Fraction(1, 2)},
            }
        )
        out = list(iter_type_profiles(universe, dist, ("c", "a", "b")))
        # the given element order, each element's types in type-space order
        spaces = [universe.type_space[e] for e in ("c", "a", "b")]
        assert [combo for combo, _ in out] == list(itertools.product(*spaces))
        for combo, p in out:
            assert p == math.prod(
                dist.prob(e, t) for e, t in zip(("c", "a", "b"), combo)
            )
        assert sum(p for _, p in out) == 1

    def test_probabilities_sum_to_one_on_subsets(self):
        universe, dist = two_coin_universe()
        for subset in (("a",), ("b",), ("a", "b")):
            total = sum(p for _, p in iter_type_profiles(universe, dist, subset))
            assert abs(total - 1) <= 1e-9

    def test_unknown_element(self):
        universe, dist = two_coin_universe()
        with pytest.raises(KeyError, match="zzz"):
            list(iter_type_profiles(universe, dist, ("zzz",)))


def test_stream_rejects_negative_addresses():
    with pytest.raises(ValidationError):
        RandomStream(-1)
    with pytest.raises(ValidationError):
        RandomStream(1, stream=-2)


@pytest.mark.parametrize("address", [(True,), (1, True), (1, 0, False)])
def test_stream_rejects_bool_addresses(address):
    with pytest.raises(ValidationError, match="must be a non-negative integer"):
        RandomStream(*address)
