"""Ground-set model: validation, sampling determinism, exact enumeration."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from smplab import (
    ExactCapExceeded,
    RandomStream,
    TypeDistribution,
    TypeVector,
    ValidationError,
    enumerate_assignments,
    restrict,
    sample_type_vector,
    universe_from_type_space,
)
from smplab.core import iter_type_profiles, sample_type_codes, sample_type_profiles


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
        with pytest.raises(ValidationError):
            TypeDistribution({"a": {"x": 0.5, "y": 0.4}})

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
            vec = sample_type_vector(universe, dist, RandomStream(seed))
            assert vec["e"] == "t"

    def test_certain_bernoulli_always_active(self):
        universe = universe_from_type_space({"e": ("on", "off")})
        dist = TypeDistribution({"e": {"on": 1, "off": 0}})
        for counter in range(25):
            vec = sample_type_vector(universe, dist, RandomStream(3).at(counter))
            assert vec["e"] == "on"

    def test_reproducible_per_address(self):
        universe, dist = two_coin_universe()
        s = RandomStream(seed=11, stream=2, counter=5)
        assert sample_type_vector(universe, dist, s) == sample_type_vector(
            universe, dist, s
        )

    def test_counters_and_streams_decorrelate(self):
        universe, dist = two_coin_universe()
        base = RandomStream(seed=11)
        draws = [sample_type_vector(universe, dist, base.at(c)) for c in range(40)]
        assert len({tuple(sorted(d.items())) for d in draws}) > 1
        other = [
            sample_type_vector(universe, dist, RandomStream(11, stream=1, counter=c))
            for c in range(40)
        ]
        assert draws != other

    def test_block_rows_match_per_counter_draws(self):
        universe, dist = two_coin_universe()
        row = sample_type_profiles(universe, dist, RandomStream(9, counter=4), 1)[0]
        vec = sample_type_vector(universe, dist, RandomStream(9, counter=4))
        assert dict(zip(universe.elements, row)) == dict(vec.items())

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
        names = [
            tuple(universe.type_space[e][c] for e, c in zip(universe.elements, row))
            for row in codes.tolist()
        ]
        assert sample_type_profiles(universe, dist, stream, 300) == names
        assert {t for row in names for t in row} == universe.all_types

    def test_frequencies_within_three_sigma(self):
        # 2 elements x 2 types, seed 7, 1e5 draws: counts near expectation
        universe, dist = two_coin_universe()
        n = 100_000
        rows = sample_type_profiles(universe, dist, RandomStream(7), n)
        counts = {}
        for row in rows:
            for t in row:
                counts[t] = counts.get(t, 0) + 1
        for e in universe.elements:
            for t in universe.type_space[e]:
                p = dist.prob(e, t)
                sigma = math.sqrt(n * p * (1 - p))
                assert abs(counts.get(t, 0) - n * p) <= 3 * sigma


class TestEnumeration:
    def test_empty_subset(self):
        universe, dist = two_coin_universe()
        out = list(enumerate_assignments(universe, dist, set()))
        assert out == [(TypeVector({}), 1)]

    def test_single_bernoulli(self):
        universe = universe_from_type_space({"e": ("on", "off")})
        dist = TypeDistribution({"e": {"on": 0.3, "off": 0.7}})
        out = list(enumerate_assignments(universe, dist, {"e"}))
        assert [(dict(v.items()), p) for v, p in out] == [
            ({"e": "on"}, 0.3),
            ({"e": "off"}, 0.7),
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
        out = list(enumerate_assignments(universe, dist, {"a", "b", "c"}))
        assert len(out) == 12
        assert sum(p for _, p in out) == 1
        assert len({tuple(sorted(v.items())) for v, _ in out}) == 12

    def test_probabilities_sum_to_one_on_subsets(self):
        universe, dist = two_coin_universe()
        for subset in ({"a"}, {"b"}, {"a", "b"}):
            total = sum(p for _, p in enumerate_assignments(universe, dist, subset))
            assert abs(total - 1) <= 1e-9

    def test_cap_exceeded(self):
        space = {f"e{i}": (f"e{i}.x", f"e{i}.y") for i in range(21)}
        universe = universe_from_type_space(space)
        dist = TypeDistribution(
            {e: {ts[0]: 0.5, ts[1]: 0.5} for e, ts in space.items()}
        )
        with pytest.raises(ExactCapExceeded):
            list(iter_type_profiles(universe, dist, universe.elements, cap=1 << 20))

    def test_unknown_element(self):
        universe, dist = two_coin_universe()
        with pytest.raises(ValidationError):
            list(enumerate_assignments(universe, dist, {"zzz"}))


class TestRestrict:
    def test_empty(self):
        assert restrict(TypeVector({"a": "x"}), set()) == TypeVector({})

    def test_projection(self):
        vec = TypeVector({"a": "t1", "b": "t2", "c": "t3"})
        assert restrict(vec, {"a", "c"}) == TypeVector({"a": "t1", "c": "t3"})

    def test_missing_element(self):
        with pytest.raises(ValidationError):
            restrict(TypeVector({"a": "x"}), {"b"})

    @given(
        assignment=st.dictionaries(
            st.text(min_size=1, max_size=3), st.text(min_size=1, max_size=3), max_size=8
        ),
        data=st.data(),
    )
    def test_restriction_composes(self, assignment, data):
        keys = list(assignment)
        big = data.draw(st.sets(st.sampled_from(keys)) if keys else st.just(set()))
        small = data.draw(st.sets(st.sampled_from(sorted(big))) if big else st.just(set()))
        vec = TypeVector(assignment)
        assert restrict(restrict(vec, big), small) == restrict(vec, small)


def test_stream_rejects_negative_addresses():
    with pytest.raises(ValidationError):
        RandomStream(-1)
    with pytest.raises(ValidationError):
        RandomStream(1, stream=-2)
