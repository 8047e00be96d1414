"""Unit and statistical tests for the k-wise independent hash families."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HashingError
from repro.hashing import HashFunction, KWiseIndependentFamily


class TestHashFunctionBasics:
    def test_output_in_range(self):
        family = KWiseIndependentFamily(domain_size=100, range_size=7)
        function = family.sample(np.random.default_rng(1))
        for value in range(100):
            assert 0 <= function(value) < 7

    def test_encode_decode_round_trip(self):
        family = KWiseIndependentFamily(domain_size=50, range_size=5)
        function = family.sample(np.random.default_rng(2))
        decoded = family.decode(function.encode())
        for value in range(50):
            assert function(value) == decoded(value)

    def test_equality_of_identical_functions(self):
        first = HashFunction((1, 2, 3), 101, 10)
        second = HashFunction((1, 2, 3), 101, 10)
        assert first == second

    def test_preimage(self):
        family = KWiseIndependentFamily(domain_size=30, range_size=3)
        function = family.sample(np.random.default_rng(3))
        bucket = function.preimage(0, range(30))
        assert all(function(x) == 0 for x in bucket)
        assert all(function(x) != 0 for x in range(30) if x not in bucket)

    def test_independence_property_exposed(self):
        family = KWiseIndependentFamily(domain_size=10, range_size=2, independence=4)
        assert family.sample().independence == 4

    def test_invalid_construction(self):
        with pytest.raises(HashingError):
            HashFunction((), 7, 3)
        with pytest.raises(HashingError):
            HashFunction((1,), 7, 0)
        with pytest.raises(HashingError):
            HashFunction((1,), 1, 3)
        with pytest.raises(HashingError):
            HashFunction((9,), 7, 3)  # coefficient outside field


class TestEncodingSize:
    def test_description_bits_formula(self):
        family = KWiseIndependentFamily(domain_size=100, range_size=10, independence=3)
        expected = 3 * math.ceil(math.log2(family.prime))
        assert family.description_bits() == expected
        assert family.sample().encoded_bits() == expected

    def test_description_is_logarithmic_in_domain(self):
        small = KWiseIndependentFamily(domain_size=64, range_size=4)
        large = KWiseIndependentFamily(domain_size=65536, range_size=4)
        # Doubling the bit-length of the domain should roughly double the
        # description, not blow it up polynomially.
        assert large.description_bits() <= 3 * small.description_bits()


class TestFamilyParameters:
    def test_prime_at_least_domain(self):
        family = KWiseIndependentFamily(domain_size=97, range_size=3)
        assert family.prime >= 97

    def test_invalid_parameters(self):
        with pytest.raises(HashingError):
            KWiseIndependentFamily(domain_size=0, range_size=3)
        with pytest.raises(HashingError):
            KWiseIndependentFamily(domain_size=5, range_size=0)
        with pytest.raises(HashingError):
            KWiseIndependentFamily(domain_size=5, range_size=2, independence=0)

    def test_decode_wrong_length_rejected(self):
        family = KWiseIndependentFamily(domain_size=10, range_size=2, independence=3)
        with pytest.raises(HashingError):
            family.decode((1, 2))

    def test_expected_bucket_load(self):
        family = KWiseIndependentFamily(domain_size=100, range_size=10)
        assert family.expected_bucket_load() == pytest.approx(10.0)

    def test_lemma1_bucket_bound(self):
        family = KWiseIndependentFamily(domain_size=102, range_size=10)
        assert family.lemma1_bucket_bound() == pytest.approx(4 * (2 + 100 / 10))

    def test_repr(self):
        family = KWiseIndependentFamily(domain_size=10, range_size=2)
        assert "KWiseIndependentFamily" in repr(family)

    def test_sample_reproducible_with_seeded_rng(self):
        family = KWiseIndependentFamily(domain_size=40, range_size=4)
        first = family.sample(np.random.default_rng(11))
        second = family.sample(np.random.default_rng(11))
        assert first == second


@pytest.mark.parametrize("prime", [131, 1009, 65537, 2**32 + 15])
@pytest.mark.parametrize("independence", [1, 3, 5])
def test_sample_draws_what_scalar_draws_would(prime, independence):
    # One integers(0, p, size=k) call per member must equal k scalar
    # integers(0, p) calls, coefficients and the generator's next draw
    # alike: seeded runs of A2 depend on it, on every supported numpy.
    family = KWiseIndependentFamily(
        domain_size=prime, range_size=7, independence=independence
    )
    assert family.prime == prime
    for seed in range(300):
        batched = np.random.default_rng(seed)
        scalar = np.random.default_rng(seed)
        function = family.sample(batched)
        assert function.coefficients == tuple(
            int(scalar.integers(0, prime)) for _ in range(independence)
        )
        assert batched.integers(0, 2**62) == scalar.integers(0, 2**62)
        assert batched.random() == scalar.random()


class TestStatisticalProperties:
    """Sampling-based checks of (approximate) uniformity and pairwise behaviour.

    These are statistical sanity checks with comfortable tolerances: they
    catch gross construction errors (e.g. a constant hash) without being
    flaky.
    """

    def test_single_value_marginal_is_roughly_uniform(self):
        family = KWiseIndependentFamily(domain_size=50, range_size=5)
        rng = np.random.default_rng(7)
        samples = 3000
        hits = sum(1 for _ in range(samples) if family.sample(rng)(17) == 0)
        expected = samples / 5
        assert abs(hits - expected) < 4 * math.sqrt(expected)

    def test_pairwise_collision_rate(self):
        family = KWiseIndependentFamily(domain_size=50, range_size=5)
        rng = np.random.default_rng(8)
        samples = 3000
        both_zero = sum(
            1
            for _ in range(samples)
            if (h := family.sample(rng))(3) == 0 and h(29) == 0
        )
        expected = samples / 25
        assert abs(both_zero - expected) < 5 * math.sqrt(expected)

    def test_triple_collision_rate(self):
        # 3-wise independence: Pr[h(x)=h(y)=h(z)=0] = 1/|Y|^3.
        family = KWiseIndependentFamily(domain_size=30, range_size=3)
        rng = np.random.default_rng(9)
        samples = 4000
        all_zero = sum(
            1
            for _ in range(samples)
            if (h := family.sample(rng))(1) == 0 and h(2) == 0 and h(3) == 0
        )
        expected = samples / 27
        assert abs(all_zero - expected) < 5 * math.sqrt(expected) + 5

    def test_exact_uniformity_over_field_without_range_reduction(self):
        # When the range size equals the prime, the polynomial output is an
        # exactly uniform field element for a uniform constant coefficient:
        # enumerate the whole family on a tiny field and count.
        domain = 5
        family = KWiseIndependentFamily(domain_size=domain, range_size=family_prime(domain), independence=2)
        prime = family.prime
        counts = {y: 0 for y in range(prime)}
        for a0 in range(prime):
            for a1 in range(prime):
                function = HashFunction((a0, a1), prime, prime)
                counts[function(3)] += 1
        assert len(set(counts.values())) == 1


def family_prime(domain: int) -> int:
    """Return the prime a family over this domain would use (helper)."""
    return KWiseIndependentFamily(domain_size=domain, range_size=2).prime


@given(
    st.integers(min_value=2, max_value=200),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_property_outputs_always_in_range(domain_size, range_size, seed):
    family = KWiseIndependentFamily(domain_size=domain_size, range_size=range_size)
    function = family.sample(np.random.default_rng(seed))
    for value in range(0, domain_size, max(1, domain_size // 10)):
        assert 0 <= function(value) < range_size


@given(st.integers(min_value=2, max_value=100), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_property_encode_decode_identity(domain_size, seed):
    family = KWiseIndependentFamily(domain_size=domain_size, range_size=4)
    function = family.sample(np.random.default_rng(seed))
    decoded = family.decode(function.encode())
    assert all(function(x) == decoded(x) for x in range(domain_size))


class TestDecodeMemoization:
    def test_same_description_decodes_to_one_shared_instance(self):
        # A2 decodes each neighbour's descriptor once per received message;
        # the family memoizes per coefficient tuple so repeated decodes are
        # dictionary hits on a shared immutable value object.
        family = KWiseIndependentFamily(domain_size=64, range_size=4)
        function = family.sample(np.random.default_rng(3))
        first = family.decode(function.encode())
        second = family.decode(list(function.encode()))
        assert first is second
        assert first == function

    def test_distinct_descriptions_stay_distinct(self):
        family = KWiseIndependentFamily(domain_size=64, range_size=4)
        rng = np.random.default_rng(4)
        one = family.sample(rng)
        other = family.sample(rng)
        assert one.coefficients != other.coefficients
        assert family.decode(one.encode()) is not family.decode(other.encode())

    def test_wrong_length_still_rejected(self):
        family = KWiseIndependentFamily(domain_size=64, range_size=4, independence=3)
        with pytest.raises(HashingError):
            family.decode((1, 2))
