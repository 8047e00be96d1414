"""k-wise independent hash families (Wegman–Carter construction).

Algorithm A2 of the paper (Figure 1) has every node ``i`` draw a hash
function ``h_i : V -> {0, .., ⌊n^{ε/2}⌋ - 1}`` from a *3-wise independent*
family, send a description of ``h_i`` to all its neighbours in ``O(1)``
rounds (the description is ``O(log n)`` bits, Section 2), and have each
neighbour evaluate ``h_i`` locally.

This module implements the classical Wegman–Carter construction: pick a
prime ``p >= |X|``, draw ``k`` uniform coefficients ``a_0 .. a_{k-1}`` in
GF(p), and map ``x`` to ``(a_{k-1} x^{k-1} + ... + a_0 mod p) mod |Y|``.
Restricted to inputs in ``[0, p)`` the polynomial step is exactly k-wise
independent over GF(p); the final range reduction introduces the usual
(at most ``|Y|/p``) bias, which is negligible for the parameters used here
and standard practice for this construction.  The family description is
``k`` field elements, i.e. ``k * ceil(log2 p)`` bits — this is the message
size the simulator charges when a node ships its hash function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import HashingError
from .field import eval_polynomial_mod, next_prime


@dataclass(frozen=True)
class HashFunction:
    """A single member of a k-wise independent family.

    Instances are immutable value objects: two functions with the same
    coefficients, prime and range are equal and interchangeable.  They can be
    serialised to / reconstructed from a compact tuple (see :meth:`encode`
    and :meth:`decode`) — this is what nodes actually transmit in
    Algorithm A2.
    """

    coefficients: Tuple[int, ...]
    prime: int
    range_size: int

    def __post_init__(self) -> None:
        if self.range_size < 1:
            raise HashingError(f"range_size must be positive, got {self.range_size}")
        if self.prime < 2:
            raise HashingError(f"prime must be at least 2, got {self.prime}")
        if not self.coefficients:
            raise HashingError("a hash function needs at least one coefficient")
        if any(not 0 <= c < self.prime for c in self.coefficients):
            raise HashingError("all coefficients must lie in [0, prime)")

    @property
    def independence(self) -> int:
        """The independence parameter k (the number of coefficients)."""
        return len(self.coefficients)

    def __call__(self, value: int) -> int:
        """Return ``h(value)`` in ``{0, .., range_size - 1}``."""
        return eval_polynomial_mod(self.coefficients, value % self.prime, self.prime) % self.range_size

    def preimage(self, target: int, domain: Sequence[int]) -> list[int]:
        """Return all elements of ``domain`` that hash to ``target``.

        This is the set ``H(y)`` from Lemma 1 of the paper, restricted to an
        explicit domain.
        """
        return [value for value in domain if self(value) == target]

    def encoded_bits(self) -> int:
        """Return the length in bits of the on-wire description.

        The description is the ``k`` coefficients, each ``ceil(log2 p)``
        bits, matching the ``O(k log |Y|)`` encoding cost quoted in
        Section 2 of the paper (the prime and range are public parameters
        known to every node, so they are not retransmitted).
        """
        bits_per_coefficient = max(1, math.ceil(math.log2(self.prime)))
        return self.independence * bits_per_coefficient

    def encode(self) -> Tuple[int, ...]:
        """Return the transmissible description (the coefficient tuple)."""
        return self.coefficients

    @classmethod
    def decode(
        cls, coefficients: Sequence[int], prime: int, range_size: int
    ) -> "HashFunction":
        """Reconstruct a function from its description and public parameters."""
        return cls(tuple(int(c) for c in coefficients), prime, range_size)


class KWiseIndependentFamily:
    """A k-wise independent family of hash functions from ``[0, domain_size)``.

    Parameters
    ----------
    domain_size:
        Size of the input domain ``|X|`` (the paper uses ``|X| = n``, the
        vertex set).
    range_size:
        Size of the output range ``|Y|`` (the paper uses ``⌊n^{ε/2}⌋``).
    independence:
        The independence parameter ``k`` (the paper needs ``k = 3``).
    """

    def __init__(self, domain_size: int, range_size: int, independence: int = 3) -> None:
        if domain_size < 1:
            raise HashingError(f"domain_size must be positive, got {domain_size}")
        if range_size < 1:
            raise HashingError(f"range_size must be positive, got {range_size}")
        if independence < 1:
            raise HashingError(f"independence must be positive, got {independence}")
        self._domain_size = domain_size
        self._range_size = range_size
        self._independence = independence
        # The field must be at least as large as the domain for distinct
        # domain points to remain distinct field elements.
        self._prime = next_prime(max(domain_size, range_size, 2))
        # Decoded functions memoized per coefficient tuple: in A2 every
        # receiver decodes each neighbour's descriptor, so the same
        # coefficients arrive up to deg(sender) times per run.
        self._decode_cache: dict[Tuple[int, ...], HashFunction] = {}

    @property
    def domain_size(self) -> int:
        """Size of the input domain ``|X|``."""
        return self._domain_size

    @property
    def range_size(self) -> int:
        """Size of the output range ``|Y|``."""
        return self._range_size

    @property
    def independence(self) -> int:
        """The independence parameter ``k``."""
        return self._independence

    @property
    def prime(self) -> int:
        """The field size ``p`` used by the construction."""
        return self._prime

    def sample(self, rng: Optional[np.random.Generator] = None) -> HashFunction:
        """Draw a uniformly random member of the family."""
        generator = rng if rng is not None else np.random.default_rng()
        coefficients = tuple(
            int(generator.integers(0, self._prime)) for _ in range(self._independence)
        )
        return HashFunction(coefficients, self._prime, self._range_size)

    def zero_block(
        self, coefficient_rows: np.ndarray, points: np.ndarray
    ) -> np.ndarray:
        """Vectorized bucket-zero test: ``Z[i, j] = (h_i(points[j]) == 0)``.

        ``coefficient_rows`` holds one transmitted descriptor per row (shape
        ``(functions, independence)``).  The Horner evaluation over GF(p)
        is :func:`repro.congest.backends.hash_zero_block`.  This is the
        batch form of ``h(x) == 0`` that A2's fused receivers consume.
        """
        from ..congest.backends import hash_zero_block

        rows = np.ascontiguousarray(coefficient_rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self._independence:
            raise HashingError(
                f"expected descriptor rows of {self._independence} "
                f"coefficients, got shape {rows.shape}"
            )
        return hash_zero_block(
            rows,
            np.ascontiguousarray(points, dtype=np.int64),
            self._prime,
            self._range_size,
        )

    def decode(self, coefficients: Sequence[int]) -> HashFunction:
        """Reconstruct a member of this family from its transmitted description.

        Memoized per coefficient tuple: hash functions are immutable value
        objects, so every receiver of the same descriptor shares one
        instance instead of re-validating and re-building it per message.
        """
        if len(coefficients) != self._independence:
            raise HashingError(
                f"expected {self._independence} coefficients, got {len(coefficients)}"
            )
        key = tuple(int(c) for c in coefficients)
        cached = self._decode_cache.get(key)
        if cached is None:
            cached = HashFunction.decode(key, self._prime, self._range_size)
            self._decode_cache[key] = cached
        return cached

    def description_bits(self) -> int:
        """Return the bit length of any member's on-wire description."""
        bits_per_coefficient = max(1, math.ceil(math.log2(self._prime)))
        return self._independence * bits_per_coefficient

    def expected_bucket_load(self) -> float:
        """Return ``|X| / |Y|``, the expected number of domain points per bucket.

        Lemma 1 of the paper bounds bucket sizes at ``4 (2 + (|X|-2)/|Y|)``
        with probability at least ``3 / (4 |Y|^2)`` conditioned on a
        collision; this helper exposes the unconditional mean so callers and
        tests can reason about the same quantity.
        """
        return self._domain_size / self._range_size

    def lemma1_bucket_bound(self) -> float:
        """Return the bucket-size bound ``4 (2 + (|X| - 2)/|Y|)`` from Lemma 1."""
        return 4.0 * (2.0 + max(0, self._domain_size - 2) / self._range_size)

    def __repr__(self) -> str:
        return (
            f"KWiseIndependentFamily(domain_size={self._domain_size}, "
            f"range_size={self._range_size}, independence={self._independence}, "
            f"prime={self._prime})"
        )
