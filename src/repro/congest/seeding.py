"""Bulk seeding of the per-node private generators.

Every node of a simulated network owns one ``np.random.Generator``, seeded
with its own child seed exactly as ``np.random.default_rng(seed)`` would
seed it.  Building those generators one ``default_rng`` call at a time
spends most of its time in numpy's per-call SeedSequence set-up.  This
module runs SeedSequence's documented mixing over all child seeds at once
with uint32 array operations and hands each resulting state row to
numpy's own ``PCG64``, so every draw still comes from numpy's generator
and each node's stream is bit-for-bit the one ``default_rng`` gives.

It imports ``numpy.random``, so :func:`repro.congest.runtime.child_generators`
imports it on first use rather than at package import.
"""

from __future__ import annotations

from typing import List

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants (``numpy/random/bit_generator.pyx``): the
# entropy hash, the output hash and the pool-mixing multipliers.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def seed_sequence_states(seeds: np.ndarray) -> np.ndarray:
    """Return ``SeedSequence(s).generate_state(4, np.uint64)`` for every seed.

    ``seeds`` holds non-negative integers below ``2**64``.  SeedSequence
    splits such a seed into at most two little-endian uint32 words and pads
    its 4-word pool with zero words, so every seed takes the same path: hash
    the four words into the pool, mix each pool word into every other, then
    hash the pool out as eight uint32 words.  The hash constants evolve
    independently of the data, so the whole batch runs as uint32 array
    operations.  Returns one row of four uint64 words per seed.
    """
    seeds = np.asarray(seeds).astype(np.uint64)
    u32 = np.uint32
    shift = u32(16)
    mix_left = u32(_MIX_MULT_L)
    mix_right = u32(_MIX_MULT_R)
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * u32(hash_const)
        return value ^ (value >> shift)

    zero = np.zeros(seeds.shape[0], dtype=u32)
    entropy = (
        (seeds & np.uint64(_MASK32)).astype(u32),
        (seeds >> np.uint64(32)).astype(u32),
        zero,
        zero,
    )
    pool = [hashmix(word) for word in entropy]
    for source in range(4):
        for target in range(4):
            if source != target:
                mixed = mix_left * pool[target] - mix_right * hashmix(pool[source])
                pool[target] = mixed ^ (mixed >> shift)
    words = np.empty((seeds.shape[0], 8), dtype=u32)
    hash_const = _INIT_B
    for index in range(8):
        value = pool[index % 4] ^ u32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * u32(hash_const)
        words[:, index] = value ^ (value >> shift)
    return words.astype("<u4").view("<u8").astype(np.uint64)


class StateRowSeed(ISeedSequence):
    """A seed whose state is one precomputed row of :func:`seed_sequence_states`.

    ``np.random.PCG64`` asks its seed for ``generate_state(4, np.uint64)``
    once, when it is built; the row is that answer.
    """

    __slots__ = ("_row",)

    def __init__(self, row: np.ndarray) -> None:
        self._row = row

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self._row


def generators_from_states(states: np.ndarray) -> List[np.random.Generator]:
    """Build one PCG64 ``Generator`` per row of :func:`seed_sequence_states`."""
    return [np.random.Generator(np.random.PCG64(StateRowSeed(row))) for row in states]
