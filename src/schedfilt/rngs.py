"""Deterministic random-stream bookkeeping.

Every stochastic component draws from its own `numpy.random.Generator`,
keyed by the scenario seed plus fixed integer stream labels.  Streams are
independent by construction of `SeedSequence`, so refining the time step
consumes more diffusion draws without disturbing the mark draws, and
per-path streams make ensemble results independent of worker scheduling.

`stream` builds one generator; `streams` builds the per-path generators
of many path ids, equal to `stream`'s state for state, by running
`SeedSequence`'s hash over all the ids in one pass of array arithmetic.
`numpy.random` is imported on first use, not with the package.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

import numpy as np

from .errors import ValidationError

# Stream labels.  Keep values stable: they are part of the reproducibility
# contract for seeded runs.
PATH_DIFFUSION = 0
PATH_MARKS = 1
PARTICLES = 2
PILOT = 4
REFERENCE_OBS = 5

__all__ = [
    "PATH_DIFFUSION",
    "PATH_MARKS",
    "PARTICLES",
    "PILOT",
    "REFERENCE_OBS",
    "stream",
    "streams",
]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def stream(seed: int, *labels: int) -> np.random.Generator:
    """Return the generator for `seed` qualified by integer stream labels."""
    _check_nonnegative(seed, *labels)
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, labels)]))


def streams(seed: int, label: int, ids) -> Iterator[np.random.Generator]:
    """Yield `stream(seed, label, i)` for each i of `ids`, state for state.

    The seeding words of all ids are computed up front; the generators are
    built one at a time as the iterator is consumed, so a caller that drops
    each in turn holds one.  Values of 2**32 or more take several entropy
    words, and then every id goes through `stream`.
    """
    ids = [int(i) for i in ids]
    _check_nonnegative(seed, label, *ids)
    if max([seed, label, *ids]) > _MASK32:
        return (stream(seed, label, i) for i in ids)
    entropy = np.empty((3, len(ids)), dtype=np.uint32)
    entropy[0], entropy[1], entropy[2] = seed, label, ids
    return _generators(_pcg64_words(entropy))


def _check_nonnegative(*values: int) -> None:
    if any(v < 0 for v in values):
        raise ValidationError("seed and stream labels (path ids among them) must be nonnegative integers")


def _pcg64_words(entropy: np.ndarray) -> np.ndarray:
    """(P, 4) uint64: for each column of the (3, P) uint32 entropy block, the
    words `SeedSequence(column).generate_state(4, np.uint64)` returns, which
    is what `PCG64` seeds itself from.  The hash constants advance the same
    way for every column, so they are Python scalars across the block, which
    uint32 arithmetic takes as uint32 and wraps modulo 2**32."""
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        mult = hash_a * _MULT_A & _MASK32
        value = (value ^ hash_a) * mult
        hash_a = mult
        return value ^ (value >> 16)

    def mix(x, y):
        value = x * _MIX_MULT_L - y * _MIX_MULT_R
        return value ^ (value >> 16)

    # a pool of four words: the three entropy words, then the hash run out on 0
    pool = [hashmix(word) for word in entropy] + [hashmix(np.zeros_like(entropy[0]))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    state = np.empty((entropy.shape[1], 8), dtype=np.uint32)
    hash_b = _INIT_B
    for k in range(8):
        mult = hash_b * _MULT_B & _MASK32
        value = (pool[k % 4] ^ hash_b) * mult
        state[:, k] = value ^ (value >> 16)
        hash_b = mult
    # pairs of 32-bit words, low word first, as SeedSequence assembles them
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _generators(words: np.ndarray) -> Iterator[np.random.Generator]:
    from numpy.random import PCG64, Generator

    seeded = _seeded_class()
    for row in words:
        yield Generator(PCG64(seeded(row)))


@cache
def _seeded_class():
    """A `numpy.random.bit_generator.ISeedSequence` that hands `PCG64` words
    computed beforehand.  Defined on first use, so that importing the
    package does not import `numpy.random`."""
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self._words  # PCG64 asks for 4 uint64 words

    return Seeded
