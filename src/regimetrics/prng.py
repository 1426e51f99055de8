"""Portable deterministic pseudo-random streams.

Synthetic scenarios must reproduce bit-for-bit across runs, platforms and
reimplementations in other languages, so the generator is pinned down
completely rather than delegated to a host library. The choice is PCG32
(XSH-RR output permutation on a 64-bit linear congruential state):

    state'  = state * 6364136223846793005 + increment   (mod 2**64)
    output  = rotr32(((state >> 18) ^ state) >> 27, state >> 59)

where ``increment = 2 * stream + 1`` and ``output`` is computed from the
state *before* the step. Seeding follows the reference discipline: start
from state 0, step once, add the seed, step again.

Every scenario channel draws from its own substream: channel ``c`` of a
scenario seeded with ``s`` uses ``Pcg32(seed=s, stream=c)``, so channels
can be generated independently and in any order without changing the
result.

Doubles take the top 53 bits of two consecutive 32-bit outputs:
``((hi << 21) | (lo >> 11)) / 2**53`` which lies in [0, 1) and is exact
in IEEE-754 double precision.

``Pcg32`` is the definition. ``symmetric_draws`` computes the same
draws for many streams and periods at once, with numpy.
"""

from __future__ import annotations

import numpy as np

_MULTIPLIER = 6364136223846793005
_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_TWO53 = float(1 << 53)

SEED_MAX = _MASK64

# Byte budget for the uint64 temporaries of one chunk of periods in
# ``symmetric_draws``: about six (2, streams) arrays per period. Under tracemalloc a call
# on 10,000 x 50 or 50,000 x 8 holds 1.1 MB beside its draws (4.4 and 4.5 MB at a 4 MB
# budget). On a 2-core x86 host those calls took 9.8 and 9.5 ms, against 11.2 and
# 11.0 ms at 4 MB (in process, medians of five alternating rounds of 15 calls).
_CHUNK_BYTES = 1 << 20
_BYTES_PER_PERIOD_AND_STREAM = 6 * 2 * 8


class Pcg32:
    """PCG32 stream generator with a fixed, documented seeding discipline."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int, stream: int = 0):
        if not 0 <= seed <= SEED_MAX:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if stream < 0:
            raise ValueError(f"stream must be non-negative, got {stream}")
        self._inc = ((stream << 1) | 1) & _MASK64
        self._state = 0
        self._step()
        self._state = (self._state + seed) & _MASK64
        self._step()

    def _step(self) -> None:
        self._state = (self._state * _MULTIPLIER + self._inc) & _MASK64

    def next_uint32(self) -> int:
        old = self._state
        self._step()
        xorshifted = (((old >> 18) ^ old) >> 27) & _MASK32
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))) & _MASK32

    def next_double(self) -> float:
        """Next double in [0, 1), built from 53 bits of two 32-bit draws."""
        hi = self.next_uint32()
        lo = self.next_uint32()
        return ((hi << 21) | (lo >> 11)) / _TWO53

    def next_unit_interval_symmetric(self) -> float:
        """Next double in [-1, 1)."""
        return 2.0 * self.next_double() - 1.0


def _chunk_periods(streams: int) -> int:
    """Periods per chunk of ``symmetric_draws``; depends only on the stream count."""
    return max(1, _CHUNK_BYTES // (_BYTES_PER_PERIOD_AND_STREAM * max(streams, 1)))


def symmetric_draws(seed: int, streams: int, periods: int) -> np.ndarray:
    """The [-1, 1) draws of streams ``0..streams-1`` for periods ``1..periods``.

    Entry ``[t - 1, c]`` is bit for bit the t-th
    ``Pcg32(seed, stream=c).next_unit_interval_symmetric()``. A period
    takes two LCG steps, and j steps take a state s to
    ``A**j * s + C_j * increment`` (mod 2**64), where A is the multiplier
    and ``C_j = 1 + A + ... + A**(j-1)`` (jump-ahead, Brown 1994). One
    table of ``A**j`` and ``C_j`` over a chunk of periods gives every
    state of the chunk in wrapping uint64 arithmetic, and its last entry
    advances all streams past the chunk.
    """
    if not 0 <= seed <= SEED_MAX:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    chunk = _chunk_periods(streams)
    steps = 2 * min(chunk, periods)
    powers = np.full(steps + 1, _MULTIPLIER, dtype=np.uint64)
    powers[0] = 1
    np.multiply.accumulate(powers, out=powers)
    sums = np.zeros(steps + 1, dtype=np.uint64)
    np.cumsum(powers[:-1], out=sums[1:])
    inc = np.arange(streams, dtype=np.uint64) * 2 + 1
    # Seeding as in Pcg32: state 0, step (giving inc), add the seed, step.
    state = (inc + np.uint64(seed)) * _MULTIPLIER + inc
    draws = np.empty((periods, streams))
    for start in range(0, periods, chunk):
        count = min(chunk, periods - start)
        old = powers[: 2 * count, None] * state
        old += sums[: 2 * count, None] * inc
        state = powers[2 * count] * state + sums[2 * count] * inc
        word = old >> 18
        word ^= old
        word >>= 27
        word &= _MASK32
        rot = old >> 59
        word = ((word >> rot) | (word << ((32 - rot) & 31))) & _MASK32
        bits = (word[0::2] << 21) | (word[1::2] >> 11)
        draws[start : start + count] = 2.0 * (bits / _TWO53) - 1.0
    return draws
