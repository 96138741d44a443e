"""Deterministic seeded randomness used by every generator in the package.

The core generator is SplitMix64: state advances by the 64-bit golden-ratio
constant and each output is a finalized mix of the new state.  The algorithm
is fully specified by the two multiply-xorshift rounds below, so any language
can reproduce the streams bit-for-bit from the same 64-bit seed.  Substreams
are derived by seeding a fresh generator with ``mix64(seed ^ mix64(tag))``.

``SplitMix64.bernoulli_bytes`` makes many Bernoulli draws at once, with the
same outputs and final state as one ``bernoulli`` call per draw.  Up to
``BLOCK`` consecutive states sit in one Python int as 128-bit lanes, draw i
in lane i; both multiply-xorshift rounds run on the whole int with every
lane masked to 64 bits, so a 64x64-bit product stays inside its lane.  The
test ``random() < p`` is the integer test ``u64() < ceil(p * 2**53) * 2**11``,
read off each lane as the borrow into bit 64 of a subtraction.

``SplitMix64.randrange_many`` makes many ``randrange(n)`` draws at once
from the same lanes, with the same values and final state as one call per
draw.  Each block's outputs are read as 64-bit words; those at or above the
rejection threshold (the largest multiple of n up to 2^64) are dropped and
the rest reduced mod n.  Only the shortfall is then drawn, so no output
past the last kept one is ever drawn.  When n divides 2^64 nothing is
rejected, and the reduction masks every lane of the block at once.
"""

from __future__ import annotations

import math
import sys

_RANGE = 1 << 64
_MASK64 = _RANGE - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Lanes per block of the block draws, and the per-lane constants of a full
# block (lane i of _ONES is 1, of _STEPS (i + 1) golden-ratio steps, the
# offset of draw i from the state); a shorter block uses their low lanes.
BLOCK = 1024
_ONES = int.from_bytes((b"\x01" + bytes(15)) * BLOCK, "little")
_STEPS = int.from_bytes(b"".join(
    i.to_bytes(16, "little") for i in range(1, BLOCK + 1)),
    "little") * _GOLDEN & _MASK64 * _ONES
# 2^64 - 1 with bits 97-127 set: for t <= 2^64 and a draw z below 2^64,
# with at most 31 bits of the next lane shifted in above bit 96,
# _BORROW + t - z takes no borrow from the next lane and has bit 64 set
# iff z < t.
_BORROW = (1 << 128) - (1 << 97) + _MASK64


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective 64-bit mixing function."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _threshold(p: float) -> int:
    """t with (u64() < t) == (random() < p) for every 64-bit output: the
    float (u >> 11) * 2^-53 is below p iff u >> 11 < ceil(p * 2^53), and
    p * 2^53 is exact for p in (0, 1)."""
    if not p > 0:  # NaN too: random() < NaN is False
        return 0
    if p >= 1:
        return 1 << 64
    return math.ceil(p * 2.0 ** 53) << 11


def _mixed_blocks(state: int, count: int):
    """Yield ``(lanes, ones, zs)`` over the count draws after state: once
    for the full blocks of ``BLOCK`` draws, then once for the short block
    left over.  ones has a 1 in each of the lanes 128-bit lanes, and zs
    yields one int per block, draw i's output in bits 128i to 128i + 63
    (bits 97 to 127 of each lane hold bits shifted down from the next lane)."""
    full, rest = divmod(count, BLOCK)
    for lanes, blocks in ((BLOCK, full), (rest, 1 if rest else 0)):
        if blocks:
            ones, steps = _ONES, _STEPS
            if lanes < BLOCK:
                low = (1 << 128 * lanes) - 1
                ones, steps = ones & low, steps & low
            yield lanes, ones, _mix_lanes(state * ones + steps, ones,
                                          lanes * _GOLDEN, blocks)
            state = (state + blocks * lanes * _GOLDEN) & _MASK64


def _mix_lanes(x: int, ones: int, step: int, blocks: int):
    """Yield the outputs of the states in the lanes of x, then of those
    states each advanced by step, and so on, blocks times: both
    multiply-xorshift rounds run on every lane at once."""
    mask = _MASK64 * ones
    stride = (step & _MASK64) * ones
    x &= mask
    for _ in range(blocks):
        z = ((x ^ (x >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        yield z ^ (z >> 31)
        x = (x + stride) & mask


def _lane_words(lanes: int, z: int) -> memoryview:
    """The lanes 64-bit outputs held in z, in draw order.  In native byte
    order each 128-bit lane is two words, the output and a word no output
    uses: the output comes first on a little-endian host, and on a
    big-endian one the lanes come last to first, each output second."""
    words = memoryview(z.to_bytes(16 * lanes, sys.byteorder)).cast("Q")
    return words[::2] if sys.byteorder == "little" else words[::-2]


def _range_threshold(n: int) -> int:
    """Largest multiple of n up to 2^64: ``randrange(n)`` keeps an output
    below it, reduced mod n, and draws again otherwise.  Above 2^64 there
    is no such multiple, and no output would ever be kept."""
    if not 1 <= n <= _RANGE:
        raise ValueError("randrange needs 1 <= n <= 2^64")
    return _RANGE - _RANGE % n


class SplitMix64:
    """Counter-based 64-bit generator with helpers for sampling tasks."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.u64() >> 11) * (2.0 ** -53)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        threshold = _range_threshold(n)
        while True:
            r = self.u64()
            if r < threshold:
                return r % n

    def bernoulli(self, p: float) -> bool:
        return self.random() < p

    def _skip(self, count: int) -> int:
        """Advance past the next count draws; return the state before them."""
        state = self._state
        self._state = (state + count * _GOLDEN) & _MASK64
        return state

    def bernoulli_bytes(self, count: int, p: float) -> bytes:
        """``bytes(self.bernoulli(p) for _ in range(count))``, with the same
        final state, drawn ``BLOCK`` at a time; when every draw has one
        outcome (p <= 0, p >= 1 or NaN), the state only advances."""
        count = max(count, 0)
        threshold = _threshold(p)
        if threshold in (0, _RANGE):  # p <= 0 or NaN, or p >= 1
            self._skip(count)
            return bytes([threshold == _RANGE]) * count
        # Lane i of bound - z has bit 64 set iff z_i < t.
        unit = _BORROW + threshold
        out = []
        for lanes, ones, zs in _mixed_blocks(self._skip(count), count):
            bound = unit * ones
            out += [(bound - z).to_bytes(16 * lanes, "little")[8::16]
                    for z in zs]
        return b"".join(out)

    def randrange_many(self, n: int, count: int) -> list[int]:
        """``[self.randrange(n) for _ in range(count)]``, with the same
        final state, drawn ``BLOCK`` at a time: the outputs at or above
        the rejection threshold are dropped, and only the shortfall is
        drawn again, so no output past the last kept one is drawn."""
        threshold = _range_threshold(n)
        out: list[int] = []
        while len(out) < count:
            need = count - len(out)
            for lanes, ones, zs in _mixed_blocks(self._skip(need), need):
                if threshold == _RANGE:
                    # n divides 2^64: no output is rejected, and r % n is
                    # the low bits of r, masked in every lane at once.
                    low = (n - 1) * ones
                    for z in zs:
                        out += _lane_words(lanes, z & low).tolist()
                else:
                    for z in zs:
                        out += [r % n for r in _lane_words(lanes, z).tolist()
                                if r < threshold]
        return out

    def sample_range(self, n: int, k: int) -> list[int]:
        """k distinct integers from [0, n), in selection order."""
        if k > n:
            raise ValueError("cannot sample more elements than the population")
        # Partial Fisher-Yates over a sparse array.
        swapped: dict[int, int] = {}
        out = []
        for i in range(k):
            j = i + self.randrange(n - i)
            vi = swapped.get(i, i)
            vj = swapped.get(j, j)
            out.append(vj)
            swapped[j] = vi
        return out

    def spawn(self, tag: int) -> "SplitMix64":
        """Independent substream keyed by an integer tag."""
        return SplitMix64(mix64(self._state ^ mix64(tag & _MASK64)))


def stream(seed: int, *tags: int) -> SplitMix64:
    """Generator for (seed, tags...): the canonical substream derivation."""
    g = SplitMix64(mix64(seed & _MASK64))
    for t in tags:
        g = g.spawn(t)
    return g
