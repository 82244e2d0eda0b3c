"""Deterministic random stream for the scenario generator.

Scenario generation must reproduce bit-identically from a seed, across
processes and across reimplementations in other languages, so it cannot
depend on any library's unspecified generator. The stream here is pinned
completely:

Core generator: splitmix64 (Steele, Lea & Flood). Per output, with all
arithmetic modulo 2^64::

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

Derived draws, each defined in terms of core outputs:

* ``uniform()``   -- top 53 bits of one output: (u64 >> 11) * 2**-53,
  a float in [0, 1).
* ``gauss()``     -- Box-Muller, trigonometric form, two uniforms per call
  (no caching of the sine branch): sqrt(-2 ln(1 - u1)) * cos(2 pi u2).
* ``poisson(r)``  -- Knuth's product-of-uniforms method; a zero or negative
  rate consumes nothing and returns 0. The method needs exp(-r) to stay a
  normal double, so callers keep r at or below ``POISSON_RATE_MAX``; above
  ~745 it underflows to 0 and the count stops following r.

Reference outputs for seed 0: 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
0x06C45D188009454F.

Implementation: the generator is counter-based, so output k (from 1) is
mix(seed + k * 0x9E3779B97F4A7C15 mod 2^64), where mix is the last three
lines above. `SplitMix64` computes outputs 4,096 at a time in numpy
``uint64`` (which wraps mod 2^64) and hands them out one per `next_u64`
call; the stream is the one-at-a-time loop above, bit for bit. Every
derived draw takes its outputs through `next_u64`, so patching that one
method sees every draw.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Largest rate at which `poisson` still follows its rate: exp(-700) ~ 1e-304
# is a normal double, while exp(-745) underflows to 0.
POISSON_RATE_MAX = 700.0

# Outputs computed per refill, and the state offsets of one block's outputs.
_BLOCK = 4096
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)


class SplitMix64:
    """The pinned 64-bit stream; see the module docstring for the contract."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64  # the state after the last computed output
        self._pending: list[int] = []  # computed, not yet drawn; next draw last

    def _refill(self) -> None:
        with np.errstate(over="ignore"):
            z = np.uint64(self._state) + _STEPS
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            z ^= z >> np.uint64(31)
        self._pending = z[::-1].tolist()
        self._state = (self._state + _BLOCK * _GAMMA) & _MASK64

    def next_u64(self) -> int:
        if not self._pending:
            self._refill()
        return self._pending.pop()

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 bits of resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def gauss(self) -> float:
        """Standard normal draw; always consumes exactly two uniforms."""
        u1 = 1.0 - self.uniform()  # in (0, 1], keeps the log finite
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def poisson(self, rate: float) -> int:
        """Poisson-distributed count with the given expected rate."""
        if rate <= 0.0:
            return 0
        threshold = math.exp(-rate)
        count = 0
        product = self.uniform()
        while product > threshold:
            count += 1
            product *= self.uniform()
        return count
