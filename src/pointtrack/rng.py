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
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Largest rate at which `poisson` still follows its rate: exp(-700) ~ 1e-304
# is a normal double, while exp(-745) underflows to 0.
POISSON_RATE_MAX = 700.0


class SplitMix64:
    """The pinned 64-bit stream; see the module docstring for the contract."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

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
