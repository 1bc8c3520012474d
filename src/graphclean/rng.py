"""Deterministic random number generation for the whole package.

Every stochastic choice (graph sampling, feature noise, splits, attacks,
parameter init) flows through :class:`SplitMix64`, a 64-bit counter-based
generator: the state advances by the golden-ratio increment and each output
is the avalanche mix of the new state.  The algorithm is small enough to
re-implement exactly in any language, which keeps test fixtures portable.
No global RNG is used anywhere.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z):
    """The output mix, for a Python int or elementwise for a uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream seeded with an arbitrary integer.

    Reference outputs for seed 0: 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
    0x06C45D188009454F, ...
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        """Uniform float64 in [0, 1), using the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` successive :meth:`uniform` draws, mixed at once in
        wrapping uint64 arithmetic: draw k is the mix of state + k * golden."""
        z = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN + self._state
        self._state = (self._state + count * _GOLDEN) & _MASK64
        return (_mix64(z) >> 11) * 2.0 ** -53

    def bounded(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection of the modulo tail."""
        if n <= 0:
            raise ValueError(f"bound must be positive, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_uint64()
            if x < limit:
                return x % n

    def shuffle(self, arr: np.ndarray) -> None:
        """In-place Fisher-Yates shuffle (backward sweep)."""
        for i in range(len(arr) - 1, 0, -1):
            j = self.bounded(i + 1)
            arr[i], arr[j] = arr[j], arr[i]

    def choose(self, items: np.ndarray, k: int) -> np.ndarray:
        """k distinct elements of ``items``, uniform over the k-subsets, in the
        order of ``items``.

        Floyd's algorithm (Bentley & Floyd, "A sample of brilliance", CACM
        1987): exactly k :meth:`bounded` draws and O(k) memory, however large
        ``items`` is; the items are not copied.
        """
        if not 0 <= k <= len(items):
            raise ValueError(f"cannot choose {k} items out of {len(items)}")
        ranks: set[int] = set()
        for top in range(len(items) - k, len(items)):
            r = self.bounded(top + 1)
            ranks.add(top if r in ranks else r)
        return np.asarray(items)[sorted(ranks)]


def derive_seed(base: int, *parts: int) -> int:
    """Deterministic sub-seed: fold each part into the state with the mix.

    derive_seed(s, a, b) != derive_seed(s, b, a) in general; use a fixed
    ordering of parts (e.g. repetition index, then stream id).
    """
    state = int(base) & _MASK64
    for part in parts:
        state = _mix64((state + (int(part) + 1) * _GOLDEN) & _MASK64)
    return state
