"""A fixed reference computation that tells how fast this machine runs
Python code at the moment.

The sandboxes this benchmark runs in share their CPUs with other tenants,
and the speed of one process drifts by up to a factor of two over minutes.
The benchmark times this ruler between its measured units and reports its
time metrics scaled to the speed at which the ruler takes REFERENCE_S.

The ruler is nim multiplication by Karatsuba recursion over an 8-bit table,
the same kind of work as nimtower's kernels (small-int table lookups, XOR
and shifts on Python ints). It shares no code with the program under test,
so no change to the program moves it.
"""

from __future__ import annotations

import random
import statistics
import time

# Ruler time, in seconds, at the reference speed. It is near the ruler times
# of the baseline runs (2-vCPU Intel Xeon sandbox, Python 3.11.7: 0.045 to
# 0.096 s a run, mostly about 0.08 s), so scaled figures read near the times
# measured there. It only sets the scale; changing it would break comparisons
# with earlier records.
REFERENCE_S = 0.075

_MULS = 250  # 256-bit products per sample


def _table() -> list[list[int]]:
    table = [[0, 0], [0, 1]]
    half = 1
    while half < 8:
        size, mask, top = 1 << (2 * half), (1 << half) - 1, 1 << (half - 1)
        new = [[0] * size for _ in range(size)]
        for a in range(size):
            ah, al, row = a >> half, a & mask, new[a]
            for b in range(size):
                bh, bl = b >> half, b & mask
                hh, ll, mid = table[ah][bh], table[al][bl], table[ah ^ al][bh ^ bl]
                row[b] = ((mid ^ ll) << half) ^ table[hh][top] ^ ll
        table, half = new, half * 2
    return table


class Ruler:
    def __init__(self) -> None:
        self._table = _table()
        rng = random.Random(0)
        self._a, self._b = rng.getrandbits(256), rng.getrandbits(256)
        self.samples: list[float] = []

    def _mul(self, a: int, b: int, w: int) -> int:
        if w <= 8:
            return self._table[a][b]
        h = w >> 1
        m = (1 << h) - 1
        ah, al, bh, bl = a >> h, a & m, b >> h, b & m
        hh = self._mul(ah, bh, h)
        ll = self._mul(al, bl, h)
        mid = self._mul(ah ^ al, bh ^ bl, h)
        return ((mid ^ ll) << h) ^ self._mul(hh, 1 << (h - 1), h) ^ ll

    def sample(self, count: int) -> float:
        """Time `count` fixed batches of products, keep the times and return
        their median."""
        times = []
        for _ in range(count):
            x, b = self._a, self._b
            t0 = time.perf_counter()
            for _ in range(_MULS):
                x = self._mul(x, b, 256)
            times.append(time.perf_counter() - t0)
        self.samples += times
        return statistics.median(times)
