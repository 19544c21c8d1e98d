"""Independent nimber-multiplication oracles.

The tower arithmetic in :mod:`nimtower.tower` is, under its bit encoding,
exactly nimber multiplication.  Two oracles of different provenance pin it
down:

* ``nim_mul_mex`` evaluates Conway's game-theoretic definition
  (minimum excludant over all simpler products) and nothing else.  It is
  exhaustive but bounded: building the memo table costs O(n^4).
* ``nim_mul_rec`` is the direct four-product split at the largest Fermat
  2-power, with no Karatsuba rearrangement and no specialized constant
  paths, so it shares no structure with the production multiply.

Both are correctness devices; speed only matters enough to keep test runs
in seconds.
"""

from __future__ import annotations

import random
import threading
from typing import TYPE_CHECKING

from .errors import LevelError, OutOfOracleRange
from .report import VerificationReport

if TYPE_CHECKING:
    import numpy as np

# Exhaustive scope of the mex oracle: covers L_2 (values < 256) in full.
MEX_ORACLE_BOUND = 256

# Highest level cross_check accepts; level-6 values are 128 bits wide and
# still cheap for the recursive oracle.
CROSS_CHECK_MAX_LEVEL = 6

_lock = threading.Lock()
_mex_table: np.ndarray | None = None
_rec_table: list[list[int]] | None = None


def _build_mex_table() -> np.ndarray:
    """Fill a*b = mex{a'*b ^ a*b' ^ a'*b'} bottom-up for all a, b < 256.

    Row/column/block slices of the partially filled table give the option
    set of each cell; commutativity halves the work.  numpy is imported
    here, not at module level, so that only mex-oracle callers load it.
    """
    import numpy as np

    n = MEX_ORACLE_BOUND
    t = np.zeros((n, n), dtype=np.uint16)
    for a in range(1, n):
        row_a = t[a]
        for b in range(1, a + 1):
            opts = t[:a, b, None] ^ row_a[None, :b] ^ t[:a, :b]
            # options are below n, so count n is 0 and argmin finds the first absent value
            mex = int(np.argmin(np.bincount(opts.ravel(), minlength=n + 1)))
            row_a[b] = mex
            t[b, a] = mex
    return t


def _mex() -> np.ndarray:
    global _mex_table
    if _mex_table is None:
        with _lock:
            if _mex_table is None:
                _mex_table = _build_mex_table()
    return _mex_table


def nim_mul_mex(a: int, b: int) -> int:
    """Nim product from Conway's mex definition (exhaustive scope < 256)."""
    if not (0 <= a < MEX_ORACLE_BOUND and 0 <= b < MEX_ORACLE_BOUND):
        raise OutOfOracleRange(
            f"mex oracle covers values below {MEX_ORACLE_BOUND}, got {a}, {b}"
        )
    return int(_mex()[a, b])


def _build_rec_table() -> list[list[int]]:
    """Memoize the four-product recursion bottom-up for all pairs < 256."""
    t = [[0, 0], [0, 1]]
    size = 2
    while size < 256:
        half_bits = size.bit_length() - 1
        half_f = size >> 1
        new_size = size * size
        new = [[0] * new_size for _ in range(new_size)]
        for a in range(new_size):
            ah, al = a >> half_bits, a & (size - 1)
            row = new[a]
            for b in range(new_size):
                bh, bl = b >> half_bits, b & (size - 1)
                hh = t[ah][bh]
                high = hh ^ t[ah][bl] ^ t[al][bh]
                row[b] = (high << half_bits) ^ t[hh][half_f] ^ t[al][bl]
        t = new
        size = new_size
    return t


def _rec_base() -> list[list[int]]:
    global _rec_table
    if _rec_table is None:
        with _lock:
            if _rec_table is None:
                _rec_table = _build_rec_table()
    return _rec_table


def nim_mul_rec(a: int, b: int) -> int:
    """Nim product by direct recursion on the Fermat 2-power split.

    For x, y below F = 2^(2^k): (xh*F + xl)(yh*F + yl) is expanded with all
    four subproducts, the F*F term folded back via F*F = F + F/2, and the
    F-coefficient placed by shifting.
    """
    if a < 2 or b < 2:
        return a * b
    if a < 256 and b < 256:
        return _rec_base()[a][b]
    bits = max(a, b).bit_length()
    half_bits = 1 << ((bits - 1).bit_length() - 1)
    mask = (1 << half_bits) - 1
    ah, al = a >> half_bits, a & mask
    bh, bl = b >> half_bits, b & mask
    hh = nim_mul_rec(ah, bh)
    high = hh ^ nim_mul_rec(ah, bl) ^ nim_mul_rec(al, bh)
    low = nim_mul_rec(hh, 1 << (half_bits - 1)) ^ nim_mul_rec(al, bl)
    return (high << half_bits) ^ low


def cross_check(level: int, samples: int = 10_000, seed: int = 0) -> VerificationReport:
    """Compare tower multiplication against the oracles.

    Exhaustive (all pairs, both oracles) for level <= 2; seeded random pairs
    against the recursive oracle for levels 3..6.  Mismatches become FAIL
    records, never exceptions.
    """
    from . import tower

    if not (-1 <= level <= CROSS_CHECK_MAX_LEVEL):
        raise LevelError(
            f"cross_check supports levels -1..{CROSS_CHECK_MAX_LEVEL}, got {level}"
        )
    report = VerificationReport()
    width = 1 << (level + 1)
    if level <= 2:
        size = 1 << width
        bad_rec = bad_mex = 0
        first = ""
        for a in range(size):
            for b in range(size):
                got = tower.mul_values(a, b, width)
                if got != nim_mul_rec(a, b):
                    bad_rec += 1
                    first = first or f"first at a={a} b={b}"
                if got != nim_mul_mex(a, b):
                    bad_mex += 1
                    first = first or f"first at a={a} b={b}"
        pairs = size * size
        report.add(
            f"oracle.l{level}.mex.exhaustive",
            bad_mex == 0,
            f"{pairs} pairs vs mex definition" + (f"; {bad_mex} mismatches, {first}" if bad_mex else ""),
        )
        report.add(
            f"oracle.l{level}.rec.exhaustive",
            bad_rec == 0,
            f"{pairs} pairs vs direct recursion" + (f"; {bad_rec} mismatches, {first}" if bad_rec else ""),
        )
        return report

    rng = random.Random(f"cross/{level}/{seed}")
    bad = 0
    first = ""
    for _ in range(samples):
        a = rng.getrandbits(width)
        b = rng.getrandbits(width)
        if tower.mul_values(a, b, width) != nim_mul_rec(a, b):
            bad += 1
            first = first or f"first at a={a:#x} b={b:#x}"
    report.add(
        f"oracle.l{level}.rec.sampled",
        bad == 0,
        f"{samples} seeded pairs vs direct recursion (seed {seed})"
        + (f"; {bad} mismatches, {first}" if bad else ""),
    )
    return report
