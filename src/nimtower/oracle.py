"""Independent nimber-multiplication oracles.

The tower arithmetic in :mod:`nimtower.tower` is, under its bit encoding,
exactly nimber multiplication.  Two oracles of different provenance pin it
down:

* ``nim_mul_mex`` reads Conway's game-theoretic definition (minimum
  excludant over all simpler products), tabulated in the package data file
  ``mex256.bin``: a*b for all a, b < 256, one byte each, entry a*256 + b,
  65536 bytes with sha256
  6c5a2b2766c7f36f30c73a6dc193f68966a4480e1f87f13dc1aaea70d44b24f1.
  ``tests/test_oracle.py::test_mex_table_regenerates_from_the_definition``
  rebuilds it from the definition and compares it byte for byte.
* ``nim_mul_rec`` is the direct four-product split at the largest Fermat
  2-power, with no Karatsuba rearrangement and no specialized constant
  paths, so it shares no structure with the production multiply.

Both are correctness devices; speed only matters enough to keep test runs
in seconds.
"""

from __future__ import annotations

import os
import random

from .errors import LevelError, OutOfOracleRange, ValidationError
from .report import VerificationReport

# Exhaustive scope of the mex oracle: covers L_2 (values < 256) in full.
MEX_ORACLE_BOUND = 256

# Highest level cross_check accepts; level-6 values are 128 bits wide and
# still cheap for the recursive oracle.
CROSS_CHECK_MAX_LEVEL = 6

_MEX_TABLE_PATH = os.path.join(os.path.dirname(__file__), "mex256.bin")
_MEX_TABLE_SHA256 = "6c5a2b2766c7f36f30c73a6dc193f68966a4480e1f87f13dc1aaea70d44b24f1"

# Both tables are pure functions, so a race only loads or builds one twice.
_mex_table: bytes | None = None
_rec_table: list[list[int]] | None = None


def _load_mex_table() -> bytes:
    """The checked-in mex table; ValidationError if it cannot be read or is
    not the pinned 65536 bytes."""
    import hashlib

    try:
        with open(_MEX_TABLE_PATH, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read mex table {_MEX_TABLE_PATH}: {exc}") from None
    if len(data) != MEX_ORACLE_BOUND**2 or hashlib.sha256(data).hexdigest() != _MEX_TABLE_SHA256:
        raise ValidationError(f"mex table {_MEX_TABLE_PATH} has the wrong length or sha256")
    return data


def nim_mul_mex(a: int, b: int) -> int:
    """Nim product from Conway's mex definition (exhaustive scope < 256)."""
    global _mex_table
    if not (0 <= a < MEX_ORACLE_BOUND and 0 <= b < MEX_ORACLE_BOUND):
        raise OutOfOracleRange(f"mex oracle covers values below {MEX_ORACLE_BOUND}, got {a}, {b}")
    if _mex_table is None:
        _mex_table = _load_mex_table()
    return _mex_table[a * MEX_ORACLE_BOUND + b]


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
                got = tower._mul(a, b, width)
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
        if tower._mul(a, b, width) != nim_mul_rec(a, b):
            bad += 1
            first = first or f"first at a={a:#x} b={b:#x}"
    report.add(
        f"oracle.l{level}.rec.sampled",
        bad == 0,
        f"{samples} seeded pairs vs direct recursion (seed {seed})"
        + (f"; {bad} mismatches, {first}" if bad else ""),
    )
    return report
