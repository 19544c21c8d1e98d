"""Elements and field arithmetic for the recursive tower of binary fields.

Level i holds 2^(2^(i+1)) elements.  An element is a bit vector of
coefficients over the monomial basis: bit m stands for the product of the
generators c_j over the 1-bits j of m, so bit 0 is the constant 1, bit 2^k
is c_k, and bit 2^(k+1)-1 is the top monomial a_k = c_0*...*c_k.  Read as
an unsigned integer, the coefficient vector is exactly the element's nimber
value (c_k corresponds to 2^(2^k)), which is what lets the independent
nimber oracles check this module bit for bit.

The defining relation c_k^2 = c_k + a_{k-1} drives every kernel below.
Writing x = xh*c_k + xl with xh, xl in the half-width field:

    x*y      = ((xh+xl)(yh+yl) + xl*yl)*c_k + (xh*yh*a_{k-1} + xl*yl)
    x^2      = (xh^2)*c_k + (xh^2*a_{k-1} + xl^2)
    conj(x)  = xh*c_k + (xl + xh)            # x^(2^(2^k)), fixes the subfield
    norm(x)  = x*conj(x) = xh^2*a_{k-1} + xh*xl + xl^2   # lands in the subfield

Multiplication is the Karatsuba form (three half-width products plus one
multiply-by-a_{k-1}); inversion is conj(x) * norm(x)^-1 recursively.  The
kernels work on plain ints keyed by width in bits; the TowerElement class
is a thin immutable wrapper that adds level bookkeeping.

Base cases: log/antilog tables of the 65536-element field (width 16), and
its maps "times a_3" (A) and "squared", serve every width up to 16, each
smaller field being a subfield with the same values: arrays of 16-bit
entries (0.65 MB in all), which stay in cache under random reads.  They are
package data, leaf16.bin, read at import straight into the arrays and
refused unless the file has the pinned length and CRC-32; the antilog
table is generated by c3*c0 (value 0x200) and doubled, so a sum of two
logs needs no reduction.  tests/test_tower.py regenerates the file byte for
byte from the recursive nimber oracle, with the full-order certificate of
c3*c0.  Squaring and _mul_top (times the top monomial) are F2-linear at
every width too, so from 32 to 256 bits each is one byte-sliced table:
slice k holds the images of the 256 values of byte k, and a value maps to
the XOR of one entry per byte; _build_slices makes them at import from the
half width's, and above 256 bits both kernels recurse down to the tables.
No table changes after import, so the kernels need no lock.  _mul is
straight-line code at 64 bits (two Karatsuba levels: nine log products, A
read from its table), and a Karatsuba step at 32, 128 and 256 bits.

From _WIDE_BITS = 512 to _WIDE_MAX_BITS = 16384 bits, products take one
wide path, which folds the top-multiply into a fixed factor.  In x*y the
term xh*yh*a_{k-1} is xh*top(yh), so _prepare sweeps y down breadth-first
once, each block becoming (top(yh), yl, yh+yl), to its 3^d 8-bit leaves,
kept as logs.  _mul_prepared then sweeps x down as (xh, xl, xh+xl), forms
all leaf products in L_2 at once with bytes.translate through 8-bit log and
antilog tables (read off the 16-bit ones at import: g^257 generates L_2*)
and one big-int add, and joins each triple (P1, P2, P3) on the way up as
high P3+P2, low P1+P2, with no top-multiply anywhere.  _mul prepares its
second factor; _powers prepares a^2 and its window powers once and reuses
them for each exponent it is given, which is where the path pays: in a
chain x <- x*b at 1024 bits a prepared multiply took 0.09-0.14 ms, the
recursion 0.50-0.57 ms (shared 2-vCPU machine).  Below 512 bits preparing costs more than it saves;
above 16384 the leaves would take megabytes, so _mul recurses down to it.

Every square and top-multiply of width 32 and up, and every product of
width 32 or of 128 and up whose factors both reach above the half width,
passes through the one line of _mul_top that returns A at width 16: the
slice tables are built through it, the 32-bit Karatsuba step calls it on
its high product, and _prepare top-multiplies blocks of 128 bits and up
with _mul_top.  perfbench's corruption self-test edits that line and
expects every workload to notice.  Powers in L_3 and below read
only the log tables, so they never pass that line; an exhaustive test of
the L_2 powers against the nimber oracle guards them instead.  Each kernel
tests the table widths first, so calls at levels <= 3 dispatch at once.

Levels run from -1 to MAX_LEVEL; width_of, generator and TowerElement
refuse any other level before allocating anything of its size.
"""

from __future__ import annotations

import os
import sys
import zlib
from array import array
from functools import reduce
from math import gcd
from operator import getitem, itemgetter, xor

from .errors import (
    LevelError,
    LevelMismatch,
    NotInField,
    ParseError,
    ValidationError,
    ZeroInverse,
    ZeroToZero,
)
from .value import Value

# Width of the log/antilog field.  Fixed: the table file and the
# straight-line width-64 product split values into 16-bit pieces.
LOG_TABLE_BITS = 16
# Highest level accepted anywhere: widths, generators, elements, and (via
# fermat.fermat_number) the Fermat numbers N_j, j <= MAX_LEVEL + 1, that
# expressions and factor files may name.  A level-20 element and N_21 each
# take 2^21 bits (256 KiB); the paper's claims, the tests and the reports
# use levels up to 13.  The ceiling bounds the size of a value, not the
# time to compute with it: a multiply costs about 3x per level.  On a
# shared 2-vCPU machine one random level-15 multiply took 0.29 s, and a
# level-20 one 258 s before the wide product path.
MAX_LEVEL = 20
# Byte-slice tables of (_square, _mul_top) by width, 32.._SLICE_MAX_BITS,
# filled at import below _build_slices.  Wider tables cost megabytes and
# measured no faster: with the width-16 tables as arrays, 512-bit slices
# ran `verify all --max-level 9` in 0.343 s against 0.312 s for 256 (median
# of 12 alternating runs each, shared 2-vCPU machine).
_SLICE_MAX_BITS = 256
_SLICES: dict[int, tuple[list[list[int]], list[list[int]]]] = {}


def _span(images: list[int]) -> list[int]:
    """Table of the F2-linear map with basis images `images`: entry x is
    the XOR of images[k] over the 1-bits k of x."""
    table = [0]
    for image in images:
        table += [t ^ image for t in table]
    return table


# leaf16.bin holds _EXP16 (g^i for i < 2*65535, g = c3*c0), _LOG16 (entry
# 0 unused, 0), _MUL_TOP16 and _SQ16, in that order, each as little-endian
# 16-bit entries: 655356 bytes.  CRC-32 and not sha256: hashlib would load
# OpenSSL into every import for a check that guards against damage only.
_LEAF16_PATH = os.path.join(os.path.dirname(__file__), "leaf16.bin")
_LEAF16_CRC32 = 0xFDAEE17E


def _load_leaf16() -> tuple[array, array, array, array]:
    """The width-16 tables, read from leaf16.bin straight into their arrays;
    ValidationError if the file cannot be read or is not the pinned bytes."""
    tables = tuple(array("H", [0]) * n for n in (2 * 65535, 65536, 65536, 65536))
    try:
        with open(_LEAF16_PATH, "rb") as fh:
            sizes = [fh.readinto(table) for table in tables]
            extra = fh.read(1)
    except OSError as exc:
        raise ValidationError(f"cannot read width-16 tables {_LEAF16_PATH}: {exc}") from None
    crc = 0
    for table in tables:
        crc = zlib.crc32(table, crc)
    if sizes != [2 * len(table) for table in tables] or extra or crc != _LEAF16_CRC32:
        raise ValidationError(f"width-16 tables {_LEAF16_PATH} have the wrong length or crc32")
    if sys.byteorder == "big":
        for table in tables:
            table.byteswap()
    return tables


_EXP16, _LOG16, _MUL_TOP16, _SQ16 = _load_leaf16()


def leaf_order(v: int) -> int:
    """Order of nonzero v < 2^16 in L_3, whose log-table generator c3*c0 has order 65535."""
    return 65535 // gcd(_LOG16[v], 65535)


# ---------------------------------------------------------------------------
# Int kernels.  All take values below 2**w for a power-of-two width w.


def _mul(a: int, b: int, w: int) -> int:
    if w <= 16:
        return _EXP16[_LOG16[a] + _LOG16[b]] if a and b else 0
    if w == 64:
        # The width-32 products hi = (h1, h0), lo = (l1, l0) and
        # mid + lo = (m1, m0) of the halves, each a Karatsuba step of three
        # log products with A = t; then (mid + lo)*2^32 + hi*a_4 + lo, where
        # hi*a_4 is (A(h1 + h0), A(A(h1))) by the top-multiply split.
        exp, log, t = _EXP16, _LOG16, _MUL_TOP16
        a3, a2, a1, a0 = a >> 48, (a >> 32) & 0xFFFF, (a >> 16) & 0xFFFF, a & 0xFFFF
        b3, b2, b1, b0 = b >> 48, (b >> 32) & 0xFFFF, (b >> 16) & 0xFFFF, b & 0xFFFF
        p = exp[log[a3] + log[b3]] if a3 and b3 else 0
        q = exp[log[a2] + log[b2]] if a2 and b2 else 0
        x, y = a3 ^ a2, b3 ^ b2
        r = exp[log[x] + log[y]] if x and y else 0
        h1, h0 = r ^ q, t[p] ^ q
        p = exp[log[a1] + log[b1]] if a1 and b1 else 0
        q = exp[log[a0] + log[b0]] if a0 and b0 else 0
        x, y = a1 ^ a0, b1 ^ b0
        r = exp[log[x] + log[y]] if x and y else 0
        l1, l0 = r ^ q, t[p] ^ q
        a3, a2, b3, b2 = a3 ^ a1, a2 ^ a0, b3 ^ b1, b2 ^ b0
        p = exp[log[a3] + log[b3]] if a3 and b3 else 0
        q = exp[log[a2] + log[b2]] if a2 and b2 else 0
        x, y = a3 ^ a2, b3 ^ b2
        r = exp[log[x] + log[y]] if x and y else 0
        m1, m0 = r ^ q ^ l1, t[p] ^ q ^ l0
        return (m1 << 48) ^ (m0 << 32) ^ ((t[h1 ^ h0] ^ l1) << 16) ^ t[t[h1]] ^ l0
    if a < 2 or b < 2:
        return a * b
    half = w >> 1
    mask = (1 << half) - 1
    ah, al = a >> half, a & mask
    bh, bl = b >> half, b & mask
    if ah == 0 or bh == 0:  # one factor s in the half-width field: s*(th*c + tl)
        s, th = (al, bh) if ah == 0 else (bl, ah)
        return (_mul(s, th, half) << half) ^ _mul(al, bl, half)
    if _WIDE_BITS <= w <= _WIDE_MAX_BITS:
        return _mul_prepared(a, _prepare(b, w), w)
    hh = _mul(ah, bh, half)
    ll = _mul(al, bl, half)
    mid = _mul(ah ^ al, bh ^ bl, half)
    return ((mid ^ ll) << half) ^ _mul_top(hh, half) ^ ll


def _mul_top(x: int, w: int) -> int:
    """Multiply x by the top monomial of the width-w field (value 2^(w-1))."""
    if w == 16:
        return _MUL_TOP16[x]
    if w < 16:
        return _mul(x, 1 << (w - 1), w)
    if w <= _SLICE_MAX_BITS:
        slices = _SLICES[w][1]
        return reduce(xor, map(getitem, slices, x.to_bytes(w >> 3, "little")))
    half = w >> 1
    xh = x >> half
    xl = x & ((1 << half) - 1)
    if xh == 0:
        return _mul_top(xl, half) << half
    return (_mul_top(xh ^ xl, half) << half) ^ _mul_top(_mul_top(xh, half), half)


def _square(a: int, w: int) -> int:
    if w <= 16:
        return _SQ16[a]
    if w <= _SLICE_MAX_BITS:
        slices = _SLICES[w][0]
        return reduce(xor, map(getitem, slices, a.to_bytes(w >> 3, "little")))
    half = w >> 1
    ah = a >> half
    if ah == 0:
        return _square(a, half)
    hh = _square(ah, half)
    return (hh << half) ^ _mul_top(hh, half) ^ _square(a & ((1 << half) - 1), half)


def _build_slices() -> None:
    """Fill _SLICES, narrowest first, each slice the span of 8 basis images.
    By the half-width split, bit j < w/2 keeps its half-width image s (times
    the top: s << w/2), and bit j + w/2 gets (s << w/2) ^ _mul_top(s, w/2).
    So the square slices of the low bytes are the half width's, shared."""
    sq, top = [_SQ16[1 << j] for j in range(16)], [_mul_top(1 << j, 16) for j in range(16)]
    half = 16
    while half < _SLICE_MAX_BITS:
        low = _SLICES[half][0] if half in _SLICES else []
        sq = sq + [(s << half) ^ _mul_top(s, half) for s in sq]
        top = [t << half for t in top] + [(t << half) ^ _mul_top(t, half) for t in top]
        half <<= 1
        _SLICES[half] = (
            low + [_span(sq[k:k + 8]) for k in range(8 * len(low), half, 8)],
            [_span(top[k:k + 8]) for k in range(0, half, 8)],
        )


_build_slices()


# ---------------------------------------------------------------------------
# The wide product (see the module docstring).  A prepared factor has 3^d
# leaves at width 8*2^d: 3^11 take 0.35 MB as lanes at _WIDE_MAX_BITS.
_WIDE_BITS = 512
_WIDE_MAX_BITS = 1 << 14


def _build_tables8() -> tuple[bytes, bytes, bytes]:
    """Antilog, log and "times a_2" tables of L_2 = GF(256) for bytes.translate,
    read off the 16-bit ones; antilog entry 255 is g^0 = 1, so a log sum
    folded into 0..255 needs no further reduction."""
    exp = list(_EXP16[:65536:257])
    if sorted(exp[:255]) != list(range(1, 256)):
        raise AssertionError("g^257 does not generate L_2*")
    log = bytes([0] + [_LOG16[v] // 257 for v in range(1, 256)])
    top = bytes([0] + [exp[(log[v] + log[0x80]) % 255] for v in range(1, 256)])
    return bytes(exp), log, top


_EXP8, _LOG8, _TOP8 = _build_tables8()
_NONZERO8 = bytes([0]) + bytes([255]) * 255


def _reversals(limit: int) -> dict[int, itemgetter]:
    """For n = 2, 4 .. limit, a getter of n items in bit-reversed order of
    position: entries 2j and 2j + 1 of the order on 2n items are entry j of
    the order on n and that plus n, so each order is every other entry of the next."""
    perm = [0]
    while len(perm) < limit:
        wider = perm * 2
        wider[::2], wider[1::2] = perm, [p + len(perm) for p in perm]
        perm = wider
    return {len(perm) >> k: itemgetter(*perm[:: 1 << k]) for k in range(len(perm).bit_length() - 1)}


# The sweeps keep each block's bytes in bit-reversed order: then the high and
# low halves of all blocks at once are the odd and the even bytes.
_REVERSED = _reversals(_WIDE_MAX_BITS >> 3)


def _reverse(data: bytes) -> bytes:
    """data's bytes in bit-reversed order of position (an involution)."""
    return bytes(_REVERSED[len(data)](data)) if len(data) > 1 else data


def _xor_bytes(x: bytes, y: bytes) -> bytes:
    return (int.from_bytes(x, "little") ^ int.from_bytes(y, "little")).to_bytes(len(x), "little")


def _interleave(even: bytes, odd: bytes) -> bytearray:
    out = bytearray(2 * len(even))
    out[::2], out[1::2] = even, odd
    return out


def _top_blocks(data: bytes, size: int) -> bytes:
    """_mul_top of every size-byte block of data, by the top-multiply split
    on the narrow blocks and per value on blocks of 128 bits and up."""
    if size == 1:
        return data.translate(_TOP8)
    if size > 8:
        w, blocks = size << 3, range(0, len(data), size)
        tops = [_mul_top(int.from_bytes(_reverse(data[i:i + size]), "little"), w) for i in blocks]
        return b"".join([_reverse(t.to_bytes(size, "little")) for t in tops])
    # x*a = top(xh ^ xl)*c + top(top(xh)) on halves; both inner tops in one call
    high, low = data[1::2], data[::2]
    n = len(high)
    tops = _top_blocks(high + _xor_bytes(high, low), size >> 1)
    return _interleave(_top_blocks(tops[:n], size >> 1), tops[n:])


def _prepare(b: int, w: int) -> tuple[int, int]:
    """The fixed factor of _mul_prepared: b swept down breadth-first, each
    block y becoming the triple (top(yh), yl, yh ^ yl), to 8-bit leaves;
    kept as the leaves' logs in 16-bit lanes and a mask of the nonzero ones."""
    size = w >> 3
    data = _reverse(b.to_bytes(size, "little"))
    while size > 1:
        size >>= 1
        high, low = data[1::2], data[::2]
        data = b"".join([_top_blocks(high, size), low, _xor_bytes(high, low)])
    logs = bytearray(2 * len(data))
    logs[::2] = data.translate(_LOG8)
    return int.from_bytes(logs, "little"), int.from_bytes(data.translate(_NONZERO8), "little")


def _mul_prepared(a: int, prepared: tuple[int, int], w: int) -> int:
    """a*b for b prepared at width w.  x*y's low half xh*yh*a_{k-1} + xl*yl
    is xh*top(yh) + xl*yl, so against the triple (top(yh), yl, yh ^ yl) a
    block x splits into (xh, xl, xh ^ xl), the three products P1, P2, P3
    join as high P3 ^ P2 and low P1 ^ P2, and nothing is top-multiplied."""
    logs, nonzero = prepared
    data = _reverse(a.to_bytes(w >> 3, "little"))
    depth = (w >> 3).bit_length() - 1
    for _ in range(depth):
        high, low = data[1::2], data[::2]
        data = b"".join([high, low, _xor_bytes(high, low)])
    # The 3^depth leaf products in L_2: log sums (0..508) in 16-bit lanes,
    # folded mod 255 into one byte each, then the antilog and the masks.
    n = len(data)
    wide = bytearray(2 * n)
    wide[::2] = data.translate(_LOG8)
    lanes = int.from_bytes(b"\xff\x00" * n, "little")
    s = int.from_bytes(wide, "little") + logs
    s = (s & lanes) + (s >> 8 & lanes)
    p = int.from_bytes(s.to_bytes(2 * n, "little")[::2].translate(_EXP8), "little")
    p &= nonzero & int.from_bytes(data.translate(_NONZERO8), "little")
    data = p.to_bytes(n, "little")
    for _ in range(depth):
        third = len(data) // 3
        p = int.from_bytes(data, "little")
        e = (p ^ p >> 8 * third).to_bytes(len(data), "little")  # P1 ^ P2, P2 ^ P3, P3
        data = _interleave(e[:third], e[third:2 * third])
    return int.from_bytes(_reverse(data), "little")


def norm_value(a: int, w: int) -> int:
    """The norm a*conj(a) = a^(2^(w/2)+1), a half-width value."""
    half = w >> 1
    ah, al = a >> half, a & ((1 << half) - 1)
    return _mul_top(_square(ah, half), half) ^ _mul(ah, al, half) ^ _square(al, half)


def _inv(a: int, w: int) -> int:
    if w <= LOG_TABLE_BITS:
        return _EXP16[(1 << LOG_TABLE_BITS) - 1 - _LOG16[a]]
    half = w >> 1
    ah = a >> half
    al = a & ((1 << half) - 1)
    ninv = _inv(norm_value(a, w), half)
    return (_mul(ah, ninv, half) << half) ^ _mul(ah ^ al, ninv, half)


# For each window digit d < 2^4 (k <= 4): its trailing zeros z, and the
# index d >> (z + 1) of its odd part among _powers' odd powers.
_DIGITS = ((0, 0), (0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (0, 3),
           (3, 0), (0, 4), (1, 2), (0, 5), (2, 1), (0, 6), (1, 3), (0, 7))


def _pow(a: int, e: int, w: int) -> int:
    """a^e: one log-table read for a nonzero base of 16 bits or fewer, an
    element of L_3 at any width w, else _powers of the one exponent."""
    if 0 < a < 1 << 16:
        return _EXP16[_LOG16[a] * (e % 65535) % 65535]
    return _powers(a, (e,), w)[0]


def _powers(a: int, exponents, w: int) -> list[int]:
    """[a^e for e in exponents]: left-to-right sliding windows of k bits
    over one table of odd powers a^1 .. a^(2^k - 1), k chosen for the
    longest exponent and each fixed factor prepared once at wide widths,
    however many exponents share them; k = 1 is plain square-and-multiply,
    with no a^2 entry.

    A nonzero base in the width-w field has an order dividing 2^w - 1, so
    each e is reduced modulo it first, at the narrowest such w: a = 1
    narrows to width 1, where every e reduces to 0 and a^0 = 1 needs no
    multiply.  0^e is 0 for e > 0."""
    if a == 0:
        return [0 if e else 1 for e in exponents]
    while a >> (w >> 1) == 0:
        w >>= 1  # the powers of a stay in the half-width field
    order = (1 << w) - 1
    exponents = [e % order for e in exponents]
    # k by the longest exponent's length, the cut points measured at 32 to
    # 1024 bits: below 10 bits a^2 and a^3 cost more than the multiplies
    # they save.  A shorter exponent takes the same k: its table is built.
    bits = max(exponents).bit_length()
    k = 1 if bits < 10 else 2 if bits < 24 else 3 if bits < 80 else 4
    wide = _WIDE_BITS <= w <= _WIDE_MAX_BITS
    times = _mul_prepared if wide else _mul
    odd = [a]
    if k > 1:
        square_a = _prepare(_square(a, w), w) if wide else _square(a, w)
        for _ in range((1 << (k - 1)) - 1):
            odd.append(times(odd[-1], square_a, w))
    factors = [_prepare(b, w) for b in odd] if wide else odd
    results = []
    for e in exponents:
        # Windows from the top down: each starts at the highest 1-bit left
        # and spans at most k bits, trimmed to end at a 1-bit, so its digit
        # d is odd and a^d is odd[d >> 1].  `low` is the position of a
        # window's lowest bit: the first window sets r, between two windows
        # r is squared once per bit of distance, and after the last once per
        # bit below it.  With no window (e = 0) r stays None: a^0 = 1.
        r, low = None, 0
        while e:
            above = low
            top = e.bit_length()
            low = top - k if top > k else 0
            digit = e >> low
            e ^= digit << low
            zeros, index = _DIGITS[digit]
            low += zeros
            if r is None:
                r = odd[index]
                continue
            for _ in range(above - low):
                r = _square(r, w)
            r = times(r, factors[index], w)
        for _ in range(low):
            r = _square(r, w)
        results.append(1 if r is None else r)
    return results


# Aliases read only by perfbench (its kernel probe, query-mix checker and
# tracer), until the benchmark's next revision calls the kernels instead.
mul_values, square_value, pow_values = _mul, _square, _pow


def norm_split_values(a: int, width: int) -> tuple[int, int]:
    """(conj(a)/a, a*conj(a)) for nonzero a: a^(2^(w/2)-1), whose order
    divides 2^(w/2)+1, and the norm a^(2^(w/2)+1), a half-width value.
    conj(a)/a is computed as conj(a)^2/norm, so only the norm is inverted."""
    half = width >> 1
    norm = norm_value(a, width)
    return _mul(_square(a ^ (a >> half), width), _inv(norm, half), width), norm


def width_of(level: int) -> int:
    """Coefficient-vector length (bits) of a level: 2^(level+1)."""
    if not -1 <= level <= MAX_LEVEL:
        raise LevelError(f"level must lie in -1..{MAX_LEVEL}, got {level}")
    return 1 << (level + 1)


def _min_level_for(value: int) -> int:
    level = -1
    while value >> width_of(level):
        level += 1
    return level


class TowerElement(Value):
    """Immutable element of the level-`level` field."""

    __slots__ = ("level", "value")

    def __init__(self, level: int, value: int):
        # Built once per field operation: width_of's check inlined, and the
        # fields set through the slot descriptors, bypassing __setattr__.
        if not -1 <= level <= MAX_LEVEL:
            raise LevelError(f"level must lie in -1..{MAX_LEVEL}, got {level}")
        if value < 0 or value >> (1 << (level + 1)):
            raise NotInField(f"value {value:#x} does not fit in level {level}")
        _set_level(self, level)
        _set_value(self, value)

    # -- structure ---------------------------------------------------------

    @property
    def width(self) -> int:
        return 1 << (self.level + 1)  # the constructor range-checked the level

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value:#x}@L{self.level}"

    def lift(self, level: int) -> "TowerElement":
        """Re-express at a higher level by zero-extending coefficients."""
        if level < self.level:
            raise LevelError(f"cannot lift level {self.level} down to {level}")
        return TowerElement(level, self.value)

    def min_level(self) -> "TowerElement":
        """Truncate to the smallest level containing all set coefficients."""
        return TowerElement(_min_level_for(self.value), self.value)

    def in_subfield(self, k: int) -> bool:
        """Whether the element lies in the level-k subfield (bit test)."""
        if not (-1 <= k <= self.level):
            raise LevelError(f"subfield level {k} out of range for level {self.level}")
        return self.value >> width_of(k) == 0

    # -- arithmetic ---------------------------------------------------------

    def _require_same_level(self, other: "TowerElement") -> None:
        if self.level != other.level:
            raise LevelMismatch(
                f"levels differ: {self.level} vs {other.level}; lift explicitly"
            )

    def add(self, other: "TowerElement") -> "TowerElement":
        self._require_same_level(other)
        return TowerElement(self.level, self.value ^ other.value)

    __add__ = add

    def mul(self, other: "TowerElement") -> "TowerElement":
        self._require_same_level(other)
        return TowerElement(self.level, _mul(self.value, other.value, self.width))

    __mul__ = mul

    def square(self) -> "TowerElement":
        return TowerElement(self.level, _square(self.value, self.width))

    def frobenius_conj(self) -> "TowerElement":
        """The conjugate over the next subfield down: x^(2^(2^level))."""
        if self.level < 0:
            raise LevelError("frobenius_conj needs level >= 0")
        v = self.value
        return TowerElement(self.level, v ^ (v >> (self.width >> 1)))

    def inverse(self) -> "TowerElement":
        if self.value == 0:
            raise ZeroInverse("zero has no multiplicative inverse")
        return TowerElement(self.level, _inv(self.value, self.width))

    def pow(self, e: int) -> "TowerElement":
        """self^e by _pow (log tables or sliding windows); 0**0 is an error."""
        if e < 0:
            raise ValueError("exponent must be a natural number")
        if self.value == 0 and e == 0:
            raise ZeroToZero("0**0 is undefined")
        return TowerElement(self.level, _pow(self.value, e, self.width))

    __pow__ = pow


_set_level, _set_value = TowerElement._setters


# ---------------------------------------------------------------------------
# Constructors and text formats.


def zero(level: int) -> TowerElement:
    return TowerElement(level, 0)


def one(level: int) -> TowerElement:
    return TowerElement(level, 1)


def generator(kind: str, index: int, level: int) -> TowerElement:
    """The generator c_index, top monomial a_index, zero or one, at `level`.

    c_k has the single coefficient bit 2^k set; a_k = c_0*...*c_k has bit
    2^(k+1)-1.  Index -1 yields 1 for both families.
    """
    width_of(level)  # LevelError outside -1..MAX_LEVEL
    if kind == "zero":
        return zero(level)
    if kind == "one":
        return one(level)
    if kind not in ("c", "a"):
        raise ValueError(f"unknown generator kind {kind!r}")
    if not (-1 <= index <= level):
        raise LevelError(f"{kind}_{index} does not live in level {level}")
    if index == -1:
        return one(level)
    bit = (1 << index) if kind == "c" else ((1 << (index + 1)) - 1)
    return TowerElement(level, 1 << bit)


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def parse_hex(s: str, level: int) -> TowerElement:
    """A literal 0x<hex digits>, lowercase x, as an element of `level`."""
    if s[:2] != "0x" or len(s) < 3 or not _HEX_DIGITS.issuperset(s[2:]):
        raise ParseError(f"not a hex element literal: {s!r}")
    value = int(s, 16)
    if value >> width_of(level):
        raise NotInField(f"{s} needs more than {width_of(level)} coefficient bits")
    return TowerElement(level, value)


def _monomial_name(bit: int) -> str:
    if bit == 0:
        return "1"
    parts = [f"c{j}" for j in range(bit.bit_length() - 1, -1, -1) if (bit >> j) & 1]
    return "*".join(parts)


def format_element(x: TowerElement, style: str = "hex") -> str:
    if style == "hex":
        return f"{x.value:#x}"
    if style == "poly":
        if x.value == 0:
            return "0"
        terms = [
            _monomial_name(m) for m in range(x.value.bit_length() - 1, -1, -1)
            if (x.value >> m) & 1
        ]
        return " + ".join(terms)
    raise ValueError(f"unknown format style {style!r}")


def random_element(level: int, seed: int) -> TowerElement:
    """Deterministic pseudo-uniform element for a (level, seed) pair."""
    import random

    rng = random.Random(f"tower/{level}/{seed}")
    return TowerElement(level, rng.getrandbits(width_of(level)))
