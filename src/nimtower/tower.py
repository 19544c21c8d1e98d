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
smaller field being a subfield with the same values; _build_tables makes
them at import from linearity.  Squaring and _mul_top (times the top
monomial) are F2-linear at every width too, so from 32 to 256 bits each is
one byte-sliced table: slice k holds the images of the 256 values of byte
k, and a value maps to the XOR of one entry per byte.  The module builds
them at import too, narrowest first, from the images of the w basis bits
under the half-width split written above (_build_slices); above 256 bits
both kernels recurse down to the tables.  No table changes after import,
so the kernels need no lock.  _mul is straight-line code at 32 bits (three
16-bit log products and one A) and at 64 bits (two Karatsuba levels: nine
log products, A read from its table), and recurses above.

Every square and top-multiply of width 32 and up, and every product of
width 32 or of 128 and up, passes through the one line of _mul_top that
returns A at width 16: the slice tables are built through it, and the
width-32 product applies A by calling it.  perfbench's corruption
self-test edits that line and expects every workload to notice.  Each
kernel tests the table widths first, so calls at levels <= 3 dispatch at
once.

Levels run from -1 to MAX_LEVEL; width_of, generator and TowerElement
refuse any other level before allocating anything of its size.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import reduce
from operator import getitem, xor

from .errors import (
    LevelError,
    LevelMismatch,
    NotInField,
    ParseError,
    ZeroInverse,
    ZeroToZero,
)

# Width of the log/antilog field.  Fixed: the table builder and the
# straight-line width-32/64 products split values into 16-bit pieces.
LOG_TABLE_BITS = 16
# Highest level accepted anywhere: widths, generators, elements, and (via
# fermat.fermat_number) the Fermat numbers N_j, j <= MAX_LEVEL + 1, that
# expressions and factor files may name.  A level-20 element and N_21 each
# take 2^21 bits (256 KiB); the paper's claims, the tests and the reports
# use levels up to 13.  The ceiling bounds the size of a value, not the
# time to compute with it: a multiply costs about 3x per level, and one
# random level-20 multiply took 258 s (level 15: 0.56 s) on a shared
# 2-vCPU machine.
MAX_LEVEL = 20
# Generator used to build the 16-bit log tables: c3*c0, primitive in L_3.
_LOG_GENERATOR = 0x200

# Byte-slice tables of (_square, _mul_top) by width, 32.._SLICE_MAX_BITS,
# filled at import below _build_slices.  Wider tables cost megabytes and
# measured no faster.
_SLICE_MAX_BITS = 256
_SLICES: dict[int, tuple[list[list[int]], list[list[int]]]] = {}


def _span(images: list[int]) -> list[int]:
    """Table of the F2-linear map with basis images `images`: entry x is
    the XOR of images[k] over the 1-bits k of x."""
    table = [0]
    for image in images:
        table += [t ^ image for t in table]
    return table


def _mul_plain(a: int, b: int, w: int) -> int:
    """The product recursion with no table, for building the tables."""
    if w == 1:
        return a & b
    half = w >> 1
    mask = (1 << half) - 1
    ah, al, bh, bl = a >> half, a & mask, b >> half, b & mask
    hh, ll = _mul_plain(ah, bh, half), _mul_plain(al, bl, half)
    mid = _mul_plain(ah ^ al, bh ^ bl, half)
    return ((mid ^ ll) << half) ^ _mul_plain(hh, 1 << (half - 1), half) ^ ll


def _build_tables() -> tuple[list[int], list[int], list[int], list[int]]:
    # Log/antilog for the width-16 field, generated by c3*c0: times-the-
    # generator is F2-linear, so its table is the span of 16 basis images.
    # The antilog table is doubled so exponent sums need no reduction mod
    # 65535; the walk stops early if the generator's order is too small.
    bits, order = LOG_TABLE_BITS, (1 << LOG_TABLE_BITS) - 1
    times_g = _span([_mul_plain(1 << k, _LOG_GENERATOR, bits) for k in range(bits)])
    exp = [0] * (2 * order)
    log = [0] * (order + 1)
    x = 1
    for i in range(order):
        exp[i] = exp[i + order] = x
        log[x] = i
        x = times_g[x]
        if x == 1:
            break
    if i != order - 1 or x != 1:
        raise AssertionError("log-table generator does not have full order")
    del times_g

    # Both maps reuse the antilog table's int objects, so they add no ints.
    log_top = log[1 << (bits - 1)]
    mul_top16 = [exp[lv + log_top] for lv in log]
    sq16 = [exp[2 * lv] for lv in log]
    mul_top16[0] = sq16[0] = 0

    return exp, log, mul_top16, sq16


_EXP16, _LOG16, _MUL_TOP16, _SQ16 = _build_tables()


# ---------------------------------------------------------------------------
# Int kernels.  All take values below 2**w for a power-of-two width w.


def _mul(a: int, b: int, w: int) -> int:
    if w <= 16:
        return _EXP16[_LOG16[a] + _LOG16[b]] if a and b else 0
    if w == 32:
        exp, log = _EXP16, _LOG16
        ah, al = a >> 16, a & 0xFFFF
        bh, bl = b >> 16, b & 0xFFFF
        hh = exp[log[ah] + log[bh]] if ah and bh else 0
        ll = exp[log[al] + log[bl]] if al and bl else 0
        sa, sb = ah ^ al, bh ^ bl
        mid = exp[log[sa] + log[sb]] if sa and sb else 0
        # A through the width-16 branch, not t[hh]: see the module docstring.
        return ((mid ^ ll) << 16) ^ _mul_top(hh, 16) ^ ll
    if w == 64:
        # The width-32 products hi = (h1, h0), lo = (l1, l0) and
        # mid + lo = (m1, m0) of the halves, each as in the width-32 branch
        # with A = t; then (mid + lo)*2^32 + hi*a_4 + lo, where hi*a_4 is
        # (A(h1 + h0), A(A(h1))) by the top-multiply split.
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
    if ah | bh == 0:
        return _mul(al, bl, half)
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
    return _mul_top_split(x, w)


def _mul_top_split(x: int, w: int) -> int:
    if x == 0:
        return 0
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
    return _square_split(a, w)


def _square_split(a: int, w: int) -> int:
    half = w >> 1
    ah = a >> half
    if ah == 0:
        return _square(a, half)
    hh = _square(ah, half)
    return (hh << half) ^ _mul_top(hh, half) ^ _square(a & ((1 << half) - 1), half)


def _build_slices(w: int) -> tuple[list[list[int]], list[list[int]]]:
    """The width-w byte-slice tables of "squared" and "times the top
    monomial": slice k is the span of the images of bits 8k..8k+7, each
    computed by the half-width split, which reads the half width's tables."""
    sq = [_square_split(1 << j, w) for j in range(w)]
    top = [_mul_top_split(1 << j, w) for j in range(w)]
    return tuple([_span(images[k:k + 8]) for k in range(0, w, 8)] for images in (sq, top))


_w = 32  # narrowest first: each width's basis images read the half width's tables
while _w <= _SLICE_MAX_BITS:
    _SLICES[_w] = _build_slices(_w)
    _w <<= 1
del _w


def _norm(a: int, w: int) -> int:
    """a*conj(a) = a^(2^(w/2)+1), which lies in the half-width subfield."""
    half = w >> 1
    ah, al = a >> half, a & ((1 << half) - 1)
    return _mul_top(_square(ah, half), half) ^ _mul(ah, al, half) ^ _square(al, half)


def _inv(a: int, w: int) -> int:
    if w <= LOG_TABLE_BITS:
        return _EXP16[(1 << LOG_TABLE_BITS) - 1 - _LOG16[a]]
    half = w >> 1
    ah = a >> half
    al = a & ((1 << half) - 1)
    if ah == 0:
        return _inv(al, half)
    ninv = _inv(_norm(a, w), half)
    return (_mul(ah, ninv, half) << half) ^ _mul(ah ^ al, ninv, half)


# Exponent size above which _pow uses sliding windows, and their width in
# bits (odd powers a^1 .. a^(2^k - 1)); both chosen by measurement.
_POW_WINDOW_THRESHOLD = 64
_POW_WINDOW_BITS = 5


def _pow(a: int, e: int, w: int) -> int:
    """Left-to-right square-and-multiply (sliding windows over odd powers
    for long exponents).

    A nonzero base has an order dividing 2^w - 1, so e is reduced modulo
    it first; 0^e is 0 for e > 0."""
    if a == 0:
        return 0 if e else 1
    e %= (1 << w) - 1
    if e == 0 or a == 1:
        return 1
    bits = e.bit_length()
    if bits <= _POW_WINDOW_THRESHOLD:
        r = a
        for i in range(bits - 2, -1, -1):
            r = _square(r, w)
            if (e >> i) & 1:
                r = _mul(r, a, w)
        return r
    k = _POW_WINDOW_BITS
    # Cut e into windows, low end first: each starts at a 1-bit and spans
    # k bits, so e is the sum of digit * 2^shift over odd digits.
    windows = []
    shift = 0
    while e:
        zeros = (e & -e).bit_length() - 1
        e >>= zeros
        shift += zeros
        windows.append((e & ((1 << k) - 1), shift))
        e >>= k
        shift += k
    square_a = _square(a, w)
    odd = [a]
    for _ in range((1 << (k - 1)) - 1):
        odd.append(_mul(odd[-1], square_a, w))
    digit, shift = windows.pop()
    r = odd[digit >> 1]
    for digit, low in reversed(windows):
        for _ in range(shift - low):
            r = _square(r, w)
        r = _mul(r, odd[digit >> 1], w)
        shift = low
    for _ in range(shift):
        r = _square(r, w)
    return r


def mul_values(a: int, b: int, width: int) -> int:
    """Raw product of two coefficient vectors of the given bit width."""
    return _mul(a, b, max(width, 1))


def square_value(a: int, width: int) -> int:
    return _square(a, max(width, 1))


def pow_values(a: int, e: int, width: int) -> int:
    """Raw exponentiation of a coefficient vector (e a natural number)."""
    return _pow(a, e, max(width, 1))


def norm_value(a: int, width: int) -> int:
    """The norm a*conj(a) = a^(2^(w/2)+1), a half-width value."""
    return _norm(a, width)


def norm_split_values(a: int, width: int) -> tuple[int, int]:
    """(conj(a)/a, a*conj(a)) for nonzero a: a^(2^(w/2)-1), whose order
    divides 2^(w/2)+1, and the norm a^(2^(w/2)+1), a half-width value.
    conj(a)/a is computed as conj(a)^2/norm, so only the norm is inverted."""
    half = width >> 1
    if a >> half == 0:
        return 1, _square(a, half)
    norm = _norm(a, width)
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


@dataclass(frozen=True, slots=True)
class TowerElement:
    """Immutable element of the level-`level` field."""

    level: int
    value: int

    def __post_init__(self):
        if self.value < 0 or self.value >> width_of(self.level):
            raise NotInField(
                f"value {self.value:#x} does not fit in level {self.level}"
            )

    # -- structure ---------------------------------------------------------

    @property
    def width(self) -> int:
        return width_of(self.level)

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
        half = self.width >> 1
        vh = self.value >> half
        vl = self.value & ((1 << half) - 1)
        return TowerElement(self.level, (vh << half) ^ (vl ^ vh))

    def inverse(self) -> "TowerElement":
        if self.value == 0:
            raise ZeroInverse("zero has no multiplicative inverse")
        return TowerElement(self.level, _inv(self.value, self.width))

    def pow(self, e: int) -> "TowerElement":
        """Left-to-right square-and-multiply; 0**0 is an error."""
        if e < 0:
            raise ValueError("exponent must be a natural number")
        if self.value == 0:
            if e == 0:
                raise ZeroToZero("0**0 is undefined")
            return self
        if e == 0:
            return TowerElement(self.level, 1)
        return TowerElement(self.level, _pow(self.value, e, self.width))

    __pow__ = pow


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


_HEX_RE = re.compile(r"0x[0-9a-fA-F]+\Z")


def parse_hex(s: str, level: int) -> TowerElement:
    if not _HEX_RE.match(s):
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
    rng = random.Random(f"tower/{level}/{seed}")
    return TowerElement(level, rng.getrandbits(width_of(level)))
