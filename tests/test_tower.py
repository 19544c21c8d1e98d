"""Tests for tower elements and field arithmetic.

Expected values for products and powers were computed with the
game-definition nimber oracle before being frozen here; see test_oracle for
the systematic cross-checks.
"""

import random

import pytest

from nimtower import fermat, tower
from nimtower.errors import (
    LevelError,
    LevelMismatch,
    NotInField,
    ParseError,
    ZeroInverse,
    ZeroToZero,
)
from nimtower.tower import TowerElement, generator


def elem(value, level):
    return TowerElement(level, value)


def seeded(level, count, seed):
    return [tower.random_element(level, seed + k) for k in range(count)]


# -- generators --------------------------------------------------------------


def test_generator_encoding():
    assert generator("c", 0, 0).value == 0x2
    assert generator("a", 1, 2).value == 0x8  # oracle: 4*2 = 8
    assert generator("c", -1, 0).value == 0x1
    assert generator("a", -1, 3).value == 0x1
    assert generator("c", 2, 2).value == 0x10
    assert generator("a", 2, 2).value == 0x80
    assert generator("zero", 0, 4).value == 0
    assert generator("one", 0, 4).value == 1


def test_generator_level_errors():
    with pytest.raises(LevelError):
        generator("c", 3, 2)
    with pytest.raises(LevelError):
        generator("a", 0, -2)
    with pytest.raises(LevelError):
        generator("c", -2, 5)


def test_level_ceiling():
    top = tower.MAX_LEVEL
    assert top >= 13  # the paper's claims, the reports and the tests
    assert tower.width_of(top) == 1 << (top + 1)
    assert generator("c", top, top).value == 1 << (1 << top)
    # refused before a 2^(level+1)-bit value is built
    for make in (
        lambda: tower.width_of(top + 1),
        lambda: generator("c", 40, 40),
        lambda: generator("one", 0, top + 1),
        lambda: TowerElement(top + 1, 0),
        lambda: tower.parse_hex("0x1", 30),
        lambda: elem(1, 2).lift(top + 1),
    ):
        with pytest.raises(LevelError):
            make()


# -- add ---------------------------------------------------------------------


def test_add_is_xor():
    x = elem(0x13, 2)
    assert (x + x).value == 0
    combo = generator("c", 2, 2) + generator("c", 1, 2) + generator("one", 0, 2)
    assert combo.value == 0x15
    assert (elem(0x3, 0) + elem(0x1, 0)).value == 0x2


def test_add_level_mismatch():
    with pytest.raises(LevelMismatch):
        elem(1, 0).add(elem(1, 1))


# -- mul ---------------------------------------------------------------------


def test_mul_defining_relation_values():
    assert (elem(0x2, 0) * elem(0x2, 0)).value == 0x3  # c_0^2 = c_0 + 1
    assert (elem(0x4, 1) * elem(0x4, 1)).value == 0x6  # c_1^2 = c_1 + c_0
    x = elem(0xAB, 3)
    assert (generator("one", 0, 3) * x) == x
    # frozen from the mex oracle: 5 (x) 9 = 6
    assert (elem(0x5, 2) * elem(0x9, 2)).value == 6


def test_mul_level_mismatch():
    with pytest.raises(LevelMismatch):
        elem(2, 1).mul(elem(2, 2))


def test_defining_relation_all_levels():
    for i in range(0, 12):
        c_i = generator("c", i, i)
        a_prev = generator("a", i - 1, i)
        assert (c_i.square() + c_i + a_prev).value == 0, f"level {i}"


def test_field_axioms_sampled():
    for level in range(0, 9):
        xs = seeded(level, 60, 100)
        ys = seeded(level, 60, 200)
        zs = seeded(level, 60, 300)
        one = generator("one", 0, level)
        for x, y, z in zip(xs, ys, zs):
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x * one == x


def test_mul_by_top_monomial_specialized_path_agrees():
    # the fast multiply-by-a_{k-1} must match the generic product
    from nimtower.tower import _ensure_tables, _mul, _mul_top

    _ensure_tables()
    rng = random.Random(99)
    for level in range(0, 9):
        w = tower.width_of(level)
        for _ in range(200):
            x = rng.getrandbits(w)
            assert _mul_top(x, w) == _mul(x, 1 << (w - 1), w)


def _base_case_values(w, rng):
    """Edge and random values for the width-32..256 base kernels."""
    half = w // 2
    low = (1 << half) - 1
    h = rng.getrandbits(half) | 1
    values = [
        0, 1, (1 << w) - 1, 1 << (w - 1),
        h,  # zero high half
        h << half,  # zero low half
        (h << half) | h,  # high half equal to low half
        low, low << half,
    ]
    for q in range(w // 16):  # one 16-bit piece set, the rest zero
        values += [0xFFFF << (16 * q), (rng.getrandbits(16) | 1) << (16 * q)]
    return values + [rng.getrandbits(w) for _ in range(150)]


def test_width16_tables_match_recursive_oracle():
    # exhaustive: the span-built tables against an oracle that shares no code
    from nimtower.oracle import nim_mul_rec
    from nimtower.tower import _ensure_tables

    _ensure_tables()
    values = range(1 << 16)
    assert tower._SQ16 == [nim_mul_rec(x, x) for x in values]
    assert tower._MUL_TOP16 == [nim_mul_rec(x, 1 << 15) for x in values]
    exp = tower._EXP16
    assert exp[0] == 1 and len(exp) == 2 * 65535
    assert exp[1:] == [nim_mul_rec(x, 0x200) for x in exp[:-1]]
    assert sorted(exp[:65535]) == list(range(1, 1 << 16))
    assert all(tower._LOG16[exp[i]] == i for i in range(65535))


@pytest.mark.parametrize("w", [1, 2, 4, 8])
def test_kernels_below_width16_read_the_logs(w):
    from nimtower.oracle import nim_mul_rec
    from nimtower.tower import _ensure_tables, _mul_top, _square

    _ensure_tables()
    for x in range(1 << w):
        assert _square(x, w) == nim_mul_rec(x, x), (w, x)
        assert _mul_top(x, w) == nim_mul_rec(x, 1 << (w - 1)), (w, x)


def test_a_log_generator_of_short_order_is_refused(monkeypatch):
    # c_3 = 0x100 has order 21845, a divisor of 65535: the antilog walk
    # returns to 1 early, and the build raises before replacing any table
    tower._ensure_tables()
    names = ("_EXP16", "_LOG16", "_MUL_TOP16", "_SQ16")
    before = [getattr(tower, name) for name in names]
    monkeypatch.setattr(tower, "_LOG_GENERATOR", 0x100)
    with pytest.raises(AssertionError, match="full order"):
        tower._build_tables()
    assert all(getattr(tower, n) is t for n, t in zip(names, before))
    assert elem(0x1234, 3) * elem(0x8000, 3) == elem(tower._MUL_TOP16[0x1234], 3)


@pytest.mark.parametrize("w", [32, 64, 128, 256])
def test_straight_line_bases_match_recursive_oracle(w):
    # squares and top-multiplies read the slice tables; products at 32 and
    # 64 are straight-line code, wider ones recurse down to them
    from nimtower.oracle import nim_mul_rec
    from nimtower.tower import _ensure_tables, _mul, _mul_top, _square

    _ensure_tables()
    rng = random.Random(w)
    values = _base_case_values(w, rng)
    top = 1 << (w - 1)
    for x in values:
        assert _square(x, w) == nim_mul_rec(x, x), (w, hex(x))
        assert _mul_top(x, w) == nim_mul_rec(x, top), (w, hex(x))
        for y in values[:20] + [rng.getrandbits(w) for _ in range(5)]:
            assert _mul(x, y, w) == nim_mul_rec(x, y), (w, hex(x), hex(y))


@pytest.mark.parametrize("w", [32, 64, 128, 256])
def test_slice_table_basis_entries_match_recursive_oracle(w):
    from nimtower.oracle import nim_mul_rec

    tower._ensure_tables()
    sq, top = tower._build_slices(w)
    assert len(sq) == len(top) == w // 8
    for k in range(w // 8):
        assert len(sq[k]) == len(top[k]) == 256 and sq[k][0] == top[k][0] == 0
        for b in range(8):
            x = 1 << (8 * k + b)
            assert sq[k][1 << b] == nim_mul_rec(x, x), (w, k, b)
            assert top[k][1 << b] == nim_mul_rec(x, 1 << (w - 1)), (w, k, b)


def test_slice_tables_are_built_once_per_width(monkeypatch):
    tower._ensure_tables()
    built = []
    build = tower._build_slices
    monkeypatch.setattr(tower, "_SLICES", {})
    monkeypatch.setattr(tower, "_build_slices", lambda w: (built.append(w), build(w))[1])

    def exercise(x):
        return x * x, x.square(), x.inverse(), x.pow((1 << 80) + 3)

    exercise(tower.random_element(3, 1))
    assert built == []  # level 3 reads the width-16 tables only
    for level in (4, 5, 6, 7, 9):
        for y in seeded(level, 3, 9):
            exercise(y)
    assert built == [32, 64, 128, 256]
    assert sorted(tower._SLICES) == [32, 64, 128, 256]


# -- square ------------------------------------------------------------------


def test_square_examples():
    assert generator("c", 2, 2).square().value == 0x18  # c_2 + a_1
    assert elem(0, 3).square().value == 0
    assert generator("a", 3, 3).square() == generator("a", 3, 3) * generator("a", 3, 3)


def test_square_equals_mul_sampled():
    for level in range(0, 9):
        for x in seeded(level, 100, 17):
            assert x.square() == x * x, (level, x)


# -- frobenius ---------------------------------------------------------------


def test_frobenius_conjugate():
    c2 = generator("c", 2, 2)
    assert c2.frobenius_conj() == c2 + generator("one", 0, 2)
    lifted = elem(0x9, 1).lift(3)
    assert lifted.frobenius_conj() == lifted  # fixed on the subfield
    for x in seeded(4, 50, 5):
        assert x.frobenius_conj().frobenius_conj() == x


def test_frobenius_is_power_map():
    for level in range(0, 7):
        e = 1 << (1 << level)
        for x in seeded(level, 40, 11):
            assert x.frobenius_conj() == x.pow(e), (level, x)


def test_frobenius_closure():
    for level in range(0, 7):
        e = 1 << (1 << (level + 1))
        for x in seeded(level, 40, 13):
            assert x.pow(e) == x


def test_frobenius_level_error():
    with pytest.raises(LevelError):
        elem(1, -1).frobenius_conj()


# -- inverse -----------------------------------------------------------------


def test_inverse_examples():
    assert generator("one", 0, 5).inverse().value == 1
    assert generator("c", 0, 0).inverse().value == 0x3  # c_0 * (c_0 + 1) = 1
    with pytest.raises(ZeroInverse):
        elem(0, 2).inverse()


def test_inverse_property_sampled():
    for level in range(0, 9):
        one = generator("one", 0, level)
        for x in seeded(level, 100, 23):
            if x.value == 0:
                continue
            assert x * x.inverse() == one, (level, x)


def test_inverse_matches_exponentiation_crosscheck():
    # test-only alternative: x^(2^(2^(i+1)) - 2)
    for level in range(0, 6):
        e = (1 << (1 << (level + 1))) - 2
        for x in seeded(level, 30, 31):
            if x.value == 0:
                continue
            assert x.inverse() == x.pow(e)


def test_norm_closure_in_inverse_recursion():
    from nimtower.tower import _ensure_tables, _mul, _mul_top, _square

    _ensure_tables()
    rng = random.Random(3)
    for level in range(1, 9):
        w = tower.width_of(level)
        half = w >> 1
        for _ in range(100):
            v = rng.getrandbits(w)
            vh, vl = v >> half, v & ((1 << half) - 1)
            norm = _mul_top(_square(vh, half), half) ^ _mul(vh, vl, half) ^ _square(vl, half)
            assert norm >> half == 0  # lands one level down


# -- pow ---------------------------------------------------------------------


def test_pow_examples():
    c2 = generator("c", 2, 2)
    # oracle-verified: the fourth power is c_2 + c_1 + 1, the fifth is
    # c_2*c_1 + c_1*c_0 (see the closing-example checks in orders)
    assert c2.pow(4).value == 0x15
    assert c2.pow(5).value == 0x48
    assert c2.pow(17).value == 0x8  # a_1
    x = elem(0xDEAD, 3)
    assert x.pow(1) == x
    assert x.pow(0).value == 1
    assert elem(0, 3).pow(5).value == 0
    with pytest.raises(ZeroToZero):
        elem(0, 3).pow(0)


def test_pow_matches_repeated_mul():
    rng = random.Random(41)
    for level in (0, 2, 4):
        for _ in range(20):
            x = tower.random_element(level, rng.getrandbits(32))
            acc = generator("one", 0, level)
            for e in range(1, 40):
                acc = acc * x
                assert x.pow(e) == acc, (level, x, e)


def _pow_plain(a, e, w):
    """Left-to-right square-and-multiply over every bit of e, unreduced."""
    r = 1
    for bit in bin(e)[2:]:
        r = tower._square(r, w)
        if bit == "1":
            r = tower._mul(r, a, w)
    return r


def test_pow_sliding_windows_match_plain():
    threshold, k = tower._POW_WINDOW_THRESHOLD, tower._POW_WINDOW_BITS
    rng = random.Random(44)
    exponents = [
        (1 << threshold) - 1,  # at the threshold: plain path
        1 << threshold,  # one bit above it
        (1 << threshold) + 1,
        (1 << 200) - 1,
        (1 << 200) + 1,
        (rng.getrandbits(150) << k) | 1,  # a window ending at bit 0
        (rng.getrandbits(150) | 1) << (k + 3),  # trailing zeros after the last window
        # zero runs one bit longer and one bit shorter than a window
        int("1" + "0" * (k + 1) + "1" * (3 * k) + "0" * (k - 1) + "1" * 70, 2),
    ]
    for level in (1, 3, 4, 6, 8):
        w = tower.width_of(level)
        order = (1 << w) - 1
        for a in (1, 2, rng.getrandbits(w) | 1, rng.getrandbits(w) | 2):
            for e in exponents + [order, order + 1, 2 * order + 77, (1 << 300) + 5]:
                assert tower._pow(a, e, w) == _pow_plain(a, e, w), (level, a, e)


def test_pow_windowed_path_matches_plain():
    # exponents above the window threshold take the sliding-window path
    rng = random.Random(43)
    for level in (3, 5, 7):
        one = generator("one", 0, level)
        for _ in range(10):
            x = tower.random_element(level, rng.getrandbits(32))
            if x.value == 0:
                x = one
            e = rng.getrandbits(200)
            split = rng.getrandbits(64)
            lo = e & ((1 << 64) - 1)
            hi = e >> 64
            # x^e = (x^(2^64))^hi * x^lo with short exponents on one side
            left = x.pow(1 << 64).pow(hi) * x.pow(lo)
            assert x.pow(e) == left


def test_pow_reduces_exponent_mod_group_order():
    from nimtower.expr import evaluate

    c2 = generator("c", 2, 2)
    n21 = fermat.fermat_number(21)
    assert c2.pow(n21) == c2.pow(n21 % 255)
    assert evaluate("c2^N21") == c2.pow(n21 % 255)
    for level in (-1, 0, 3, 6, 9):
        order = (1 << tower.width_of(level)) - 1
        for x in seeded(level, 3, 47):
            if x.value == 0:
                continue
            for k in (1, 2, 7):
                assert x.pow(k * order).value == 1, (level, x, k)
                assert x.pow(k * order + 5) == x.pow(5), (level, x, k)


def test_pow_of_zero_is_not_reduced():
    for level in (0, 3, 6):
        w = tower.width_of(level)
        order = (1 << w) - 1
        for e in (1, order, 3 * order, 1 << 70):
            assert elem(0, level).pow(e).value == 0
            assert tower.pow_values(0, e, w) == 0
        assert tower.pow_values(0, 0, w) == 1


def test_lagrange_small_levels():
    for level in range(0, 6):
        order = (1 << tower.width_of(level)) - 1
        for x in seeded(level, 60, 47):
            if x.value != 0:
                assert x.pow(order).value == 1


# -- structure ops -----------------------------------------------------------


def test_in_subfield():
    a1 = generator("a", 1, 2)
    assert a1.in_subfield(1) is True
    assert generator("c", 2, 2).in_subfield(1) is False
    assert generator("one", 0, 4).in_subfield(-1) is True
    assert elem(0x2, 3).in_subfield(-1) is False
    with pytest.raises(LevelError):
        elem(1, 2).in_subfield(3)
    with pytest.raises(LevelError):
        elem(1, 2).in_subfield(-2)


def test_lift_and_min_level():
    x = elem(0x3, 0)
    lifted = x.lift(2)
    assert lifted.level == 2 and lifted.value == 0x3
    assert lifted.min_level() == x
    assert elem(0x1, 5).min_level().level == -1
    assert elem(0x0, 5).min_level().level == -1
    assert elem(0x10, 4).min_level().level == 2
    with pytest.raises(LevelError):
        lifted.lift(1)


def test_value_must_fit_level():
    with pytest.raises(NotInField):
        elem(0x100, 1)
    elem(0xF, 1)  # fits exactly


# -- parse / format ----------------------------------------------------------


def test_parse_hex():
    x = tower.parse_hex("0x15", 2)
    assert x.value == 0x15 and x.level == 2
    with pytest.raises(NotInField):
        tower.parse_hex("0x100", 1)
    for bad in ("15", "0x", "0xZZ", "x15", ""):
        with pytest.raises(ParseError):
            tower.parse_hex(bad, 3)


def test_format_element():
    assert tower.format_element(elem(0x15, 2), "poly") == "c2 + c1 + 1"
    assert tower.format_element(elem(0x48, 2), "poly") == "c2*c1 + c1*c0"
    assert tower.format_element(elem(0x20, 2), "poly") == "c2*c0"
    assert tower.format_element(elem(0, 2), "poly") == "0"
    assert tower.format_element(elem(0x00FA, 3), "hex") == "0xfa"
    with pytest.raises(ValueError):
        tower.format_element(elem(1, 1), "octal")


def test_hex_roundtrip():
    rng = random.Random(53)
    for level in range(-1, 7):
        for _ in range(20):
            x = tower.random_element(level, rng.getrandbits(32))
            assert tower.parse_hex(tower.format_element(x, "hex"), level) == x


# -- random ------------------------------------------------------------------


def test_random_element_determinism():
    assert tower.random_element(3, 7) == tower.random_element(3, 7)
    assert tower.random_element(0, 123).value < 4
    assert tower.random_element(2, 5).level == 2


def test_random_element_spread():
    seen = {tower.random_element(2, seed).value for seed in range(300)}
    assert len(seen) > 100  # roughly uniform over 256 values


# -- group order sanity ------------------------------------------------------


def test_multiplicative_group_size_matches_fermat_product():
    for i in range(0, 12):
        product = 1
        for j in range(i + 1):
            product *= fermat.fermat_number(j)
        assert product == (1 << tower.width_of(i)) - 1
