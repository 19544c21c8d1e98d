"""Tests for tower elements and field arithmetic.

Expected values for products and powers were computed with the
game-definition nimber oracle before being frozen here; see test_oracle for
the systematic cross-checks.
"""

import random
import struct

import pytest

from nimtower import fermat, tower
from nimtower.errors import (
    LevelError,
    LevelMismatch,
    NotInField,
    ParseError,
    ValidationError,
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
    from nimtower.tower import _mul, _mul_top

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
    # exhaustive: the tables read from leaf16.bin against an oracle that shares no code
    from nimtower.oracle import nim_mul_rec

    values = range(1 << 16)
    assert list(tower._SQ16) == [nim_mul_rec(x, x) for x in values]
    assert list(tower._MUL_TOP16) == [nim_mul_rec(x, 1 << 15) for x in values]
    exp = tower._EXP16
    assert exp[0] == 1 and len(exp) == 2 * 65535
    assert list(exp[1:]) == [nim_mul_rec(x, 0x200) for x in exp[:-1]]
    assert sorted(exp[:65535]) == list(range(1, 1 << 16))
    assert all(tower._LOG16[exp[i]] == i for i in range(65535))


def test_width16_tables_are_compact_arrays():
    # 16-bit typed arrays, not lists of int objects: a return to lists
    # would take the four tables from 0.65 MB back to 6.1 MB
    import sys

    tables = (tower._EXP16, tower._LOG16, tower._MUL_TOP16, tower._SQ16)
    assert [t.typecode for t in tables] == ["H"] * 4
    assert [len(t) for t in tables] == [131070, 65536, 65536, 65536]
    assert sum(map(sys.getsizeof, tables)) < 1 << 20


def test_1024_bit_product_chain_matches_recursive_oracle():
    # data-dependent operands at full width: each step feeds the last result
    from nimtower.oracle import nim_mul_rec
    from nimtower.tower import _mul, _square

    rng = random.Random(1024)
    x, y = rng.getrandbits(1024), rng.getrandbits(1024)
    for step in range(16):
        want = nim_mul_rec(x, y)
        x = _mul(x, y, 1024)
        assert x == want, ("mul", step)
        want = nim_mul_rec(x, x)
        x = _square(x, 1024)
        assert x == want, ("square", step)


@pytest.mark.parametrize("w", [1, 2, 4, 8])
def test_kernels_below_width16_read_the_logs(w):
    from nimtower.oracle import nim_mul_rec
    from nimtower.tower import _mul_top, _square

    for x in range(1 << w):
        assert _square(x, w) == nim_mul_rec(x, x), (w, x)
        assert _mul_top(x, w) == nim_mul_rec(x, 1 << (w - 1)), (w, x)


def _leaf16_from_oracle() -> bytes:
    """leaf16.bin's bytes from the recursive nimber oracle alone: the walk
    by g = c3*c0 with its full-order certificate, the inverted walk, and
    the top products and squares entry by entry."""
    from nimtower.oracle import nim_mul_rec

    order = 65535
    ring = [1]
    for _ in range(order):
        ring.append(nim_mul_rec(ring[-1], 0x200))
    # g has full order iff g^65535 = 1 and g^(65535/p) != 1 for p in 3*5*17*257
    assert ring[order] == 1 and 1 not in [ring[order // p] for p in (3, 5, 17, 257)]
    log = [0] * (1 << 16)
    for i, x in enumerate(ring[:order]):
        log[x] = i
    values = range(1 << 16)
    tables = (
        ring[:order] * 2,  # doubled: a sum of two logs needs no reduction
        log,
        [nim_mul_rec(x, 1 << 15) for x in values],
        [nim_mul_rec(x, x) for x in values],
    )
    return b"".join(struct.pack(f"<{len(t)}H", *t) for t in tables)


def test_leaf16_file_regenerates_from_the_recursive_oracle():
    with open(tower._LEAF16_PATH, "rb") as fh:
        assert fh.read() == _leaf16_from_oracle()


def _flip(entry):
    """Damage: the low bit of 16-bit entry `entry` of leaf16.bin flipped."""
    return lambda data: data[:2 * entry] + bytes([data[2 * entry] ^ 1]) + data[2 * entry + 1:]


@pytest.mark.parametrize("damage", [
    _flip(5),  # _EXP16[5]
    _flip(131070 + 0x1234),  # _LOG16[0x1234]
    _flip(196606 + 0x8000),  # _MUL_TOP16[0x8000]
    _flip(262142 + 0xBEEF),  # _SQ16[0xBEEF]
    lambda data: data[:-1],
    lambda data: data + b"\0",
    None,
], ids=["exp-entry", "log-entry", "top-entry", "square-entry", "truncated", "one-byte-extra", "missing"])
def test_a_damaged_leaf16_file_is_refused(damage, tmp_path, monkeypatch):
    names = ("_EXP16", "_LOG16", "_MUL_TOP16", "_SQ16")
    before = [getattr(tower, name) for name in names]
    bad = tmp_path / "leaf16.bin"
    if damage is not None:
        with open(tower._LEAF16_PATH, "rb") as fh:
            bad.write_bytes(damage(fh.read()))
    monkeypatch.setattr(tower, "_LEAF16_PATH", str(bad))
    with pytest.raises(ValidationError, match="leaf16.bin"):
        tower._load_leaf16()
    assert all(getattr(tower, n) is t for n, t in zip(names, before))
    assert elem(0x1234, 3) * elem(0x8000, 3) == elem(tower._MUL_TOP16[0x1234], 3)


def test_a_damaged_leaf16_file_fails_the_import(tmp_path):
    import os
    import shutil
    import subprocess
    import sys

    package = tmp_path / "nimtower"
    shutil.copytree(os.path.dirname(tower.__file__), package, ignore=shutil.ignore_patterns("__pycache__"))
    table = package / "leaf16.bin"
    table.write_bytes(table.read_bytes()[:-2])
    out = subprocess.run(
        [sys.executable, "-c", "import nimtower"],
        env=dict(os.environ, PYTHONPATH=str(tmp_path)), capture_output=True, text=True,
    )
    assert out.returncode == 1
    assert "nimtower.errors.ValidationError: width-16 tables" in out.stderr
    assert "leaf16.bin have the wrong length or crc32" in out.stderr


@pytest.mark.parametrize("w", [32, 64, 128, 256])
def test_straight_line_bases_match_recursive_oracle(w):
    # squares and top-multiplies read the slice tables; products at 64 are
    # straight-line code, wider ones recurse down to them, and those at 32
    # take the general Karatsuba step over 16-bit log products
    from nimtower.oracle import nim_mul_rec
    from nimtower.tower import _mul, _mul_top, _square

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

    sq, top = tower._SLICES[w]
    assert len(sq) == len(top) == w // 8
    for k in range(w // 8):
        assert len(sq[k]) == len(top[k]) == 256 and sq[k][0] == top[k][0] == 0
        for b in range(8):
            x = 1 << (8 * k + b)
            assert sq[k][1 << b] == nim_mul_rec(x, x), (w, k, b)
            assert top[k][1 << b] == nim_mul_rec(x, 1 << (w - 1)), (w, k, b)
        # every entry is the XOR of the basis entries over its bits
        for table in (sq[k], top[k]):
            for x in range(256):
                want = 0
                for b in range(8):
                    if x >> b & 1:
                        want ^= table[1 << b]
                assert table[x] == want, (w, k, x)


# -- wide product ------------------------------------------------------------


def test_8bit_tables_match_recursive_oracle():
    # exhaustive: the L_2 tables of the wide product, and all 65536 leaf
    # products through the kernel at width 8 (no split, just the leaves)
    from nimtower.oracle import nim_mul_rec
    from nimtower.tower import _mul_prepared, _prepare

    exp, log, top = tower._EXP8, tower._LOG8, tower._TOP8
    tables = (exp, log, top, tower._NONZERO8)
    assert all(type(t) is bytes and len(t) == 256 for t in tables)
    assert exp[0] == exp[255] == 1
    assert list(exp[1:]) == [nim_mul_rec(x, exp[1]) for x in exp[:-1]]
    assert sorted(exp[:255]) == list(range(1, 256))
    # log[0] is never read unmasked, but fixed, so that no entry can drift
    assert log[0] == 0 and all(log[exp[i]] == i for i in range(255))
    assert list(top) == [nim_mul_rec(x, 0x80) for x in range(256)]
    assert list(tower._NONZERO8) == [0] + [255] * 255
    prepared = [_prepare(b, 8) for b in range(256)]
    for a in range(256):
        got = [_mul_prepared(a, p, 8) for p in prepared]
        assert got == [nim_mul_rec(a, b) for b in range(256)], a


@pytest.mark.parametrize("index", [257 * 5, 257 * 200])
def test_an_8bit_antilog_outside_l2_is_refused(monkeypatch, index):
    # the import check: g^257 must generate L_2*, read off the 16-bit table
    for wrong in (0x1234, tower._EXP16[index + 257]):  # outside L_2; a repeat
        exp = tower._EXP16[:]
        exp[index] = wrong
        monkeypatch.setattr(tower, "_EXP16", exp)
        with pytest.raises(AssertionError, match="L_2"):
            tower._build_tables8()


def _wide_operands(w, rng):
    """Zero, one, a zero high half, one 16-bit piece set, and dense values."""
    return [
        0, 1,
        rng.getrandbits(w // 2) | 1,
        (rng.getrandbits(16) | 1) << (16 * rng.randrange(w // 16)),
        0xFFFF << (w - 16),
        rng.getrandbits(w), rng.getrandbits(w) | 1 << (w - 1),
    ]


def _wide_pairs(w, rng):
    """Each operand against a dense one, in both orders, and dense pairs."""
    values = _wide_operands(w, rng)
    dense = values[-2:]
    return [(x, d) for x in values for d in dense] + [(d, x) for x in values[:-2] for d in dense]


@pytest.mark.parametrize("w", [1 << k for k in range(tower._WIDE_BITS.bit_length() - 1, 12)])
def test_wide_products_match_recursive_oracle(w):
    from nimtower.oracle import nim_mul_rec
    from nimtower.tower import _mul, _mul_prepared, _prepare

    for x, y in _wide_pairs(w, random.Random(w)):
        want = nim_mul_rec(x, y)
        assert _mul(x, y, w) == want, (w, hex(x), hex(y))
        assert _mul_prepared(x, _prepare(y, w), w) == want, (w, hex(x), hex(y))


@pytest.mark.parametrize("w", [4096, 8192, 16384])
def test_wide_products_match_the_recursion_one_level_down(monkeypatch, w):
    # the reference is a Karatsuba step of the recursive kernel over the
    # wide path at w/2: a chain down to 2048 bits, checked against the oracle
    from nimtower.tower import _mul, _mul_prepared, _prepare

    assert w <= tower._WIDE_MAX_BITS
    pairs = _wide_pairs(w, random.Random(w))
    got = [(_mul(x, y, w), _mul_prepared(x, _prepare(y, w), w)) for x, y in pairs]
    monkeypatch.setattr(tower, "_WIDE_MAX_BITS", w // 2)
    for (x, y), (product, prepared) in zip(pairs, got):
        want = _mul(x, y, w)
        assert product == prepared == want, (w, hex(x), hex(y))


def test_nothing_above_the_wide_cap_is_prepared(monkeypatch):
    # 3^d leaves at width 8*2^d: wider products recurse down to the cap
    w = 2 * tower._WIDE_MAX_BITS
    widths = []
    prepare = tower._prepare
    monkeypatch.setattr(tower, "_prepare", lambda b, v: widths.append(v) or prepare(b, v))
    rng = random.Random(5)
    x, y = rng.getrandbits(w), rng.getrandbits(w)
    assert tower._pow(x, 3, w) == tower._mul(tower._square(x, w), x, w)
    tower._mul(x, y, w)
    assert widths and max(widths) == tower._WIDE_MAX_BITS


def test_a_power_runs_in_the_narrowest_field_of_its_base(monkeypatch):
    # the multiplies of a subfield base are prepared at the subfield's width
    widths = []
    prepare = tower._prepare
    monkeypatch.setattr(tower, "_prepare", lambda b, v: widths.append(v) or prepare(b, v))
    a = random.Random(6).getrandbits(1024) | 1 << 1023
    assert tower._pow(a, 12345, 4096) == tower._pow(a, 12345, 1024)
    assert set(widths) == {1024}


@pytest.mark.parametrize("w", [512, 1024])
def test_wide_powers_match_square_and_multiply_over_the_oracle(w):
    # multiplies by nim_mul_rec; squares by _square, which the wide path
    # does not use.  Exponents reach each window width (k = 1 below 10 bits,
    # 4 from 80), in clusters of set bits, so that the windows take many digits.
    from nimtower.oracle import nim_mul_rec

    assert tower._WIDE_BITS <= w <= tower._WIDE_MAX_BITS
    rng = random.Random(w + 1)
    a = rng.getrandbits(w) | 1 << (w - 1)
    for bits in (1, 2, 9, 23, 79, 80, 328):
        e = 1 << (bits - 1) | 1
        for _ in range(bits // 12):
            e |= rng.getrandbits(5) << rng.randrange(bits - 5)
        want = 1
        for bit in bin(e)[2:]:
            want = tower._square(want, w)
            if bit == "1":
                want = nim_mul_rec(want, a)
        assert tower._pow(a, e, w) == want, (w, bits, hex(e))
        assert tower._pow(a, e, 2 * w) == want, (2 * w, bits, hex(e))  # in a subfield


def test_kernels_are_safe_under_concurrency():
    # four threads racing through the table kernels at 32..2048 bits, and
    # through powers on the wide path, get the serial results
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(41)
    jobs = []
    for w in (32, 64, 128, 256, 512, 1024, 2048):
        for _ in range(6):
            x, y = rng.getrandbits(w), rng.getrandbits(w)
            jobs += [(tower._square, (x, w)), (tower._mul_top, (x, w)), (tower._mul, (x, y, w))]
        if w >= tower._WIDE_BITS:
            jobs += [(tower._pow, (rng.getrandbits(w), rng.getrandbits(e), w)) for e in (40, 100)]
    serial = [f(*args) for f, args in jobs]
    start = threading.Barrier(4)

    def run(seed):
        order = list(range(len(jobs)))
        random.Random(seed).shuffle(order)
        start.wait()
        return {k: jobs[k][0](*jobs[k][1]) for k in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = [f.result() for f in [pool.submit(run, seed) for seed in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert [got[k] for k in range(len(jobs))] == serial


def test_tables_are_built_at_import():
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(tower.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # the square slices of a width's low bytes are the half width's lists
    probe = "\n".join([
        "import nimtower.tower as t",
        "print(len(t._EXP16), sorted(t._SLICES))",
        "sq = {w: t._SLICES[w][0] for w in t._SLICES}",
        "print(all(sq[w][k] is sq[w // 2][k] for w in (64, 128, 256) for k in range(w // 16)))",
    ])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert out.stdout == "131070 [32, 64, 128, 256]\nTrue\n"


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
    from nimtower.tower import _mul, _mul_top, _square

    rng = random.Random(3)
    for level in range(1, 9):
        w = tower.width_of(level)
        half = w >> 1
        for _ in range(100):
            v = rng.getrandbits(w)
            vh, vl = v >> half, v & ((1 << half) - 1)
            norm = _mul_top(_square(vh, half), half) ^ _mul(vh, vl, half) ^ _square(vl, half)
            assert norm >> half == 0  # lands one level down


# -- subfield inputs ---------------------------------------------------------
# A value whose high half is zero runs the same formulas as any other: the
# kernels keep no shortcut for it.


def _subfield_values(w):
    """1, the half field's top monomial 2^(w/2-1), and seeded nonzero values
    of the half- and quarter-width subfields of the width-w field."""
    rng = random.Random(w)
    half = [rng.getrandbits(w >> 1) or 1 for _ in range(3)]
    quarter = [rng.getrandbits(w >> 2) or 1 for _ in range(2)]
    return [1, 1 << ((w >> 1) - 1)] + half + quarter


SUBFIELD_WIDTHS = [32, 64, 128, 256, 512, 1024, 2048, 4096]


@pytest.mark.parametrize("w", SUBFIELD_WIDTHS)
def test_inverse_and_norm_split_of_subfield_values(w):
    # the inverse is al*(al^2)^-1, and conj(a)/a = 1 with norm a^2
    from nimtower.tower import _inv, _mul, _square

    half = w >> 1
    for a in _subfield_values(w):
        inverse = _inv(a, w)
        assert inverse == _inv(a, half), (w, hex(a))
        assert _mul(a, inverse, w) == 1, (w, hex(a))
        assert tower.norm_split_values(a, w) == (1, _square(a, half)), (w, hex(a))


@pytest.mark.parametrize("w", SUBFIELD_WIDTHS)
def test_products_of_subfield_values_stay_in_the_half_field(w):
    # both high halves zero: the one-half branch with a zero cross term
    from nimtower.tower import _mul

    values = _subfield_values(w)
    for a in values:
        for b in values:
            assert _mul(a, b, w) == _mul(a, b, w >> 1), (w, hex(a), hex(b))


def test_top_multiply_of_zero_above_the_slice_tables():
    for w in (512, 1024, 2048, 4096):
        assert tower._mul_top(0, w) == 0, w


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


def _oracle_pow(a, e, w=None):
    """Left-to-right square-and-multiply over nim_mul_rec, unreduced (w unused)."""
    from nimtower.oracle import nim_mul_rec

    r = 1
    for bit in bin(e)[2:]:
        r = nim_mul_rec(r, r)
        if bit == "1":
            r = nim_mul_rec(r, a)
    return r


def test_every_l2_power_matches_square_and_multiply_over_the_oracle():
    # powers in L_3 and below are log-table reads, which the corrupted-kernel
    # self-test does not reach: every base of L_2, exponents 0..600 and k*255 + r
    exponents = list(range(601)) + [k * 255 + r for k in (3, 1000, 1 << 70) for r in (0, 1, 2, 254)]
    for a in range(256):
        x = elem(a, 2)
        for e in exponents:
            want = _oracle_pow(a, e)
            assert tower._pow(a, e, 8) == want, (a, e)
            if a or e:
                assert x.pow(e).value == want, (a, e)
    with pytest.raises(ZeroToZero):
        elem(0, 2).pow(0)


def test_l3_powers_match_square_and_multiply_over_the_oracle():
    n21 = fermat.fermat_number(21)
    rng = random.Random(18)
    bases = [0, 1, 0x100, 0x200, 0xFFFF] + [rng.randrange(2, 1 << 16) for _ in range(40)]
    for a in bases:
        x = elem(a, 3)
        for e in (0, 1, 65534, 65535, 65536, n21):
            # a nonzero base has order dividing 65535; the added 65535 keeps 0^e at 0
            want = _oracle_pow(a, e if e <= 65536 else e % 65535 + 65535)
            for w in (16, 32, 128):
                assert tower._pow(a, e, w) == want, (hex(a), e, w)
            if a or e:
                assert x.pow(e).value == want, (hex(a), e)
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


# Window width k of _pow by the exponent's length: from each cut point on.
WINDOW_CUTS = {1: 1, 10: 2, 24: 3, 80: 4}


def _window_bits(bits):
    return max(k for cut, k in WINDOW_CUTS.items() if bits >= cut)


def _window_exponents(bits, rng):
    """Exponents of `bits` bits, cut into windows of the width the rule picks
    for them: a window ending at bit 0, trailing zeros after the last window,
    and zero runs one bit longer and one bit shorter than a window."""
    k = _window_bits(bits)
    top = 1 << (bits - 1)
    runs = "1" + "0" * (k + 1) + "1" * k + "0" * (k - 1) + "1"
    return [
        rng.getrandbits(bits) | top | 1,
        (rng.getrandbits(bits - k - 3) | top >> (k + 3) | 1) << (k + 3),
        int(runs + "1" * (bits - len(runs)), 2),
    ]


def test_pow_sliding_windows_match_plain(monkeypatch):
    # exponents one bit either side of each cut point, at every level where
    # they are not reduced; the width k shows in the table of odd powers,
    # a^3 .. a^(2^k - 1) each one multiply by a^2 (prepared on the wide path)
    rng = random.Random(44)
    factors = []
    for name in ("_mul", "_mul_prepared"):
        kernel = getattr(tower, name)
        monkeypatch.setattr(tower, name, lambda x, b, w, f=kernel: factors.append(b) or f(x, b, w))
    for level in (4, 5, 6, 7, 8):
        w = tower.width_of(level)
        order = (1 << w) - 1
        for a in (rng.getrandbits(w) | 1 << (w - 1), 1 << (w - 1) | 1):
            square = tower._square(a, w)
            if w >= tower._WIDE_BITS:
                square = tower._prepare(square, w)
            for bits in [b for cut in WINDOW_CUTS for b in (cut - 1, cut, cut + 1) if 9 <= b < w]:
                k = _window_bits(bits)
                for e in _window_exponents(bits, rng):
                    factors.clear()
                    got = tower._pow(a, e, w)
                    assert factors.count(square) == (1 << (k - 1)) - 1, (level, bits, k)
                    assert got == _pow_plain(a, e, w), (level, hex(a), bits, hex(e))
            for e in (order, order + 1, 2 * order + 77, (1 << 200) - 1, (1 << 200) + 1,
                      (1 << 300) + 5):
                assert tower._pow(a, e, w) == _pow_plain(a, e, w), (level, hex(a), hex(e))


def test_pow_windows_cut_short_at_bit_0_match_plain():
    # windows run from the top down, so the lowest one may reach bit 0 with
    # fewer than k bits left: every pattern of the 6 lowest bits under a
    # random top, at each window width k
    rng = random.Random(45)
    for bits, w in ((9, 32), (10, 32), (24, 64), (80, 128)):
        a = rng.getrandbits(w) | 1 << (w - 1)
        high = (rng.getrandbits(bits - 6) | 1 << (bits - 7)) << 6
        for low in range(64):
            assert tower._pow(a, high | low, w) == _pow_plain(a, high | low, w), (w, bits, low)


def test_shared_table_powers_match_separate_powers(monkeypatch):
    # _powers builds one table of odd powers, for the longest exponent, and
    # each exponent reads it: the same bits as one _pow per exponent, with
    # the fixed factors of the wide path prepared once for all of them
    rng = random.Random(46)
    prepared = []
    prepare = tower._prepare
    monkeypatch.setattr(tower, "_prepare", lambda b, w: prepared.append(w) or prepare(b, w))
    for w in (32, 64, 128, 256, 512, 1024, 2048, 4096):
        order = (1 << w) - 1
        e9, e23, e79, e80 = (rng.getrandbits(b) | 1 << (b - 1) for b in (9, 23, 79, 80))
        groups = [(0, e23), (order, e9), (3 * order, 0, order + 5), (e9, e79), (e80, e23, 5),
                  (e23, e23)]
        if w <= 1024:
            groups.append((rng.getrandbits(200) | 1 << 199, e9))
        half = rng.getrandbits(w >> 1) | 1 << ((w >> 1) - 1)
        bases = [rng.getrandbits(w) | 1 << (w - 1), half, 0, 1, rng.getrandbits(16) | 1]
        for a in bases:
            for exponents in groups:
                got = tower._powers(a, exponents, w)
                assert got == [tower._pow(a, e, w) for e in exponents], (w, hex(a), exponents)
                if a and w <= 256:
                    assert got == [_pow_plain(a, e % order, w) for e in exponents], (w, hex(a))
        if w in (512, 1024):
            # 4-bit windows: a^2 and the odd powers a .. a^15, once
            prepared.clear()
            tower._powers(bases[0], (e80, e23, e9), w)
            assert prepared == [w] * 9
    assert tower._powers(0, (0, 0, 7), 64) == [1, 1, 0]


def test_powers_whose_running_value_passes_through_1():
    # y = conj(x)/x has order dividing N_j at level j, far below 2^w - 1, so
    # y^(m*N_j*2^t + r) may reach y^(m*N_j) = 1 between two windows and go
    # on from it (y^(N_j*2^16) does at every level): 1 is a value there, not
    # the mark of a power that has no window yet
    rng = random.Random(48)
    for level in range(4, 11):
        w = tower.width_of(level)
        n = fermat.fermat_number(level)
        y = tower.norm_split_values(rng.getrandbits(w) | 1 << (w - 1), w)[0]
        exponents = [n, n * 5 + 2, (3 * n << 4) + 5, (7 * n << 9) + 300, n << 16]
        exponents.append((11 * n << 13) + rng.getrandbits(13))
        want = [(_oracle_pow if w <= 128 else _pow_plain)(y, e, w) for e in exponents]
        assert want[0] == 1 and want[1] == tower._square(y, w), level
        assert tower._powers(y, exponents, w) == want, level
        assert [tower._pow(y, e, w) for e in exponents] == want, level


def test_pow_windowed_path_matches_plain():
    # a 200-bit exponent (4-bit windows) against two powers of its halves
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
            assert tower._pow(0, e, w) == 0
        assert tower._pow(0, 0, w) == 1


def test_zeroth_powers_and_powers_of_zero_at_every_width():
    # TowerElement.pow leaves both to _pow, which narrows x to its own field
    for level in range(-1, 10):
        zero, one = tower.zero(level), tower.one(level)
        elements = seeded(level, 3, 59) + [one]
        if level >= 0:
            elements.append(generator("c", 0, level))
        for x in elements:
            if x.value:
                assert x.pow(0) == one, (level, x)
        for e in (1, 2, 3, (1 << tower.width_of(level)) - 1, 1 << 70):
            assert zero.pow(e) == zero, (level, e)
        with pytest.raises(ZeroToZero):
            zero.pow(0)


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
    assert tower.parse_hex("0xaB", 3).value == 0xAB
    # a lowercase 0x, at least one digit and nothing else: int(s, 16) alone
    # would take the prefix 0X, underscores, signs and surrounding space
    bad_literals = ("15", "0x", "0xZZ", "x15", "", "0X15", "0x1_5", "0x-1", "-0x1", " 0x15", "0x15 ", "0x15\n")
    for bad in bad_literals:
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
