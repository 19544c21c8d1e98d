"""Tests for the two independent nimber oracles and the cross-checker."""

import random

import pytest

from nimtower import oracle, tower
from nimtower.errors import LevelError, OutOfOracleRange
from nimtower.oracle import nim_mul_mex, nim_mul_rec


def test_mex_base_values():
    assert nim_mul_mex(0, 200) == 0
    assert nim_mul_mex(77, 0) == 0
    assert nim_mul_mex(2, 2) == 3
    assert nim_mul_mex(4, 4) == 6
    assert nim_mul_mex(1, 99) == 99


def test_mex_out_of_range():
    with pytest.raises(OutOfOracleRange):
        nim_mul_mex(256, 1)
    with pytest.raises(OutOfOracleRange):
        nim_mul_mex(1, 300)


def test_rec_base_values():
    assert nim_mul_rec(16, 16) == 24
    assert nim_mul_rec(1, 12345) == 12345
    assert nim_mul_rec(0, 7) == 0
    assert nim_mul_rec(2, 2) == 3


def test_rec_agrees_with_mex_exhaustively():
    for a in range(256):
        for b in range(256):
            assert nim_mul_rec(a, b) == nim_mul_mex(a, b), (a, b)


def test_rec_commutative_associative_sampled():
    rng = random.Random(1234)
    for _ in range(300):
        a, b, c = (rng.getrandbits(32) for _ in range(3))
        assert nim_mul_rec(a, b) == nim_mul_rec(b, a)
        assert nim_mul_rec(nim_mul_rec(a, b), c) == nim_mul_rec(a, nim_mul_rec(b, c))


def test_rec_large_values_match_tower():
    rng = random.Random(99)
    for width in (64, 128, 256):
        for _ in range(50):
            a, b = rng.getrandbits(width), rng.getrandbits(width)
            assert nim_mul_rec(a, b) == tower.mul_values(a, b, width)


def test_nim_order_divides_group_order_exhaustive():
    # every nonzero nimber below 2^(2^(k+1)) has order dividing the group size
    for k in range(0, 3):
        size = 1 << (1 << (k + 1))
        group = size - 1
        for x in range(1, size):
            p = 1
            for _ in range(group):
                p = nim_mul_rec(p, x)
            assert p == 1, x


def test_cross_check_exhaustive_levels():
    for level, pairs in ((0, 16), (1, 256), (2, 65536)):
        report = oracle.cross_check(level)
        assert report.passed
        assert any(str(pairs) in r.detail for r in report.records)
        assert {r.check_id for r in report.records} == {
            f"oracle.l{level}.mex.exhaustive",
            f"oracle.l{level}.rec.exhaustive",
        }


def test_cross_check_sampled_levels():
    for level in (3, 4, 5, 6):
        report = oracle.cross_check(level, samples=500, seed=42)
        assert report.passed
        assert report.records[0].check_id == f"oracle.l{level}.rec.sampled"


def test_cross_check_level_bound():
    with pytest.raises(LevelError):
        oracle.cross_check(7)
