"""Tests for the two independent nimber oracles and the cross-checker."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import nimtower
from nimtower import oracle, tower
from nimtower.errors import LevelError, OutOfOracleRange, ValidationError
from nimtower.oracle import MEX_ORACLE_BOUND, nim_mul_mex, nim_mul_rec


def _build_mex_table() -> "np.ndarray":
    """Fill a*b = mex{a'*b ^ a*b' ^ a'*b'} bottom-up for all a, b < 256.

    Row/column/block slices of the partially filled table give the option
    set of each cell; commutativity halves the work.  numpy is imported
    here, not at module level, so that only this regeneration loads it.
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


def test_mex_table_regenerates_from_the_definition():
    np = pytest.importorskip("numpy")
    t = _build_mex_table()
    assert int(t.max()) < 256  # one byte per product
    rebuilt = t.astype(np.uint8).tobytes()
    with open(oracle._MEX_TABLE_PATH, "rb") as fh:
        assert fh.read() == rebuilt
    assert hashlib.sha256(rebuilt).hexdigest() == oracle._MEX_TABLE_SHA256


@pytest.mark.parametrize("corrupt", [
    lambda data: data[:514] + bytes([data[514] ^ 1]) + data[515:],  # entry 2*256+2: 2*2 = 3 turned 2
    lambda data: data[:-1],
], ids=["one-byte-changed", "truncated"])
def test_a_corrupted_mex_table_is_refused(corrupt, tmp_path, monkeypatch):
    with open(oracle._MEX_TABLE_PATH, "rb") as fh:
        data = fh.read()
    bad = tmp_path / "mex256.bin"
    bad.write_bytes(corrupt(data))
    monkeypatch.setattr(oracle, "_MEX_TABLE_PATH", str(bad))
    monkeypatch.setattr(oracle, "_mex_table", None)
    for a, b in ((2, 2), (5, 7), (2, 2)):
        with pytest.raises(ValidationError, match="mex256.bin"):
            nim_mul_mex(a, b)
    assert oracle._mex_table is None


def test_a_missing_mex_table_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(oracle, "_MEX_TABLE_PATH", str(tmp_path / "mex256.bin"))
    monkeypatch.setattr(oracle, "_mex_table", None)
    with pytest.raises(ValidationError, match="mex256.bin"):
        nim_mul_mex(3, 3)


def test_the_mex_oracle_runs_with_numpy_blocked():
    # nothing under src/ imports numpy: with every import of it made to
    # fail, the level-2 cross-check, its CLI command and criterion 01's
    # refutation of the level-2 example all pass
    tests = str(Path(__file__).parent)
    probe = "\n".join([
        "import sys",
        "sys.modules['numpy'] = None",
        f"sys.path.insert(0, {tests!r})",
        "import contextlib, io",
        "from nimtower import cli, oracle",
        "from test_acceptance import _oracle_closing_example",
        "assert oracle.cross_check(2).passed",
        "with contextlib.redirect_stdout(io.StringIO()) as out:",
        "    assert cli.main(['oracle-check', '--level', '2']) == 0",
        "assert out.getvalue().count('OK oracle.l2.') == 2, out.getvalue()",
        "facts = _oracle_closing_example()",
        "assert len(facts) == 8 and all(",
        "    f['fourth'] == f['sum'] and f['o_sum'] == 85",
        "    and f['fifth'] == f['c2c1+c1c0'] != f['sum'] and f['o_fifth'] == 17",
        "    for f in facts.values()",
        ")",
    ])
    src = str(Path(nimtower.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr


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
