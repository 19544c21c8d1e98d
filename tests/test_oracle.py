"""Tests for the two independent nimber oracles and the cross-checker."""

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import nimtower
from nimtower import cli, oracle, orders, tower
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
            assert nim_mul_rec(a, b) == tower._mul(a, b, width)


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


# The tower's product kernels as the recursive oracle computes them; a
# prepared factor is the factor itself.
_ORACLE_KERNELS = {
    "_mul": lambda a, b, w: nim_mul_rec(a, b),
    "_square": lambda a, w: nim_mul_rec(a, a),
    "_mul_top": lambda x, w: nim_mul_rec(x, 1 << (w - 1)),
    "_mul_prepared": lambda a, b, w: nim_mul_rec(a, b),
    "_prepare": lambda b, w: b,
}


def _oracle_powers(a, exponents, w):
    """[a^e for e in exponents] by plain square-and-multiply, each product
    taken through tower._square and tower._mul as the replay binds them."""
    results = []
    for e in exponents:
        r = 1
        for bit in bin(e)[2:]:
            r = tower._square(r, w)
            if bit == "1":
                r = tower._mul(r, a, w)
        results.append(r)
    return results


# The second replay's kernels: the powers too, so no window rule and no
# log-table power derives a record.
_ORACLE_POWER_KERNELS = {
    **_ORACLE_KERNELS,
    "_pow": lambda a, e, w: _oracle_powers(a, (e,), w)[0],
    "_powers": _oracle_powers,
}


def _kernel_body_ran(*args):
    raise AssertionError("a production kernel body ran during the oracle replay")


def replay_verify_all(max_level: int, kernels=_ORACLE_KERNELS) -> tuple[int, str, int]:
    """Run `verify all --max-level max_level` in process with the tower's
    kernels named in `kernels` replaced by their values there, each
    product by nim_mul_rec: (exit code, stdout, oracle products).  The
    production kernels' bodies are swapped for one that raises
    AssertionError, so a kernel reached through a reference bound before
    the patch fails the replay instead of passing it silently.  The
    descent-step memo is cleared first, so every step is recomputed."""
    products = [0]

    def counted(kernel):
        def run(*args):
            products[0] += 1
            return kernel(*args)

        return run

    originals = {name: getattr(tower, name) for name in kernels}
    codes = {name: kernel.__code__ for name, kernel in originals.items()}
    try:
        for name, kernel in originals.items():
            kernel.__code__ = _kernel_body_ran.__code__
            replacement = kernels[name]
            if name not in ("_prepare", "_pow", "_powers"):  # powers count via _square, _mul
                replacement = counted(replacement)
            setattr(tower, name, replacement)
        orders._y_step.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = cli.main(["verify", "all", "--max-level", str(max_level)])
    finally:
        for name, kernel in originals.items():
            kernel.__code__ = codes[name]
            setattr(tower, name, kernel)
    return rc, out.getvalue(), products[0]


def test_verify_all_to_level_8_replays_byte_identically_through_the_recursive_oracle():
    """A whole report derived a second way: every product, square, top
    multiply and prepared multiply of the run goes through nim_mul_rec,
    which shares no code with the kernels.  The leaf tables (the
    log-table powers and orders below 2^16, _inv's base) and the structure
    of _inv, norm_value and the power loop stay in the loop;
    tests/test_tower.py's regeneration of leaf16.bin from nim_mul_rec
    covers the tables."""
    orders._y_step.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(["verify", "all", "--max-level", "8"])
    replayed_rc, replayed, products = replay_verify_all(8)
    assert (replayed_rc, replayed) == (rc, out.getvalue())
    assert rc == 1 and products > 2000


def test_verify_all_to_level_8_replays_byte_identically_with_the_powers_through_the_oracle():
    """The second replay: _pow and _powers are plain square-and-multiply
    over nim_mul_rec as well, and their production bodies raise too."""
    orders._y_step.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(["verify", "all", "--max-level", "8"])
    replayed_rc, replayed, products = replay_verify_all(8, _ORACLE_POWER_KERNELS)
    assert (replayed_rc, replayed) == (rc, out.getvalue())
    assert rc == 1 and products > 10000


def test_an_oracle_replay_refuses_a_kernel_bound_before_the_patch(monkeypatch):
    # orders calls the kernels through `tower` at call time; a kernel bound
    # before the patch, here in a correct norm a*conj(a), would bypass the
    # replay, and must fail it
    mul = tower._mul
    monkeypatch.setattr(tower, "norm_value", lambda a, w: mul(a, a ^ (a >> (w >> 1)), w))
    with pytest.raises(AssertionError, match="production kernel body ran"):
        replay_verify_all(4)
