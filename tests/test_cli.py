"""End-to-end tests of the command-line interface."""

import sys
from pathlib import Path

import pytest

from nimtower import cli, oracle, tower
from nimtower.cli import main, parse_nat
from nimtower.errors import ArithmeticFault, ParseError
from nimtower.tower import TowerElement


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "c2*c0")
    assert code == 0 and out == "0x20@L2\n"
    code, out, _ = run(capsys, "eval", "c2^4", "--format", "poly")
    assert code == 0 and out == "c2 + c1 + 1\n"


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "c2^^5")
    assert code == 2
    assert "offset 3" in err


def test_eval_deep_nesting_exit_2(capsys):
    code, out, err = run(capsys, "eval", "(" * 3000 + "c1" + ")" * 3000)
    assert code == 2 and out == ""
    assert "nested deeper" in err


def test_eval_above_level_ceiling_exit_1(capsys):
    for expression in ("c30", "c40", "c2^N30"):
        code, out, err = run(capsys, "eval", expression)
        assert code == 1 and out == ""
        assert "LevelError" in err, expression
    code, out, _ = run(capsys, "eval", "c13")
    assert code == 0 and out == f"{1 << (1 << 13):#x}@L13\n"


def test_eval_power_work_is_bounded_exit_1(capsys):
    import time

    started = time.perf_counter()
    code, out, err = run(capsys, "eval", "(c13+c1)^N12")
    assert time.perf_counter() - started < 1.0
    assert code == 1 and out == ""
    assert "LevelError" in err and "power work" in err
    code, out, _ = run(capsys, "eval", "(c12+c1)^N11")
    assert code == 0 and out.endswith("@L12\n")


def test_order(capsys):
    code, out, _ = run(capsys, "order", "c2*c0")
    assert code == 0 and out == "255 = 3 * 5 * 17\n"
    code, out, _ = run(capsys, "order", "c2")
    assert out == "85 = 5 * 17\n"
    code, out, _ = run(capsys, "order", "1")
    assert out == "1\n"


def test_order_of_zero_exit_1(capsys):
    for expression in ("0", "0x0@L3"):
        code, out, err = run(capsys, "order", expression)
        assert code == 1 and out == ""
        assert "ZeroElement" in err, expression


def test_order_missing_factorization_exit_1(capsys):
    code, _, err = run(capsys, "order", "c12")
    assert code == 1
    assert "MissingFactorization" in err


def test_primitive(capsys):
    code, out, _ = run(capsys, "primitive", "c2*c0")
    assert code == 0 and out == "primitive true index 1\n"
    code, out, _ = run(capsys, "primitive", "c2")
    assert code == 0 and out == "primitive false index 3\n"
    code, out, _ = run(capsys, "primitive", "1")
    assert code == 0 and out == "primitive true index 1\n"


def test_alpha_chain(capsys):
    code, out, _ = run(capsys, "alpha-chain", "3")
    assert code == 0
    assert out.splitlines() == [
        "alpha_3 = 257",
        "alpha_2 = 17",
        "alpha_1 = 5",
        "product = 21845",
    ]
    code, out, _ = run(capsys, "alpha-chain", "2", "--base", "a")
    assert code == 0 and out.splitlines()[-1] == "product = 85"


def test_min_exponent(capsys):
    code, out, _ = run(capsys, "min-exponent", "5")
    assert code == 0 and out == "4294967297\n"


def test_factors(capsys):
    code, out, _ = run(capsys, "factors")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N0: 3"
    assert "N5: 641 6700417" in lines
    assert any(line.startswith("OK table.N11.product") for line in lines)


def test_factor_file_override(tmp_path, capsys):
    path = tmp_path / "factors.txt"
    path.write_text("# override with the same data\nN5: 641 6700417\n")
    code, out, _ = run(capsys, "order", "c2", "--factor-file", str(path))
    assert code == 0 and out == "85 = 5 * 17\n"
    bad = tmp_path / "bad.txt"
    bad.write_text("N5: 641 6700418\n")
    code, _, err = run(capsys, "order", "c2", "--factor-file", str(bad))
    assert code == 1 and "ValidationError" in err


def test_factor_file_merged_table_gives_the_same_answers(tmp_path, capsys):
    # the override's entries are new objects, so group orders from level 3
    # up take the checked path rather than the prebuilt one
    path = tmp_path / "factors.txt"
    path.write_text("N3: 257\nN5: 641 6700417\n")
    for argv in (("order", "c3*c0"), ("order", "c6+c1"), ("primitive", "c5*c0"),
                 ("primitive", "c4"), ("order", "c2+c1+1")):
        plain = run(capsys, *argv)
        assert plain[0] == 0 and plain[1]
        assert run(capsys, *argv, "--factor-file", str(path)) == plain, argv


def test_factor_file_composite_factor_exit_1(tmp_path, capsys):
    # N5 = 641 * 6700417 passes the product and congruence checks as one factor
    path = tmp_path / "composite.txt"
    path.write_text("N5: 4294967297\n")
    code, out, err = run(capsys, "order", "c5^641", "--factor-file", str(path))
    assert code == 1 and out == ""
    assert "ValidationError" in err and "4294967297 is not prime" in err
    code, out, _ = run(capsys, "primitive", "c5^641*c0", "--factor-file", str(path))
    assert code == 1 and out == ""


def test_factor_file_bad_factor_exit_2_names_its_line(tmp_path, capsys):
    path = tmp_path / "typo.txt"
    for text in ("# letter O for zero\nN4: 65537\nN5: 641 67OO417\n", "\n\nN5: 641 6700417 # note\n"):
        path.write_text(text)
        code, out, err = run(capsys, "factors", "--factor-file", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: line 3: not a decimal natural number: "), err


def test_factor_file_missing_exit_2(tmp_path, capsys):
    path = tmp_path / "no-such-file.txt"
    code, out, err = run(capsys, "order", "c2", "--factor-file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read factor file") and err.count("\n") == 1


def test_factor_file_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# \xe9t\xe9\nN5: 641 6700417\n")
    code, out, err = run(capsys, "primitive", "c5", "--factor-file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read factor file") and err.count("\n") == 1


def test_parse_nat_hex_convenience():
    assert parse_nat("0x20") == 32
    assert parse_nat("0XfF") == 255
    assert parse_nat("255") == 255
    with pytest.raises(ParseError):
        parse_nat("0x")
    with pytest.raises(ParseError):
        parse_nat("0xg1")


def test_nim_mul(capsys):
    code, out, _ = run(capsys, "nim-mul", "16", "16")
    assert code == 0 and out == "24\n"
    code, out, _ = run(capsys, "nim-mul", "0x10", "0x10")
    assert code == 0 and out == "0x18\n"


def test_nim_mul_refuses_an_operand_above_16384_bits(capsys, monkeypatch):
    # the recursive product takes about 4.5x longer per doubling of the
    # width; an operand one bit too wide is refused before any multiply
    monkeypatch.setattr(oracle, "nim_mul_rec", lambda a, b: pytest.fail("multiplied"))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)  # 2^16384 has 4933 decimal digits
    try:
        wide = 1 << cli._NIM_MUL_MAX_BITS
        for a, b in [(hex(wide), "0x3"), ("2", str(wide))]:
            code, out, err = run(capsys, "nim-mul", a, b)
            assert code == 1 and out == "" and "LevelError" in err
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_nim_mul_accepts_a_16384_bit_operand(capsys):
    widest = (1 << cli._NIM_MUL_MAX_BITS) - 1
    code, out, _ = run(capsys, "nim-mul", hex(widest), "0x2")
    assert code == 0
    assert int(out, 16) == TowerElement(14, widest).mul(TowerElement(14, 2)).value


def test_oracle_check_single_level(capsys):
    code, out, _ = run(capsys, "oracle-check", "--level", "1")
    assert code == 0
    assert out.splitlines() == [
        "OK oracle.l1.mex.exhaustive 256 pairs vs mex definition",
        "OK oracle.l1.rec.exhaustive 256 pairs vs direct recursion",
    ]


def test_oracle_check_sampled(capsys):
    code, out, _ = run(capsys, "oracle-check", "--level", "4", "--samples", "200")
    assert code == 0
    assert "oracle.l4.rec.sampled" in out


def test_verify_thm5_level5(capsys):
    code, out, _ = run(capsys, "verify", "thm5", "--level", "5")
    assert code == 0
    assert out.splitlines() == [
        "OK thm5.j05.eq1 c_5^(N_5) = a_4",
        "OK thm5.j05.q0 c_5^(N_5/641) not in L_4",
        "OK thm5.j05.q1 c_5^(N_5/6700417) not in L_4",
    ]


def test_verify_thm5_missing_level(capsys):
    code, out, _ = run(capsys, "verify", "thm5", "--level", "12")
    assert code == 1
    assert out.startswith("FAIL thm5.j12.factorization MissingFactorization")


def test_verify_example_l2_reports_refutations(capsys):
    code, out, _ = run(capsys, "verify", "example-l2")
    assert code == 1
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("OK ")) == 3
    fails = [l.split()[1] for l in lines if l.startswith("FAIL ")]
    assert fails == ["l2ex.fifth-power", "l2ex.order-sum"]
    assert lines == sorted(lines, key=lambda l: l.split()[1])


def test_verify_report_grammar_and_determinism(capsys):
    code1, out1, _ = run(capsys, "verify", "lemma5", "--max-level", "4")
    code2, out2, _ = run(capsys, "verify", "lemma5", "--max-level", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    ids = []
    for line in out1.splitlines():
        status, check_id, detail = line.split(" ", 2)
        assert status in ("OK", "FAIL")
        ids.append(check_id)
    assert ids == sorted(ids)


def test_verify_jobs_output_identical(capsys):
    _, default, _ = run(capsys, "verify", "lemma6", "--max-level", "4")
    _, one, _ = run(capsys, "verify", "lemma6", "--max-level", "4", "--jobs", "1")
    assert default == one


def test_verify_all_jobs_matches_golden(capsys):
    golden = Path(__file__).parents[1] / "perfbench/golden/verify_all_max-level_4_jobs_1.txt"
    code, out, _ = run(capsys, "verify", "all", "--max-level", "4", "--jobs", "1")
    assert code == 1 and out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("jobs", ["2", "0"])
def test_verify_jobs_accepts_only_1(capsys, jobs):
    # verify runs in one process so that its tasks share the step memo
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--max-level", "4", "--jobs", jobs])
    assert exc.value.code == 2


def _raising_at_width(kernel, width):
    def kernel_or_fault(*args):
        if args[-1] == width:
            raise ArithmeticFault(f"injected at width {width}")
        return kernel(*args)

    return kernel_or_fault


@pytest.mark.parametrize(
    "target, level, check_id",
    [
        ("lemma5", "5", "lemma5.i05.error"),
        ("lemma6", "5", "lemma6.i05.error"),
        ("thm1", "5", "thm1.i05.error"),
        ("thm2", "5", "thm2.i05.error"),
        ("thm5", "5", "thm5.j05.error"),
        ("cor", "5", "cor.i05.error"),
        ("example-l2", None, "l2ex.error"),
        ("thm5", "12", "thm5.j12.factorization"),
        ("cor", "12", "cor.i12.factorization"),
    ],
)
def test_verify_error_records_name_their_family(capsys, monkeypatch, target, level, check_id):
    # a suite that raises is one FAIL record, <family>.<i|j>NN.error, or
    # .factorization when the factor table lacks the level
    monkeypatch.setattr(tower, "norm_value", _raising_at_width(tower.norm_value, 64))  # L5
    monkeypatch.setattr(tower, "_pow", _raising_at_width(tower._pow, 8))  # L2
    code, out, _ = run(capsys, "verify", target, *(("--level", level) if level else ()))
    assert code == 1
    [line] = out.splitlines()
    kind = "MissingFactorization" if check_id.endswith(".factorization") else "ArithmeticFault"
    assert line.startswith(f"FAIL {check_id} {kind}: ")


def test_verify_all_level_acts_as_max_level(capsys):
    for top in ("0", "3"):
        _, by_level, _ = run(capsys, "verify", "all", "--level", top)
        _, by_max, _ = run(capsys, "verify", "all", "--max-level", top)
        assert by_level == by_max
    # below every family's first level only the level-2 example is left
    _, out, _ = run(capsys, "verify", "all", "--level", "0")
    assert {line.split()[1].split(".")[0] for line in out.splitlines()} == {"l2ex"}


def test_verify_single_level_flag(capsys):
    code, out, _ = run(capsys, "verify", "thm1", "--level", "4")
    assert code == 0
    assert all(".i04" in line.split()[1] for line in out.splitlines())


def test_verify_timing_flag(capsys):
    _, out, _ = run(capsys, "verify", "lemma5", "--level", "2", "--timing")
    assert out.splitlines()[-1].startswith("# elapsed ")


def test_verify_all_composition(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-level", "3")
    assert code == 1  # the example-l2 refutations are part of `all`
    ids = [line.split()[1] for line in out.splitlines()]
    assert any(i.startswith("lemma5.eq1") for i in ids)
    assert any(i.startswith("lemma6.eq3") for i in ids)
    assert any(i.startswith("thm1.membership") for i in ids)
    assert any(i.startswith("thm2.membership") for i in ids)
    assert any(i.startswith("cor.i02") for i in ids)
    assert any(i.startswith("l2ex.") for i in ids)
    assert not any(i.startswith("thm5.") for i in ids)  # thm5 starts at level 5
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert all(line.split()[1].startswith("l2ex.") for line in fails)


def test_bench_runs(capsys):
    code, out, _ = run(capsys, "bench", "--max-level", "1", "--samples", "4")
    assert code == 0
    assert out.splitlines()[0].startswith("level  0:")


def test_bench_above_the_level_ceiling_exit_1(capsys):
    import time

    started = time.perf_counter()
    code, out, err = run(capsys, "bench", "--max-level", "25")
    assert time.perf_counter() - started < 1.0
    assert code == 1 and out == ""
    assert "LevelError" in err


@pytest.mark.parametrize(
    "argv, first",
    [
        (("verify", "lemma5", "--max-level", "0"), 1),
        (("verify", "lemma6", "--max-level", "1"), 2),
        (("verify", "thm1", "--max-level", "1"), 2),
        (("verify", "thm5", "--max-level", "4"), 5),
        (("verify", "cor", "--max-level", "1"), 2),
        (("bench", "--max-level", "-1"), 0),
        (("verify", "lemma5", "--level", "0"), 1),
        (("verify", "lemma6", "--level", "1"), 2),
        (("verify", "thm1", "--level", "1"), 2),
        (("verify", "thm2", "--level", "1"), 2),
        (("verify", "thm5", "--level", "4"), 5),
        (("verify", "cor", "--level", "1"), 2),
    ],
    ids=["lemma5", "lemma6", "thm1", "thm5", "cor", "bench",
         "lemma5-level", "lemma6-level", "thm1-level", "thm2-level", "thm5-level", "cor-level"],
)
def test_a_sweep_that_checks_nothing_exit_1(capsys, argv, first):
    # an empty plan would print nothing and exit 0, as if it had passed; a
    # single level below the family's first is refused the same way
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "LevelError" in err and f"starts at level {first}," in err


@pytest.mark.parametrize("flag, level", [("--level", "25"), ("--max-level", "-1")])
def test_example_l2_refuses_any_level(capsys, flag, level):
    # the example has no levels, so a level flag would be silently dropped
    code, out, err = run(capsys, "verify", "example-l2", flag, level)
    assert code == 1 and out == ""
    assert f"LevelError: verify example-l2 has no levels, got {flag} {level}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("bench", "--max-level", "0", "--samples", "0"),
        ("oracle-check", "--level", "3", "--samples", "0"),
        ("oracle-check", "--level", "3", "--samples", "-5"),
        ("factors", "--check-primality", "--mr-rounds", "-1"),
        ("factors", "--mr-rounds", "0"),
    ],
)
def test_count_flags_need_a_positive_integer(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_usage_error_exit_2():
    # --level and --max-level are exclusive: neither is silently dropped
    for argv in (["no-such-command"], ["verify", "thm5", "--level", "6", "--max-level", "9"],
                 ["verify", "all", "--level", "2", "--max-level", "9"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_help_lists_flags():
    parser_help = {}
    import contextlib
    import io

    for cmd in ("eval", "order", "verify", "factors", "oracle-check", "bench"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        parser_help[cmd] = buf.getvalue()
    assert "--format" in parser_help["eval"]
    assert "--factor-file" in parser_help["order"]
    for flag in ("--level", "--max-level", "--factor-file", "--jobs", "--timing"):
        assert flag in parser_help["verify"]
    # --level's two meanings, whatever the help's line breaks
    assert "one level; for `all`, sweep up to it" in " ".join(parser_help["verify"].split())
    for flag in ("--check-primality", "--mr-rounds"):
        assert flag in parser_help["factors"]
    for flag in ("--samples", "--seed"):
        assert flag in parser_help["oracle-check"]


def test_core_library_does_not_import_numpy():
    # nothing under src/ imports numpy; the verify suites and the order
    # queries run without it
    import os
    import subprocess
    import sys

    import nimtower

    probe = "\n".join([
        "import contextlib, io, sys",
        "import nimtower as n",
        "from nimtower import cli, expr",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['verify', 'all', '--max-level', '4']) == 1",
        "x = n.generator('c', 4, 4) * n.generator('c', 0, 4)",
        "n.is_primitive(x)",
        "n.multiplicative_order(x, n.group_order(4, n.builtin_factor_table()))",
        "n.alpha_chain(4, 'c')",
        "n.minimal_subfield_exponent(4)",
        "expr.evaluate('(c4+c1)^N3')",
        "print('numpy' in sys.modules)",
    ])
    src = str(Path(nimtower.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert out.stdout == "False\n"


def test_cold_import_loads_no_dataclasses_inspect_or_numpy():
    # The value classes are plain slotted classes, so a fresh CLI run loads
    # none of the stdlib's code-generation and introspection modules; verify
    # loads neither the expression parser nor the oracles.
    import os
    import subprocess
    import sys

    import nimtower

    probe = "\n".join([
        "import contextlib, io, sys",
        "import nimtower, nimtower.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert nimtower.cli.main(['verify', 'all', '--max-level', '4']) == 1",
        "unwanted = {'dataclasses', 'inspect', 'numpy', 'nimtower.expr', 'nimtower.oracle'}",
        "print(sorted(unwanted & sys.modules.keys()))",
    ])
    src = str(Path(nimtower.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"


def test_import_loads_no_re_random_or_hashlib():
    # parse_hex checks a digit set, random is imported where a seed is
    # drawn, and leaf16.bin is pinned by CRC-32, not by sha256 through
    # OpenSSL.  Without site (-S), which loads re and random itself, the
    # modules that `import nimtower` adds are its own.
    import os
    import subprocess
    import sys

    import nimtower

    probe = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import nimtower",
        "added = sys.modules.keys() - before",
        "print('nimtower.tower' in added, sorted({'re', 'random', 'hashlib', '_hashlib'} & added))",
    ])
    src = str(Path(nimtower.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert out.stdout == "True []\n"
