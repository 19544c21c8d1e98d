"""Tests for the element-expression parser and evaluator."""

import random
import time

import pytest

from nimtower import expr, tower
from nimtower.errors import (
    DivideByZero,
    ExactDivError,
    LevelError,
    ParseError,
    ZeroToZero,
)
from nimtower.expr import (
    AAtom,
    BitAtom,
    CAtom,
    FermatRef,
    HexAtom,
    IntDiv,
    IntLit,
    Pow,
    Prod,
    Sum,
    divrem,
    evaluate,
    eval_int,
    parse_expr,
)
from nimtower.fermat import fermat_number


P62 = 93461639715357977769163558199606896584051237541638188580280321


def test_divrem():
    assert divrem(4294967297, 641) == (6700417, 0)
    assert divrem(7, 2) == (3, 1)
    assert divrem((1 << 256) + 1, 1238926361552897) == (P62, 0)
    with pytest.raises(DivideByZero):
        divrem(5, 0)


def test_divrem_inverts_mul_property():
    rng = random.Random(2024)
    for _ in range(200):
        a = rng.getrandbits(512)
        b = rng.getrandbits(512) | 1
        r = rng.randrange(b)
        assert divrem(a * b + r, b) == (a, r)


def test_parse_product():
    assert parse_expr("c2*c0") == Prod((CAtom(2), CAtom(0)))


def test_parse_power_with_exact_division():
    ast = parse_expr("c5^(N5/641)")
    assert ast == Pow(CAtom(5), IntDiv(FermatRef(5), IntLit(641)))
    assert eval_int(ast.exponent) == 6700417


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expr("c2^^5")
    assert err.value.position == 3


def test_parse_errors():
    for bad, pos in (("", 0), ("(c2", 3), ("c", 1), ("c2+", 3), ("0x", 2), ("z3", 0),
                     ("c²", 1), ("c2^²", 3), ("c" + "9" * 5000, 1)):
        with pytest.raises(ParseError) as err:
            parse_expr(bad)
        assert err.value.position == pos, bad
    with pytest.raises(ParseError):
        parse_expr("c2*c0 junk")


def test_parse_nesting_depth_is_bounded():
    n = expr.MAX_NESTING
    assert evaluate("(" * n + "c1" + ")" * n) == evaluate("c1")
    assert evaluate("c1^" + "(" * n + "2" + ")" * n) == evaluate("c1^2")
    for deep in (
        "(" * (n + 1) + "c1" + ")" * (n + 1),
        "c1^" + "(" * 3000 + "2" + ")" * 3000,
        "(" * 60 + "c1^" + "(" * 60 + "2" + ")" * 120,  # both grammars count
        "c1^2*" + "(" * 3000 + "c0" + ")" * 3000,  # after the exponent backtrack
    ):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_expr(deep)


def test_long_exponent_chain_needs_no_recursion():
    # a*b*c*... builds a left-deep tree as long as the chain
    assert evaluate("c1^2" + "*2" * 5000) == evaluate("c1").pow(2 ** 5001)
    assert evaluate("c3^N4" + "*N4/N4" * 2000) == evaluate("c3^N4")


def test_parse_whitespace_insignificant():
    assert parse_expr(" c2 * c0 ") == parse_expr("c2*c0")
    assert parse_expr("c2 ^ ( N5 / 641 )") == parse_expr("c2^(N5/641)")


def test_parse_atoms():
    assert parse_expr("0") == BitAtom(0)
    assert parse_expr("1") == BitAtom(1)
    assert parse_expr("a3") == AAtom(3)
    assert parse_expr("0x1f") == HexAtom(0x1F, None)
    assert parse_expr("0x1f@L3") == HexAtom(0x1F, 3)
    assert parse_expr("(c1+1)") == Sum((CAtom(1), BitAtom(1)))


def test_eval_examples():
    assert repr(evaluate("c2*c0")) == "0x20@L2"
    assert repr(evaluate("1+1")) == "0x0@L-1"
    # c2^5 is c2*c1 + c1*c0 (0x48); the fourth power is c2 + c1 + 1 (0x15)
    assert evaluate("c2^5").value == 0x48
    assert evaluate("c2^4").value == 0x15
    assert evaluate("c2^4") == evaluate("c2+c1+1")


def test_eval_precedence_and_parens():
    assert evaluate("c1+c0*c0").value == 0x4 ^ 0x3
    assert evaluate("(c1+c0)*c0") == evaluate("c1*c0+c0*c0")
    assert evaluate("c1^2*c1") == evaluate("c1^3")
    assert evaluate("c1^2*(c1+1)") == evaluate("c1^2") * evaluate("c1+1").lift(1)
    # numeric continuations bind into the exponent (use parens to break)
    assert evaluate("c1^2*3") == evaluate("c1^6")


def test_eval_levels():
    assert evaluate("c3").level == 3
    assert evaluate("c3+1").level == 3
    assert evaluate("0x15").level == 2  # 21 needs 5 coefficient bits
    assert evaluate("0x3@L4").level == 4
    assert evaluate("0x3@L4 + c0").level == 4


def test_eval_level_ceiling():
    top = tower.MAX_LEVEL
    assert evaluate(f"c{top}").level == top
    assert evaluate(f"c2^N{top + 1}").level == 2
    for bad in (f"c{top + 1}", "c40", "a30", f"0x1@L{top + 1}", "c2^N30", "c2^(N40/N40)"):
        with pytest.raises(LevelError):
            evaluate(bad)


def test_eval_exponents_via_fermat_numbers():
    assert evaluate("c2^N2") == evaluate("c2^17")
    assert evaluate("c5^(N5/641/6700417)") == evaluate("c5")
    assert evaluate("c1^(3*5)").value == 1


def test_eval_division_errors():
    with pytest.raises(ExactDivError):
        evaluate("c5^(N5/640)")
    with pytest.raises(DivideByZero):
        evaluate("c5^(N5/0)")


def test_eval_zero_to_zero():
    with pytest.raises(ZeroToZero):
        evaluate("0^0")


def test_eval_hex_level_check():
    from nimtower.errors import NotInField

    with pytest.raises(NotInField):
        evaluate("0x100@L1")


def test_eval_lift_error_never_needed():
    # the max-level inference means atoms only ever lift upward
    assert evaluate("c0*c3").level == 3
    assert evaluate("a2*c0") == evaluate("c2*c1*c0*c0")


def test_eval_matches_manual_arithmetic():
    lhs = evaluate("(c2+c1)*(c1+1)")
    from nimtower.tower import generator

    c2 = generator("c", 2, 2)
    c1 = generator("c", 1, 2)
    one = generator("one", 0, 2)
    assert lhs == (c2 + c1) * (c1 + one)


def test_hostile_exponents_are_refused_quickly():
    # exact exponent arithmetic on Fermat numbers: the first three took
    # 9.5 s, 52.6 s and 8.2 s when operand sizes were unbounded
    hostile = (
        "c1^(N21*N21/N21)",
        "c1^(N21*N21*N21*N21/N21/N21/N21)",
        "c1^(" + "*".join(["N21"] * 40) + ")",
        "c1^(N21*N20/N20)",
        "c1^(N21/N20)",
        "c1^((N21*N20)*(N21*N20))",
        "c1^(N20*N20*N20*N20*N20)",
    )
    for text in hostile:
        started = time.perf_counter()
        with pytest.raises(LevelError, match="exponent"):
            evaluate(text)
        assert time.perf_counter() - started < 1.0, text


def test_power_work_bound(table):
    # min(exponent bits, w) * w: a level-12 power by any exponent is
    # admitted, a level-13 power by N_12 (4097 bits) is not
    assert evaluate("0x0@L12^(N12*N12*N12)") == tower.TowerElement(12, 0)
    assert evaluate("c13^4096") == tower.generator("c", 13, 13).pow(4096)
    for text in ("(c13+c1)^N12", "0x0@L13^N12", "c13^(N12*N12)"):
        started = time.perf_counter()
        with pytest.raises(LevelError, match="power work"):
            evaluate(text)
        assert time.perf_counter() - started < 1.0, text
    # the query-mix expressions
    for entry in table:
        if entry.j <= 6:
            for p in entry.factors:
                for form in "ca":
                    want = tower.generator(form, entry.j, entry.j).pow(fermat_number(entry.j) // p)
                    assert evaluate(f"{form}{entry.j}^(N{entry.j}/{p})") == want


def test_exponent_bounds_admit_every_tabulated_quotient(table):
    for entry in table:
        for p in entry.factors:
            exponent = parse_expr(f"c{entry.j}^(N{entry.j}/{p})").exponent
            assert eval_int(exponent) == fermat_number(entry.j) // p
    widest = parse_expr("c1^(N21*N20)").exponent
    assert eval_int(widest) == fermat_number(21) * fermat_number(20)
