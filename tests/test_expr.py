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


def test_a_hex_atom_after_an_exponent_is_a_factor():
    # '*' after an exponent hands a hex atom back to the product, as it does c1
    for text, grouped in (("c2^3*0x5", "(c2^3)*0x5"), ("c2^3 * 0x5@L2", "(c2^3)*(0x5@L2)"),
                          ("c2^(3)*0x1f", "(c2^3)*0x1f"), ("c2^3*0X5", "(c2^3)*0x5"),
                          ("c2^N1*0x5+1", "(c2^N1)*0x5+1")):
        assert parse_expr(text) == parse_expr(grouped), text
        assert evaluate(text) == evaluate(grouped), text
    assert evaluate("c2^3*0x5") == evaluate("0x5*c2^3") == tower.TowerElement(2, 0x63)
    # a plain 0 is still exponent material: c2^(3*0) = 1
    assert parse_expr("c2^3*0") == Pow(CAtom(2), expr.IntMul(IntLit(3), IntLit(0)))
    assert evaluate("c2^3*0") == tower.one(2)
    for bad, pos in (("c2^0x5", 3), ("c2^(0x5)", 4), ("c2^3/0x5", 4)):
        with pytest.raises(ParseError) as err:
            parse_expr(bad)
        assert err.value.position == pos, bad


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
    # operands lift to the highest level among them, so only ever upward
    assert evaluate("c0*c3").level == 3
    assert evaluate("a2*c0") == evaluate("c2*c1*c0*c0")
    # folding pairwise at the higher level equals lifting all to the top
    c = [tower.generator("c", k, k).lift(4) for k in range(5)]
    assert evaluate("c1*c3*c0+c4*c2+c1") == c[1] * c[3] * c[0] + c[4] * c[2] + c[1]


def test_a_long_sum_holds_one_operand_at_a_time():
    # each c20 operand is 2^21 bits: evaluating all 400 before folding
    # them peaked at 56 MB traced
    import tracemalloc

    evaluate("c20")
    tracemalloc.start()
    try:
        assert evaluate("+".join(["c20"] * 400)) == tower.TowerElement(20, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_low_level_powers_inside_high_level_expressions_evaluate():
    # each power is computed and bounded in its base's field, not at the
    # level of the whole expression
    c1, c20 = tower.generator("c", 1, 1), tower.generator("c", 20, 20)
    assert evaluate("c1^2*c20") == c1.pow(2).lift(20) * c20
    zero_to_5th = tower.TowerElement(-1, 0).pow(5).lift(5)
    c5_sum = (tower.generator("c", 5, 5) + zero_to_5th).lift(20)
    assert evaluate("a20*(c5+0^5)") == tower.generator("a", 20, 20) * c5_sum
    assert evaluate("c1^(N11*N11)+c13").level == 13


def _random_expression(rng, depth):
    """A seeded element expression with atoms at levels <= 8."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        kind = rng.choice("ca01h")
        if kind in "ca":
            return f"{kind}{rng.randint(0, 8)}"
        if kind == "h":
            level = rng.randint(0, 8)
            return f"{rng.getrandbits(tower.width_of(level)):#x}@L{level}"
        return kind
    if roll < 0.55:
        j = rng.randint(0, 8)
        exponent = rng.choice([str(rng.randint(1, 300)), f"N{j}", f"(N{j}*{rng.randint(2, 9)})"])
        return f"({_random_expression(rng, depth - 1)})^{exponent}"
    op = "+" if roll < 0.8 else "*"
    return op.join(f"({_random_expression(rng, depth - 1)})" for _ in range(rng.randint(2, 3)))


def test_subfield_embedding_commutes_with_evaluation():
    rng = random.Random(1409)
    for _ in range(150):
        s = _random_expression(rng, 3)
        try:
            x = evaluate(s)
        except ZeroToZero:
            continue
        k = rng.randint(max(x.level, 0), 8)
        assert evaluate(f"({s})+0x0@L{k}") == x.lift(k), s
        e = rng.randint(1, 1 << 20)
        assert evaluate(f"({s})^{e}+0x0@L{k}") == x.lift(k).pow(e), s


def test_refused_outer_power_over_an_admitted_inner_power():
    started = time.perf_counter()
    with pytest.raises(LevelError, match="power work 4097 exponent bits x 3\\.25\\^14"):
        evaluate("((c12+c1)^2+c13)^N12")
    assert time.perf_counter() - started < 1.0


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
    # min(exponent bits, w) * 3.25^(level+1): a level-12 power by any
    # exponent is admitted, a level-13 power by N_12 (4097 bits) is not, nor
    # shorter exponents higher up, where each multiply costs about 3.25x
    # more per level; x^1 needs no multiply and passes at any level
    assert evaluate("0x0@L12^(N12*N12*N12)") == tower.TowerElement(12, 0)
    assert evaluate("c13^4096") == tower.generator("c", 13, 13).pow(4096)
    assert evaluate("c20^1") == tower.generator("c", 20, 20)
    # a dense level-14 base to an 893-bit exponent ran for 29 s under 3^(level+1)
    dense14 = f"{random.Random(14).getrandbits(1 << 15):#x}@L14"
    hostile = (
        "(c13+c1)^N12", "0x0@L13^N12", "c13^(N12*N12)",
        "(c20+c1)^4294967295", "(c14+c1)^(N11/319489)", "(c13+c1)^(N12/114689)",
        f"({dense14})^(N10/4659775785220018543264560743076778192897)",
    )
    for text in hostile:
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
