"""Tests for the order engine and the verification suites.

Small-group results are cross-checked against a brute-force order oracle
(repeated multiplication) and against the literal per-prime reduction loop
over full-width powers, so the production norm/conjugate descent never
certifies itself.
"""

import random

import pytest

from nimtower import fermat, orders, tower
from nimtower.errors import (
    LevelError,
    MissingFactorization,
    NotAnExponent,
    ZeroElement,
)
from nimtower.fermat import FactoredOrder, fermat_number, group_order
from nimtower.orders import (
    alpha_chain,
    is_primitive,
    minimal_subfield_exponent,
    multiplicative_order,
    verify_closing_example,
    verify_corollaries,
    verify_identities,
    verify_membership,
    verify_thm5,
)
from nimtower.tower import TowerElement, generator


def brute_order(x: TowerElement) -> int:
    acc = x
    for k in range(1, (1 << x.width)):
        if acc.value == 1:
            return k
        acc = acc * x
    raise AssertionError("no order found")


def spec_reduction_order(x: TowerElement, n: FactoredOrder) -> int:
    """The literal reduction loop: strip primes while the power stays 1."""
    o = n.value
    for p, e in n.factors:
        for _ in range(e):
            if o % p == 0 and x.pow(o // p).value == 1:
                o //= p
            else:
                break
    return o


# -- multiplicative_order -----------------------------------------------------


def test_order_paper_anchors(table):
    assert multiplicative_order(generator("c", 0, 0), group_order(0, table)).value == 3
    n1 = group_order(1, table)
    assert multiplicative_order(generator("c", 1, 1), n1).value == 15
    assert multiplicative_order(generator("a", 1, 1), n1).value == 5
    n2 = group_order(2, table)
    c2 = generator("c", 2, 2)
    o = multiplicative_order(c2, n2)
    assert o.value == 85 and o.factors == ((5, 1), (17, 1))
    c2c0 = c2.mul(generator("c", 0, 2))
    assert multiplicative_order(c2c0, n2).value == 255
    assert multiplicative_order(generator("one", 0, 2), n2).value == 1


def test_order_errors(table):
    n2 = group_order(2, table)
    with pytest.raises(ZeroElement):
        multiplicative_order(TowerElement(2, 0), n2)
    with pytest.raises(NotAnExponent):
        multiplicative_order(generator("c", 2, 2), FactoredOrder(5, ((5, 1),)))


def test_order_matches_brute_force(table):
    for level in (0, 1, 2):
        n = group_order(level, table)
        for seed in range(60):
            x = tower.random_element(level, seed)
            if x.value == 0:
                continue
            assert multiplicative_order(x, n).value == brute_order(x), x


def test_order_matches_spec_reduction(table):
    rng = random.Random(5)
    for level in (1, 2, 3, 4):
        n = group_order(level, table)
        for _ in range(25):
            x = tower.random_element(level, rng.getrandbits(32))
            if x.value == 0:
                continue
            assert multiplicative_order(x, n).value == spec_reduction_order(x, n)


def test_order_minimality_property(table):
    for level in (2, 3, 4):
        n = group_order(level, table)
        for seed in range(20):
            x = tower.random_element(level, seed)
            if x.value == 0:
                continue
            o = multiplicative_order(x, n)
            assert x.pow(o.value).value == 1
            for p, _ in o.factors:
                assert x.pow(o.value // p).value != 1


def test_order_handles_multiplicities():
    # exponent 45 = 3^2 * 5 is a valid (non-tight) exponent for L_1 elements
    n = FactoredOrder(45, ((3, 2), (5, 1)))
    c0 = generator("c", 0, 1)
    assert multiplicative_order(c0, n).value == 3
    c1 = generator("c", 1, 1)
    assert multiplicative_order(c1, n).value == 15


def _structured(level):
    """c_i, a_i, c_i*c_0 and a_i*a_0 at level i."""
    c, a = generator("c", level, level), generator("a", level, level)
    return [c, a, c.mul(generator("c", 0, level)), a.mul(generator("a", 0, level))]


@pytest.mark.parametrize("level", [5, 6, 7, 8])
def test_descent_matches_spec_reduction_structured(table, level):
    n = group_order(level, table)
    elements = _structured(level)
    if level == 8:
        # the reference costs ~13 full-width powers per element here, so
        # level 8 takes one element of each family: c_8 and a_8*a_0
        elements = elements[0::3]
    for x in elements:
        assert multiplicative_order(x, n).value == spec_reduction_order(x, n), x


def test_descent_matches_spec_reduction_random(table):
    for level in (5, 6, 7):
        n = group_order(level, table)
        for seed in range(2):
            x = tower.random_element(level, 1000 + seed)
            assert multiplicative_order(x, n).value == spec_reduction_order(x, n), x


def test_descent_certificate(table):
    for level in (5, 6, 7):
        n = group_order(level, table)
        elements = [tower.random_element(level, 2000 + seed) for seed in range(2)]
        elements.append(tower.random_element(level - 2, 7).lift(level))
        for x in elements:
            o = multiplicative_order(x, n)
            assert x.pow(o.value).value == 1
            for p, _ in o.factors:
                assert x.pow(o.value // p).value != 1, (x, p)


def test_descent_not_an_exponent_for_lower_level_prime(table):
    # N_3 = 257 is prime; drop it from the order of L_4*
    n = group_order(4, table)
    without = FactoredOrder(n.value // 257, tuple(f for f in n.factors if f[0] != 257))
    with pytest.raises(NotAnExponent):
        multiplicative_order(generator("c", 4, 4), without)
    # c_2 has order 5 * 17, so the missing prime does not matter for it
    assert multiplicative_order(generator("c", 2, 2).lift(4), without).value == 85


# -- is_primitive --------------------------------------------------------------


def test_is_primitive(table):
    c2 = generator("c", 2, 2)
    c2c0 = c2.mul(generator("c", 0, 2))
    assert is_primitive(c2c0, table) == (True, 1)
    assert is_primitive(c2, table) == (False, 3)
    assert is_primitive(generator("one", 0, 0), table) == (False, 3)
    assert is_primitive(generator("one", 0, -1), table) == (True, 1)


def test_is_primitive_index_is_group_over_order(table):
    n = group_order(2, table)
    for seed in range(30):
        x = tower.random_element(2, seed)
        if x.value == 0:
            continue
        _, index = is_primitive(x, table)
        assert index == n.value // brute_order(x)


# -- minimal subfield exponent -------------------------------------------------


def test_minimal_subfield_exponent_values(table):
    assert minimal_subfield_exponent(1, table) == 5
    assert minimal_subfield_exponent(2, table) == 17
    assert minimal_subfield_exponent(5, table) == 4294967297


def test_minimal_subfield_exponent_brute(table):
    for j in (1, 2):
        c = generator("c", j, j)
        first = next(
            d for d in range(1, fermat_number(j) + 1) if c.pow(d).in_subfield(j - 1)
        )
        assert minimal_subfield_exponent(j, table) == first


def test_minimal_subfield_exponent_errors(table):
    with pytest.raises(LevelError):
        minimal_subfield_exponent(0, table)
    with pytest.raises(MissingFactorization):
        minimal_subfield_exponent(12, table)


# -- alpha chains ---------------------------------------------------------------


def test_alpha_chain_values(table):
    chain = alpha_chain(2, "c", table)
    assert chain.alphas == (17, 5)
    assert chain.product == 85
    assert alpha_chain(3, "c", table).alphas == (257, 17, 5)


def test_alpha_chain_level_error(table):
    with pytest.raises(LevelError):
        alpha_chain(1, "c", table)


def test_alpha_chain_invariants(table):
    for i in (2, 3, 4):
        for base in ("c", "a"):
            chain = alpha_chain(i, base, table)
            assert len(chain.alphas) == i
            for m, alpha in zip(range(i, 0, -1), chain.alphas):
                assert alpha > 1
                assert fermat_number(m) % alpha == 0
            x = generator(base, i, i)
            n = group_order(i, table)
            assert chain.product == multiplicative_order(x, n).value


def test_alpha_chain_matches_fermat_products(table):
    for i in (2, 3, 4, 5):
        expected = 1
        for j in range(1, i + 1):
            expected *= fermat_number(j)
        assert alpha_chain(i, "c", table).product == expected
        assert alpha_chain(i, "a", table).product == expected


# -- verifiers -------------------------------------------------------------------


def test_verify_identities_small_levels():
    for i in (1, 2, 3, 4):
        report = verify_identities(i)
        assert report.passed, report.lines()
    # i=1 exercises the a_1^5 = a_0^6 degenerate case (both sides 1)
    got = verify_identities(1)
    ids = {r.check_id for r in got.records}
    assert "lemma5.eq1.i01" in ids and "lemma6.eq4.i01.k0" in ids


def test_verify_identities_errors():
    with pytest.raises(LevelError):
        verify_identities(0)
    with pytest.raises(LevelError):
        verify_identities(3, 3)


def test_verify_identities_switches():
    base_only = verify_identities(3, 0, iterated=False)
    assert all(r.check_id.startswith("lemma5.") for r in base_only.records)
    iter_only = verify_identities(3, 2, base=False)
    assert all(r.check_id.startswith("lemma6.") for r in iter_only.records)
    assert len(iter_only.records) == 6


def test_verify_membership_small_levels():
    for theorem in (1, 2):
        for i in (2, 3, 4, 5):
            report = verify_membership(theorem, i)
            assert report.passed, report.lines()
            degenerate = [r for r in report.records if "degenerate" in r.check_id]
            assert len(degenerate) == 1
            assert len(report.records) == i


def test_verify_membership_errors():
    with pytest.raises(LevelError):
        verify_membership(1, 1)
    with pytest.raises(ValueError):
        verify_membership(3, 4)


def test_verify_thm5(table):
    report = verify_thm5(5, table)
    assert report.passed
    assert len(report.records) == 3  # eq1 + one quotient per prime
    report = verify_thm5(6, table)
    assert report.passed and len(report.records) == 3
    with pytest.raises(MissingFactorization):
        verify_thm5(12, table)


def test_verify_corollaries_level2(table):
    report = verify_corollaries(2, table)
    assert report.passed, report.lines()
    with pytest.raises(LevelError):
        verify_corollaries(1, table)


def test_verify_corollaries_level4_order_value(table):
    n = group_order(4, table)
    o = multiplicative_order(generator("c", 4, 4), n)
    assert o.value == 5 * 17 * 257 * 65537
    assert verify_corollaries(4, table).passed


def test_closing_example_refutes_two_claims(table):
    report = verify_closing_example(table)
    status = {r.check_id: r.ok for r in report.records}
    assert status["l2ex.order-c2"] is True
    assert status["l2ex.order-c2c0"] is True
    assert status["l2ex.primitive"] is True
    # the two claims the arithmetic refutes (see the oracle cross-check below)
    assert status["l2ex.fifth-power"] is False
    assert status["l2ex.order-sum"] is False
    assert not report.passed


def test_closing_example_true_arithmetic(table):
    """Oracle-verified corrections: c_2^4 = c_2+c_1+1 (order 85), and the
    fifth power is c_2*c_1 + c_1*c_0 (order 17)."""
    from nimtower.oracle import nim_mul_mex

    p = 1
    seq = {}
    for k in range(1, 6):
        p = nim_mul_mex(p, 16)
        seq[k] = p
    assert seq[4] == 0x15 and seq[5] == 0x48
    n2 = group_order(2, table)
    assert multiplicative_order(TowerElement(2, 0x15), n2).value == 85
    assert multiplicative_order(TowerElement(2, 0x48), n2).value == 17


def test_order_cache_reuse(table):
    n = group_order(3, table)
    x = generator("c", 3, 3)
    first = multiplicative_order(x, n)
    assert multiplicative_order(x, n) is first
