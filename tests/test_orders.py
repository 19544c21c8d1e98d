"""Tests for the order engine and the verification suites.

Small-group results are cross-checked against a brute-force order oracle
(repeated multiplication) and against the literal per-prime reduction loop
over full-width powers, so the production norm/conjugate descent never
certifies itself.  The subfield questions (minimal exponents, alpha chains,
quotient checks, identities, membership) get the same treatment: a
reference that raises the element to each exponent at full width and
reads the coefficient bits.
"""

import contextlib
import io
import random
from math import prod

import pytest

from nimtower import cli, fermat, orders, tower
from nimtower.errors import (
    ArithmeticFault,
    LevelError,
    MissingFactorization,
    NotAnExponent,
    ValidationError,
    ZeroElement,
)
from nimtower.fermat import FactoredOrder, fermat_number, group_order
from nimtower.oracle import nim_mul_rec
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
from nimtower.tower import TowerElement, generator, width_of


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
    for p in n.factors:
        if x.pow(o // p).value == 1:
            o //= p
    return o


def in_level(v: int, level: int) -> bool:
    return v >> width_of(level) == 0


def spec_subfield_exponent(v: int, level: int, primes) -> int:
    """The literal reduction loop for the smallest d with v^d in L_(level-1):
    strip primes of N_level while the full-width power stays there."""
    w, d = width_of(level), fermat_number(level)
    assert in_level(tower._pow(v, d, w), level - 1)
    for p in primes:
        if in_level(tower._pow(v, d // p, w), level - 1):
            d //= p
    return d


def spec_alphas(i: int, base: str, table) -> tuple:
    v, alphas = generator(base, i, i).value, []
    for m in range(i, 0, -1):
        alpha = spec_subfield_exponent(v, m, fermat.factorization(table, m).factors)
        alphas.append(alpha)
        v = tower._pow(v, alpha, width_of(m))
    assert v == 1
    return tuple(alphas)


def spec_thm5(j: int, table) -> list:
    c, w = generator("c", j, j).value, width_of(j)
    n_j = fermat_number(j)
    out = [(f"thm5.j{j:02d}.eq1", tower._pow(c, n_j, w) == generator("a", j - 1, j - 1).value)]
    for idx, p in enumerate(fermat.factorization(table, j).factors):
        out.append((f"thm5.j{j:02d}.q{idx}", not in_level(tower._pow(c, n_j // p, w), j - 1)))
    return out


def spec_membership(theorem: int, i: int) -> list:
    x = generator("c" if theorem == 1 else "a", i, i)
    out, e = [], 1
    for k in range(i):
        e *= fermat_number(i - k)
        power = tower._pow(x.value, e, x.width)
        if k <= i - 2:
            ok = in_level(power, i - k - 1) and not in_level(power, i - k - 2)
            out.append((f"thm{theorem}.membership.i{i:02d}.k{k}", ok))
        else:
            out.append((f"thm{theorem}.degenerate.i{i:02d}", power == 1))
    return out


def spec_identities(i: int) -> list:
    c, a = generator("c", i, i), generator("a", i, i)
    a_prev = generator("a", i - 1, i - 1)
    n_i = fermat_number(i)
    out = [
        (f"lemma5.eq1.i{i:02d}", tower._pow(c.value, n_i, c.width) == a_prev.value),
        (
            f"lemma5.eq2.i{i:02d}",
            tower._pow(a.value, n_i, a.width) == tower._pow(a_prev.value, n_i + 1, a_prev.width),
        ),
    ]
    e_lhs, e3 = n_i, 1
    for k in range(i):
        if k:
            e_lhs *= fermat_number(i - k)
            e3 *= fermat_number(i - k) + 1
        target = generator("a", i - k - 1, i - k - 1)
        rhs3 = tower._pow(target.value, e3, target.width)
        rhs4 = tower._pow(target.value, e3 * (n_i + 1), target.width)
        out.append((f"lemma6.eq3.i{i:02d}.k{k}", tower._pow(c.value, e_lhs, c.width) == rhs3))
        out.append((f"lemma6.eq4.i{i:02d}.k{k}", tower._pow(a.value, e_lhs, a.width) == rhs4))
    return out


def outcomes(report) -> list:
    return [(r.check_id, r.ok) for r in report.records]


# -- multiplicative_order -----------------------------------------------------


def test_order_paper_anchors(table):
    assert multiplicative_order(generator("c", 0, 0), group_order(0, table)).value == 3
    n1 = group_order(1, table)
    assert multiplicative_order(generator("c", 1, 1), n1).value == 15
    assert multiplicative_order(generator("a", 1, 1), n1).value == 5
    n2 = group_order(2, table)
    c2 = generator("c", 2, 2)
    o = multiplicative_order(c2, n2)
    assert o.value == 85 and o.factors == (5, 17)
    c2c0 = c2.mul(generator("c", 0, 2))
    assert multiplicative_order(c2c0, n2).value == 255
    assert multiplicative_order(generator("one", 0, 2), n2).value == 1


def test_order_errors(table):
    n2 = group_order(2, table)
    with pytest.raises(ZeroElement):
        multiplicative_order(TowerElement(2, 0), n2)
    with pytest.raises(NotAnExponent):
        multiplicative_order(generator("c", 2, 2), FactoredOrder(5, (5,)))
    # x = (c_5 + 1)^6700417 has order 5*17*257*641*65537; an exponent that
    # listed N_5 = 641*6700417 as a prime would make 641 look absent
    x = generator("c", 5, 5).add(TowerElement(5, 1)).pow(6700417)
    o = multiplicative_order(x, group_order(5, table))
    assert o.factors == (5, 17, 257, 641, 65537)
    claimed = (3, 5, 17, 257, 65537, fermat_number(5))
    with pytest.raises(ValidationError, match="not prime"):
        FactoredOrder((1 << 64) - 1, claimed)


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
            for p in o.factors:
                assert x.pow(o.value // p).value != 1


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
            for p in o.factors:
                assert x.pow(o.value // p).value != 1, (x, p)


def test_descent_not_an_exponent_for_lower_level_prime(table):
    # N_3 = 257 is prime; drop it from the order of L_4*
    n = group_order(4, table)
    without = FactoredOrder(n.value // 257, tuple(p for p in n.factors if p != 257))
    with pytest.raises(NotAnExponent):
        multiplicative_order(generator("c", 4, 4), without)
    # c_2 has order 5 * 17, so the missing prime does not matter for it
    assert multiplicative_order(generator("c", 2, 2).lift(4), without).value == 85


# -- the log-table leaf ------------------------------------------------------


def test_leaf_orders_of_all_of_l3_meet_the_order_certificate(table):
    # every order the leaf reads is checked through the generic power path;
    # a prime foreign to L_3 changes none
    n = group_order(3, table)
    foreign = FactoredOrder(65535 * 7, (3, 5, 7, 17, 257))
    for v in range(1, 1 << 16):
        x = TowerElement(3, v)
        o = multiplicative_order(x, n)
        assert tower._pow(v, o.value, 16) == 1, v
        for p in o.factors:
            assert tower._pow(v, o.value // p, 16) != 1, (v, p)
        assert multiplicative_order(x, foreign) == o, v


def test_the_leaf_orders_are_the_divisors_of_65535():
    divisors = [d for d in range(1, 1 << 16) if 65535 % d == 0]
    assert sorted(orders._LEAF_ORDERS) == divisors and len(divisors) == 16
    for d, order in orders._LEAF_ORDERS.items():
        primes = tuple(p for p in (3, 5, 17, 257) if d % p == 0)
        assert order == FactoredOrder.of_primes(primes) == FactoredOrder(d, primes)


def test_orders_in_l3_and_below_build_no_factored_order(table, monkeypatch):
    built = []

    def count(make):
        def counted(*args, **kwargs):
            built.append(args)
            return make(*args, **kwargs)

        return counted

    monkeypatch.setattr(FactoredOrder, "__init__", count(FactoredOrder.__init__))
    monkeypatch.setattr(FactoredOrder, "of_primes", count(FactoredOrder.of_primes))
    n = group_order(3, table)
    leaf = {multiplicative_order(TowerElement(3, v), n) for v in range(1, 1 << 16)}
    for v in range(1, 256):
        is_primitive(TowerElement(2, v))
    assert not built
    assert {id(o) for o in leaf} == {id(o) for o in orders._LEAF_ORDERS.values()}


def test_leaf_orders_of_l2_match_the_oracle_brute_force(table):
    n = group_order(2, table)
    for v in range(1, 256):
        acc, k = v, 1
        while acc != 1:
            acc, k = nim_mul_rec(acc, v), k + 1
        assert multiplicative_order(TowerElement(2, v), n).value == k, v


def test_leaf_refuses_an_exponent_without_257_outside_l2():
    n = FactoredOrder(255, (3, 5, 17))
    refused = 0
    for v in range(1, 1 << 16):
        try:
            o = multiplicative_order(TowerElement(3, v), n)
        except NotAnExponent as exc:
            assert v >> 8 and str(exc) == orders._NOT_AN_EXPONENT, v
            refused += 1
        else:
            assert v >> 8 == 0 and 255 % o.value == 0, v
    assert refused == 65535 - 255


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


def test_alpha_chain_rejects_an_alpha_below_n(table, monkeypatch):
    # every alpha_m of c_i and a_i is N_m; a step that finds a proper divisor
    # of N_m (641 divides N_5) breaks that invariant and must not be reported
    step = orders._down_step

    def short_at_level_5(v, level, primes):
        norm, d = step(v, level, primes)
        return norm, 641 if level == 5 else d

    monkeypatch.setattr(orders, "_down_step", short_at_level_5)
    for base in ("c", "a"):
        with pytest.raises(NotAnExponent, match="alpha_5 = 641"):
            alpha_chain(6, base, table)
    assert alpha_chain(4, "c", table).alphas == (65537, 257, 17, 5)


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


@pytest.mark.parametrize("level", range(2, 9))
def test_subfield_questions_match_full_width_reference(table, level):
    primes = fermat.factorization(table, level).factors
    assert minimal_subfield_exponent(level, table) == spec_subfield_exponent(
        generator("c", level, level).value, level, primes
    )
    for base in ("c", "a"):
        assert alpha_chain(level, base, table).alphas == spec_alphas(level, base, table)
    assert outcomes(verify_thm5(level, table)) == spec_thm5(level, table)
    for theorem in (1, 2):
        assert outcomes(verify_membership(theorem, level)) == spec_membership(theorem, level)
    assert outcomes(verify_identities(level)) == spec_identities(level)


def test_level_step_finds_exponents_below_n(table):
    # x^p (p | N_j) needs d = N_j/p and an element of L_(j-1) needs d = 1:
    # answers that c_j and a_j, which always need d = N_j, never exercise
    for level in range(1, 8):
        entry = fermat.factorization(table, level)
        w = width_of(level)
        x = tower.random_element(level, 3000 + level).value
        values = [x, tower.random_element(level - 1, 9).value or 1]
        values += [tower._pow(x, p, w) for p in entry.factors]
        for v in values:
            norm, d = orders._down_step(v, level, entry.factors)
            assert d == spec_subfield_exponent(v, level, entry.factors), (level, v)
            assert norm == tower._pow(v, fermat_number(level), w)


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_orders_of_lifted_elements(table, level):
    # above x's own level each descent step has y = conj(x)/x = 1, which
    # _y_step answers with order 1; under x's own
    # order no prime divides N_k for k above its level, so those steps get
    # no prime at all; so an element of L_3 or below gets the leaf's
    # prebuilt order back
    orders._y_step.cache_clear()
    elements = [generator("c", level, level), generator("a", level, level)]
    elements += [tower.random_element(level, 4000 + seed) for seed in range(2)]
    for x in elements:
        own = multiplicative_order(x, group_order(level, table))
        for k in range(level + 1, 10):
            lifted = x.lift(k)
            order = multiplicative_order(lifted, group_order(k, table))
            assert order == own and (order is own) == (level <= 3), (x, k)
            assert multiplicative_order(lifted, own) == own, (x, k)
            square = tower._square(x.value, width_of(k - 1))
            primes = fermat.factorization(table, k).factors
            assert orders._down_step(lifted.value, k, primes) == (square, 1)


def test_identities_and_membership_beyond_the_factor_table():
    # no factor table is needed: the norm chain reaches level 12 (8192 bits)
    report = verify_identities(12)
    assert report.passed and len(report.records) == 2 + 2 * 12
    for theorem in (1, 2):
        report = verify_membership(theorem, 12)
        assert report.passed and len(report.records) == 12


def test_verify_thm5_reports_a_prime_outside_the_order(table, monkeypatch):
    # c_j^(N_j/p) stays in L_(j-1) when p does not divide the order of
    # conj(c_j)/c_j; the record for that prime alone must turn FAIL
    step = orders._down_step
    monkeypatch.setattr(orders, "_down_step", lambda *args: (step(*args)[0], 6700417))
    status = {r.check_id: r.ok for r in verify_thm5(5, table).records}
    assert status == {"thm5.j05.eq1": True, "thm5.j05.q0": False, "thm5.j05.q1": True}


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


def test_step_memo_is_bounded(table):
    # (k*c_4 + 1) differ by no L_3 factor, so every k is a new level-4 y
    n = group_order(4, table)
    for k in range(1, orders._STEP_CACHE_SIZE + 100):
        multiplicative_order(TowerElement(4, k << 16 | 1), n)
    info = orders._y_step.cache_info()
    assert info.currsize == info.maxsize == orders._STEP_CACHE_SIZE


def test_corollaries_and_thm5_share_the_level_step(table, monkeypatch):
    # c_i, a_i, c_i*c_0, a_i*a_0 and thm5 all ask about conj(c_i)/c_i
    level = 6
    w = width_of(level)
    y, _ = tower.norm_split_values(generator("c", level, level).value, w)
    computed = []  # the arguments of every norm taken
    norm_value = tower.norm_value
    monkeypatch.setattr(
        tower, "norm_value", lambda v, width: (computed.append((v, width)), norm_value(v, width))[1]
    )
    orders._y_step.cache_clear()
    assert verify_corollaries(level, table).passed
    before = orders._y_step.cache_info()
    assert verify_thm5(level, table).passed
    after = orders._y_step.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert computed.count((y, w)) == 1  # one certifying norm for the one step computed


def test_a_filed_step_equals_a_fresh_one(table):
    # each answer is filed for y^3, and a filed answer, when first read,
    # for its own cube: y^3 and y^9 read what y computed, and equal what a
    # cleared memo computes for them, for y of full order N_j and for
    # y^p (p | N_j) and y = 1 of less
    for level in range(4, 9):
        w = width_of(level)
        entry = fermat.factorization(table, level)
        primes = entry.factors
        y, _ = tower.norm_split_values(tower.random_element(level, 5000 + level).value, w)
        for v in [y, 1] + [tower._pow(y, p, w) for p in entry.factors]:
            cube = tower._mul(tower._square(v, w), v, w)
            ninth = tower._mul(tower._square(cube, w), cube, w)
            orders._y_step.cache_clear()
            filed = [orders._y_step(u, level, primes) for u in (v, cube, ninth)]
            assert orders._y_step.cache_info().misses == 1, (level, v)
            for u, answer in zip((cube, ninth), filed[1:]):
                orders._y_step.cache_clear()
                assert orders._y_step(u, level, primes) == answer, (level, v)
            n_j = fermat_number(level)
            want = prod(p for p in entry.factors if tower._pow(v, n_j // p, w) != 1)
            assert filed[0] == want, (level, v)


def test_a_step_with_the_prime_3_files_no_cube():
    # y = c_0 in L_0 has order 3 = N_0, and its cube 1 has order 1: the
    # answer carries over only when 3 is none of the step's primes
    orders._y_step.cache_clear()
    assert orders._y_step(2, 0, (3,)) == 3
    assert orders._y_step(1, 0, (3,)) == 1
    assert orders._y_step.cache_info().misses == 2


@pytest.mark.parametrize("level", [5, 7, 9])
def test_a_i_reuses_the_steps_of_c_i(table, level):
    # below level i, a_i's descent asks about the cubes of c_i's y
    n = group_order(level, table)
    orders._y_step.cache_clear()
    o_c = multiplicative_order(generator("c", level, level), n)
    computed = orders._y_step.cache_info().misses
    assert computed == level - 3  # one step per level from 4 up
    a = generator("a", level, level)
    assert multiplicative_order(a, n) == o_c
    assert multiplicative_order(a * generator("a", 0, level), n).value == 3 * o_c.value
    assert orders._y_step.cache_info().misses == computed


def test_verify_all_to_level_9_computes_one_step_per_level(monkeypatch, capsys):
    levels = []
    compute = orders._y_order
    monkeypatch.setattr(orders, "_y_order", lambda y, j, p: levels.append(j) or compute(y, j, p))
    orders._y_step.cache_clear()
    assert cli.main(["verify", "all", "--max-level", "9"]) == 1
    fails = [line.split()[1] for line in capsys.readouterr().out.splitlines() if line[:5] == "FAIL "]
    assert fails == ["l2ex.fifth-power", "l2ex.order-sum"]
    assert sorted(levels) == list(range(4, 10))
    assert orders._y_step.cache_info().misses == 6


def count_kernel_calls(max_level: int) -> tuple[int, dict[str, int]]:
    """Run `verify all --max-level max_level` in process from a cleared
    step memo: (exit code, top-level calls of _square, _mul, _mul_prepared,
    _prepare, _mul_top and _inv, in that order).  A kernel called while
    another runs is part of that one's work, so it is not counted."""
    names = ("_square", "_mul", "_mul_prepared", "_prepare", "_mul_top", "_inv")
    counts, depth = dict.fromkeys(names, 0), [0]

    def counted(name, kernel):
        def wrapper(*args):
            counts[name] += depth[0] == 0
            depth[0] += 1
            try:
                return kernel(*args)
            finally:
                depth[0] -= 1
        return wrapper

    originals = {name: getattr(tower, name) for name in names}
    try:
        for name, kernel in originals.items():
            setattr(tower, name, counted(name, kernel))
        orders._y_step.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["verify", "all", "--max-level", str(max_level)])
    finally:
        for name, kernel in originals.items():
            setattr(tower, name, kernel)
    return rc, counts


def test_verify_all_to_level_9_makes_the_pinned_kernel_calls():
    # CI pins the counts at level 11 through the same helper
    rc, counts = count_kernel_calls(9)
    assert rc == 1 and list(counts.values()) == [1821, 620, 207, 28, 253, 89]


def test_the_step_memo_is_safe_under_concurrency(table, monkeypatch):
    # four threads ask 40 times each for the orders of c_i, a_i and random
    # elements at levels 4-6 through a memo small enough to evict all the
    # time, and get the serial answers; the memo stays within its bound
    import sys
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(orders, "_STEP_CACHE_SIZE", 4)
    jobs = []
    for level in range(4, 7):
        n = group_order(level, table)
        xs = [generator("c", level, level), generator("a", level, level)]
        xs += [tower.random_element(level, 6000 + 10 * level + k) for k in range(3)]
        jobs += [(x, n) for x in xs]
    orders._y_step.cache_clear()
    serial = [multiplicative_order(x, n) for x, n in jobs]

    def run(seed):
        order = list(range(len(jobs))) * 40
        random.Random(seed).shuffle(order)
        return {k: multiplicative_order(*jobs[k]) for k in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = [f.result(timeout=120) for f in [pool.submit(run, s) for s in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert [got[k] for k in range(len(jobs))] == serial
    assert orders._y_step.cache_info().currsize <= 4


_norm_split_values = tower.norm_split_values  # bound before any test patches it


def _wrong_y(v, w):
    y, norm = _norm_split_values(v, w)
    return (y ^ 2 if y != 1 else y), norm


def test_a_step_with_a_wrong_y_is_refused(table, monkeypatch):
    # a memoized step is reused everywhere, so its y is certified once:
    # norm(y) = y^(N_j) = 1 must hold, else no answer is given
    monkeypatch.setattr(tower, "norm_split_values", _wrong_y)
    with pytest.raises(ArithmeticFault, match="norm != 1 at level 5"):
        multiplicative_order(generator("c", 5, 5), group_order(5, table))
    with pytest.raises(ArithmeticFault, match="norm != 1 at level 5"):
        verify_thm5(5, table)
    [record] = cli._run_verify_task(cli._Task("thm5.j05.factorization", "verify_thm5", (5,)))
    assert not record.ok and record.detail.startswith("ArithmeticFault: conj(x)/x has norm != 1")


def test_a_level3_step_with_a_wrong_y_is_refused(table, monkeypatch):
    # the level-3 step certifies y by norm(y) = y^257 = 1: the wrong y for
    # c_3 has order 17 * 257, so that norm is not 1
    y, _ = _wrong_y(generator("c", 3, 3).value, 16)
    assert tower.leaf_order(y) == 17 * 257
    monkeypatch.setattr(tower, "norm_split_values", _wrong_y)
    orders._y_step.cache_clear()
    with pytest.raises(ArithmeticFault, match="level 3"):
        minimal_subfield_exponent(3, table)
    with pytest.raises(ArithmeticFault, match="level 3"):
        alpha_chain(3, "c", table)


def test_a_level3_step_outside_the_exponent_is_refused():
    # y = conj(c_3)/c_3 has order 257, which the empty exponent 1 misses
    y, _ = tower.norm_split_values(generator("c", 3, 3).value, 16)
    with pytest.raises(NotAnExponent):
        orders._y_step(y, 3, ())
    assert orders._y_step(y, 3, (257,)) == 257


def test_a_raising_suite_names_its_error_not_the_factor_table(monkeypatch, capsys):
    # only a MissingFactorization is reported under `.factorization`
    # (test_cli.test_verify_thm5_missing_level)
    monkeypatch.setattr(tower, "norm_split_values", _wrong_y)
    assert cli.main(["verify", "thm5", "--level", "5"]) == 1
    assert capsys.readouterr().out.startswith("FAIL thm5.j05.error ArithmeticFault: ")


def test_a_wrong_norm_chain_link_is_refused(monkeypatch, capsys):
    # each link of the chain is checked against the full-width v*conj(v)
    norm_value = tower.norm_value
    monkeypatch.setattr(tower, "norm_value", lambda v, w: norm_value(v, w) ^ 1)
    with pytest.raises(ArithmeticFault, match=r"norm != x\*conj\(x\) at level 5"):
        verify_membership(1, 5)
    with pytest.raises(ArithmeticFault, match=r"norm != x\*conj\(x\) at level 5"):
        verify_identities(5, 4)
    assert cli.main(["verify", "thm1", "--level", "5"]) == 1
    assert capsys.readouterr().out.startswith("FAIL thm1.i05 ArithmeticFault: norm != x*conj(x)")
