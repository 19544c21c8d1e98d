"""Tests for Fermat numbers, factor tables, and factored group orders."""

import math

import pytest

from nimtower import fermat, tower
from nimtower.errors import LevelError, MissingFactorization, ParseError, ValidationError
from nimtower.fermat import (
    _FACTOR_STRINGS,
    FactoredOrder,
    FermatFactorization,
    factorization,
    fermat_number,
    from_decimal,
    group_order,
    is_probable_prime,
    load_factor_table,
    merge_tables,
    validate,
)


def test_from_decimal():
    assert from_decimal("641") == 641
    assert from_decimal("000") == 0
    assert from_decimal("65537") == 65537


@pytest.mark.parametrize("bad", ["", "12a", "-5", " 3", "0x10", "6 41"])
def test_from_decimal_rejects(bad):
    with pytest.raises(ParseError):
        from_decimal(bad)


def test_roundtrip_on_factor_strings():
    for strings in _FACTOR_STRINGS.values():
        for s in strings:
            assert str(from_decimal(s)) == s


def test_fermat_number_values():
    assert fermat_number(0) == 3
    assert fermat_number(4) == 65537
    assert fermat_number(5) == 4294967297
    assert fermat_number(11) == (1 << 2048) + 1


def test_fermat_number_ceiling():
    top = tower.MAX_LEVEL + 1
    assert fermat_number(top).bit_length() == tower.width_of(tower.MAX_LEVEL) + 1
    with pytest.raises(LevelError):
        fermat_number(top + 1)
    with pytest.raises(LevelError):
        load_factor_table("N40: 3")  # refused before 2^(2^40) is built


def test_builtin_table_contents(table):
    by_level = {e.j: e for e in table}
    assert sorted(by_level) == list(range(12))
    assert by_level[1].factors == (5,)
    assert by_level[6].factors == (274177, 67280421310721)
    assert len(by_level[11].factors) == 5


def test_builtin_products(table):
    for entry in table:
        product = 1
        for p in entry.factors:
            product *= p
        assert product == fermat_number(entry.j)


def test_load_factor_table():
    loaded = load_factor_table(
        """
        # a comment
        N5: 641 6700417

        N6: 274177 67280421310721
        """
    )
    assert [e.j for e in loaded] == [5, 6]
    assert loaded[0].factors == (641, 6700417)


def test_load_rejects_bad_product():
    with pytest.raises(ValidationError):
        load_factor_table("N5: 641 6700418")


def test_load_rejects_composite_factor():
    # 4294967297 = 641 * 6700417 multiplies out and is 1 mod 2^7
    with pytest.raises(ValidationError, match="not prime"):
        load_factor_table("N5: 4294967297")
    with pytest.raises(ValidationError, match="not prime"):
        load_factor_table("N6: 274177 67280421310721\nN5: 4294967297")


def test_builtin_table_is_fresh_list_of_shared_entries():
    first = fermat.builtin_factor_table()
    first.pop()
    first[0] = FermatFactorization(0, (1, 3))
    second = fermat.builtin_factor_table()
    assert [e.j for e in second] == list(range(12))
    assert second[0].factors == (3,)
    assert second[5] is fermat.builtin_factor_table()[5]


def test_load_rejects_grammar_violations():
    too_long = "9" * 5000  # more digits than int() converts
    for bad in ("N5 641", "M5: 641", "N5:", "Nx: 3", "N5: 6,41", "N²: 3",
                f"N{too_long}: 3", f"N5: {too_long}"):
        with pytest.raises(ParseError):
            load_factor_table(bad)
    with pytest.raises(ParseError):
        load_factor_table("N5: 641 6700417\nN5: 641 6700417")


def test_merge_tables(table):
    override = load_factor_table("N5: 641 6700417")
    merged = merge_tables(table, override)
    assert len(merged) == 12
    assert {e.j for e in merged} == set(range(12))


def test_validate_builtin_passes(table):
    report = validate(table)
    assert report.passed
    ids = {r.check_id for r in report.records}
    assert "table.N05.product" in ids
    assert "table.N05.divisor-congruence" in ids
    assert "table.pairwise-distinct" in ids
    assert "fermat.recurrence.i11" in ids
    assert "fermat.successor-coprime.i11" in ids


def test_divisor_congruence_value():
    # 6700417 - 1 = 52347 * 2^7
    assert (6700417 - 1) % (1 << 7) == 0
    assert (6700417 - 1) // (1 << 7) == 52347


def test_validate_flags_duplicate_prime_across_levels():
    # hand-built broken entries bypass the load-time checks on purpose
    t = [
        FermatFactorization(0, (3,)),
        FermatFactorization(1, (3,)),
    ]
    report = validate(t)
    dup = [r for r in report.records if r.check_id == "table.pairwise-distinct"]
    assert dup and not dup[0].ok


def test_validate_flags_wrong_product():
    report = validate([FermatFactorization(5, (641, 6700419))])
    bad = [r for r in report.records if r.check_id == "table.N05.product"]
    assert bad and not bad[0].ok


def test_validate_primality(table):
    report = validate(table[:7], check_primality=True, mr_rounds=16)
    assert report.passed
    broken = validate([FermatFactorization(0, (3,)), FermatFactorization(2, (17,)),
                       FermatFactorization(1, (5,))], check_primality=True)
    assert broken.passed
    report = validate(
        [FermatFactorization(9, tuple(sorted((2424833 * 7455602825647884208337395736200454918783366342657,
                                               fermat_number(9) // 2424833 // 7455602825647884208337395736200454918783366342657))))],
        check_primality=True,
        mr_rounds=16,
    )
    prim = [r for r in report.records if r.check_id == "table.N09.primality"]
    assert prim and not prim[0].ok  # composite cofactor detected


def test_recurrence_identity():
    for i in range(1, 12):
        product = 1
        for j in range(i):
            product *= fermat_number(j)
        assert fermat_number(i) == product + 2


def test_successor_coprimality():
    for i in range(2, 12):
        for j in range(1, i):
            assert math.gcd(fermat_number(i) + 1, fermat_number(j)) == 1


def test_factorization_lookup(table):
    assert factorization(table, 5).factors == (641, 6700417)
    with pytest.raises(MissingFactorization, match="N_12"):
        factorization(table, 12)
    with pytest.raises(MissingFactorization, match="N_1$"):
        group_order(2, [FermatFactorization(0, (3,)), FermatFactorization(2, (17,))])


def test_group_order(table):
    go = group_order(2, table)
    assert go.value == 255
    assert go.factors == ((3, 1), (5, 1), (17, 1))
    assert group_order(0, table).value == 3
    with pytest.raises(MissingFactorization):
        group_order(12, table)


def test_group_order_value_identity(table):
    for i in range(0, 12):
        assert group_order(i, table).value + 1 == 1 << (1 << (i + 1))


def test_group_order_with_repeated_primes():
    # a hand-built table of valid entries gives the group order
    t = [FermatFactorization(0, (3,)), FermatFactorization(1, (5,)),
         FermatFactorization(2, (17,))]
    go = group_order(2, t)
    assert go.value == 255


def test_group_order_refuses_a_table_that_is_not_the_group_size():
    # 3 listed at levels 0 and 2: the primes multiply to 765, not 2^8 - 1,
    # which once gave group order 765 and a wrong (False, 3) for c2*c0
    from nimtower.orders import is_primitive

    t = [FermatFactorization(0, (3,)), FermatFactorization(1, (5,)),
         FermatFactorization(2, (3, 17))]
    with pytest.raises(ValidationError):
        group_order(2, t)
    x = tower.generator("c", 2, 2) * tower.generator("c", 0, 2)
    with pytest.raises(ValidationError):
        is_primitive(x, t)
    assert is_primitive(x) == (True, 1)


def test_builtin_group_orders_match_the_checked_path(table, monkeypatch):
    # equal but non-identical entries take the full product check, which
    # runs no Miller-Rabin on the builtin table's primes
    def refuse(*args):
        raise AssertionError("Miller-Rabin on a builtin prime")

    monkeypatch.setattr(fermat, "is_probable_prime", refuse)
    with pytest.raises(AssertionError, match="Miller-Rabin"):
        FactoredOrder(7, ((7, 1),))
    copies = [FermatFactorization(e.j, e.factors) for e in table]
    for i in range(12):
        prebuilt = group_order(i, fermat.builtin_factor_table())
        assert group_order(i, table) is prebuilt
        checked = group_order(i, copies)
        assert checked == prebuilt and checked is not prebuilt


def test_the_builtin_table_is_answered_without_comparing_entries(monkeypatch):
    # the builtin tuple itself, which a call without a table passes, takes
    # one identity test; only another container has its entries compared
    from nimtower.orders import is_primitive

    def refuse(*args):
        raise AssertionError("entries compared")

    monkeypatch.setattr(fermat, "is_", refuse)
    for i in range(12):
        assert group_order(i, fermat._BUILTIN_ENTRIES) is fermat._BUILTIN_ORDERS[i]
    x = tower.generator("c", 3, 3) * tower.generator("c", 0, 3)
    assert is_primitive(x) == (True, 1)
    with pytest.raises(AssertionError, match="entries compared"):
        group_order(3, fermat.builtin_factor_table())


def test_a_builtin_prefix_does_not_vouch_for_a_wrong_level(table):
    t = table[:2] + [FermatFactorization(2, (3, 17))]
    with pytest.raises(ValidationError):
        group_order(2, t)
    assert group_order(1, t) is group_order(1, table)


def test_factored_order_invariants():
    fo = FactoredOrder.from_prime_powers({5: 1, 3: 2})
    assert fo.value == 45
    assert fo.factors == ((3, 2), (5, 1))
    assert fo.format() == "3^2 * 5"
    assert fo == FactoredOrder(45, ((3, 2), (5, 1))) == FactoredOrder.from_prime_powers({3: 2, 7: 0, 5: 1})
    assert FactoredOrder.from_prime_powers({}).format() == "1"
    with pytest.raises(ValidationError):
        FactoredOrder(10, ((3, 1),))
    with pytest.raises(ValidationError):
        FactoredOrder(15, ((5, 1), (3, 1)))
    with pytest.raises(ValidationError, match="factor 4 is not prime"):
        FactoredOrder(4, ((4, 1),))
    with pytest.raises(ValidationError, match="factor 1 is not prime"):
        FactoredOrder(1, ((1, 1),))
    # an element of order 3 would find no prime 3 in this exponent
    with pytest.raises(ValidationError, match="factor 15 is not prime"):
        FactoredOrder(65535, ((15, 1), (17, 1), (257, 1)))
    assert FactoredOrder(7 * 65535, ((3, 1), (5, 1), (7, 1), (17, 1), (257, 1))).value == 7 * 65535
    # 3^-1 * q rounds to 2^60 as a float; exponents must be ints >= 1
    for value, factors in [
        (2**60, ((3, -1), (3458764513820541091, 1))),
        (1, ((7, 0),)),
        (2, ((2, 1.0),)),
    ]:
        with pytest.raises(ValidationError, match="exponents must be ints >= 1"):
            FactoredOrder(value, factors)


def test_miller_rabin():
    assert is_probable_prime(2)
    assert is_probable_prime(641)
    assert is_probable_prime(65537)
    assert is_probable_prime((1 << 127) - 1, rounds=16)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(6700417 * 641, rounds=16)
    big = fermat_number(9) // 2424833
    assert not is_probable_prime(big, rounds=8)  # known composite cofactor
