"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines as
they complete; the order sweep to level 11 (criterion 3) is the heaviest
part, about 8 s of a 26 s module run on a busy shared 2-vCPU machine.  Its
four elements per level share their descent steps, so the quotient checks
of criterion 4 then take well under a second.

Criterion 1 checks the bundled level-2 worked example claim by claim.
Three claims hold and are asserted as stated: O(c_2) = 85,
O(c_2*c_0) = 255, and c_2*c_0 is primitive with index 1.  The other two,
c_2^5 = c_2 + c_1 + 1 and O(c_2 + c_1 + 1) = 17, are false.  For them the
criterion asserts the refutation that Conway's mex definition
(``oracle.nim_mul_mex``, which shares no code with the tower arithmetic)
gives: c_2 + c_1 + 1 is the fourth power of c_2, of order 85, and the
fifth power is c_2*c_1 + c_1*c_0, of order 17.  It also asserts that
``verify_closing_example`` reports exactly those two claims as FAIL, and
that the oracle gives the same refutation under each of the 8 admissible
root choices of the defining quadratics.
"""

import random
import time

import pytest

from nimtower import fermat, oracle, orders, tower
from nimtower.fermat import fermat_number, group_order
from nimtower.tower import generator


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _fermat_product(lo: int, hi: int) -> int:
    out = 1
    for j in range(lo, hi + 1):
        out *= fermat_number(j)
    return out


def _oracle_closing_example() -> dict[tuple[int, int, int], dict[str, int]]:
    """The level-2 example recomputed with the mex oracle alone.

    One entry per admissible root choice (c_0, c_1, c_2): c_0 a root of
    x^2+x+1, c_1 of x^2+x+c_0, c_2 of x^2+x+c_0*c_1, all as nimbers < 256.
    """
    mul = oracle.nim_mul_mex

    def roots(k):
        return [x for x in range(oracle.MEX_ORACLE_BOUND) if mul(x, x) ^ x == k]

    def power(x, e):
        out = 1
        for _ in range(e):
            out = mul(out, x)
        return out

    def order(x):
        d, y = 1, x
        while y != 1:
            y, d = mul(y, x), d + 1
        return d

    facts = {}
    for c0 in roots(1):
        for c1 in roots(c0):
            for c2 in roots(mul(c0, c1)):
                stated_sum = c2 ^ c1 ^ 1
                fifth = power(c2, 5)
                facts[c0, c1, c2] = {
                    "sum": stated_sum,
                    "o_sum": order(stated_sum),
                    "fourth": power(c2, 4),
                    "fifth": fifth,
                    "o_fifth": order(fifth),
                    "c2c1+c1c0": mul(c2, c1) ^ mul(c1, c0),
                }
    return facts


# ---------------------------------------------------------------------------
# Criterion 3/5/6 share one order sweep; the fixture records its timings.


@pytest.fixture(scope="module")
def sweep(table):
    results = {}

    def level(i):
        n = group_order(i, table)
        c_i = generator("c", i, i)
        a_i = generator("a", i, i)
        cc0 = c_i.mul(generator("c", 0, i))
        aa0 = a_i.mul(generator("a", 0, i))
        return {
            "o_c": orders.multiplicative_order(c_i, n).value,
            "o_a": orders.multiplicative_order(a_i, n).value,
            "o_cc0": orders.multiplicative_order(cc0, n).value,
            "o_aa0": orders.multiplicative_order(aa0, n).value,
            "prim_cc0": orders.is_primitive(cc0, table),
            "prim_aa0": orders.is_primitive(aa0, table),
            "prim_c": orders.is_primitive(c_i, table),
        }

    t0 = time.perf_counter()
    for i in range(2, 9):
        results[i] = level(i)
    t_low = time.perf_counter() - t0
    for i in range(9, 12):
        results[i] = level(i)
    t_full = time.perf_counter() - t0
    return results, t_low, t_full


def test_criterion_01_closing_example(table):
    # the mex table takes seconds to build, so the oracle runs before the clock
    facts = _oracle_closing_example()
    choices_ok = len(facts) == 8 and all(
        f["fourth"] == f["sum"]
        and f["o_sum"] == 85
        and f["fifth"] == f["c2c1+c1c0"] != f["sum"]
        and f["o_fifth"] == 17
        for f in facts.values()
    )
    ref = facts[2, 4, 16]  # the package's encoding: c_k is the nimber 2^(2^k)

    t0 = time.perf_counter()
    n2 = group_order(2, table)
    c2 = generator("c", 2, 2)
    c2c0 = c2.mul(generator("c", 0, 2))
    o_c2 = orders.multiplicative_order(c2, n2).value
    o_cc0 = orders.multiplicative_order(c2c0, n2).value
    prim = orders.is_primitive(c2c0, table)
    stated_sum = c2 + generator("c", 1, 2) + generator("one", 0, 2)
    fourth, fifth = c2.pow(4), c2.pow(5)
    o_sum = orders.multiplicative_order(stated_sum, n2).value
    o_fifth = orders.multiplicative_order(fifth, n2).value
    statuses = {r.check_id: r.ok for r in orders.verify_closing_example(table).records}
    elapsed = time.perf_counter() - t0

    parts = [
        (o_c2 == 85, f"O(c_2)={o_c2}"),
        (o_cc0 == 255, f"O(c_2*c_0)={o_cc0}"),
        (prim == (True, 1), f"is_primitive(c_2*c_0)={prim}"),
        (
            stated_sum.value == ref["sum"]
            and fourth.value == ref["fourth"] == ref["sum"]
            and fifth.value == ref["fifth"] == ref["c2c1+c1c0"]
            and fifth != stated_sum,
            f"stated c_2^5=c_2+c_1+1 refuted: c_2^4={fourth.value:#x}, "
            f"c_2^5={fifth.value:#x} (oracle: c_2+c_1+1=c_2^4={ref['fourth']:#x}, "
            f"c_2^5=c_2*c_1+c_1*c_0={ref['fifth']:#x})",
        ),
        (
            o_sum == ref["o_sum"] == 85 and o_fifth == ref["o_fifth"] == 17,
            f"stated O(c_2+c_1+1)=17 refuted: O(c_2+c_1+1)={o_sum}, "
            f"O(c_2^5)={o_fifth} (oracle: {ref['o_sum']}, {ref['o_fifth']})",
        ),
        (
            statuses
            == {
                "l2ex.order-c2": True,
                "l2ex.order-c2c0": True,
                "l2ex.primitive": True,
                "l2ex.fifth-power": False,
                "l2ex.order-sum": False,
            },
            "example-l2 FAIL records: "
            + ",".join(sorted(k for k, ok in statuses.items() if not ok)),
        ),
        (choices_ok, f"oracle refutation checked under {len(facts)} root choices"),
        (elapsed < 1.0, f"{elapsed:.2f}s"),
    ]
    _criterion(1, all(ok for ok, _ in parts), "; ".join(d for _, d in parts))


def test_criterion_02_remark_orders(table):
    t0 = time.perf_counter()
    n1 = group_order(1, table)
    o_c1 = orders.multiplicative_order(generator("c", 1, 1), n1).value
    o_a1 = orders.multiplicative_order(generator("a", 1, 1), n1).value
    elapsed = time.perf_counter() - t0
    ok = o_c1 == 15 and o_a1 == 5 and elapsed < 1.0
    _criterion(2, ok, f"O(c_1)={o_c1}, O(a_1)={o_a1}; {elapsed:.2f}s")


def test_criterion_03_exact_orders_to_level_11(sweep):
    results, t_low, t_full = sweep
    bad = []
    for i in range(2, 12):
        expected = _fermat_product(1, i)
        if results[i]["o_c"] != expected or results[i]["o_a"] != expected:
            bad.append(i)
    ok = not bad and t_low <= 30.0 and t_full <= 1800.0
    _criterion(
        3,
        ok,
        f"O(c_i)=O(a_i)=N_1*...*N_i for i=2..11"
        + (f" except {bad}" if bad else "")
        + f"; levels<=8 in {t_low:.1f}s (cap 30s), full sweep in {t_full:.1f}s (cap 1800s)",
    )


def test_criterion_04_theorem5_quotient_checks(table):
    t0 = time.perf_counter()
    quotient_checks = 0
    failures = []
    for j in range(5, 12):
        report = orders.verify_thm5(j, table)
        quotient_checks += sum(1 for r in report.records if ".q" in r.check_id)
        failures.extend(r.check_id for r in report.records if not r.ok)
    elapsed = time.perf_counter() - t0
    # the complete factorizations carry 2+2+2+2+3+4+5 = 20 primes
    ok = not failures and quotient_checks == 20 and elapsed <= 900.0
    _criterion(
        4,
        ok,
        f"{quotient_checks} quotient checks + 7 landing identities, "
        f"failures={failures or 'none'}; {elapsed:.1f}s (cap 900s)",
    )


def test_criterion_05_primitivity_of_c0_products(sweep):
    results, _, _ = sweep
    bad = []
    for i in range(2, 12):
        r = results[i]
        if not (
            r["prim_cc0"] == (True, 1)
            and r["prim_aa0"] == (True, 1)
            and r["o_cc0"] == 3 * r["o_c"]
            and r["o_aa0"] == 3 * r["o_a"]
        ):
            bad.append(i)
    _criterion(
        5,
        not bad,
        "c_i*c_0 and a_i*a_0 primitive with the order-3 jump for i=2..11"
        + (f" except {bad}" if bad else ""),
    )


def test_criterion_06_c_i_not_primitive_index_3(sweep):
    results, _, _ = sweep
    bad = [i for i in range(2, 12) if results[i]["prim_c"] != (False, 3)]
    _criterion(
        6,
        not bad,
        "is_primitive(c_i) = (false, 3) for i=2..11" + (f" except {bad}" if bad else ""),
    )


def test_criterion_07_identity_suite(table):
    t0 = time.perf_counter()
    failures = []
    for i in range(1, 12):
        report = orders.verify_identities(
            i, k_max=(i - 1 if i <= 8 else 0), iterated=(2 <= i <= 8)
        )
        failures.extend(r.check_id for r in report.records if not r.ok)
    for theorem in (1, 2):
        for i in range(2, 9):
            report = orders.verify_membership(theorem, i)
            failures.extend(r.check_id for r in report.records if not r.ok)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed <= 300.0
    _criterion(
        7,
        ok,
        f"power identities i<=11, iterated forms and membership i<=8, "
        f"failures={failures or 'none'}; {elapsed:.1f}s (cap 300s)",
    )


def test_criterion_08_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    for level in (0, 1, 2):
        report = oracle.cross_check(level)
        failures.extend(r.check_id for r in report.records if not r.ok)
    for level in (3, 4, 5, 6):
        report = oracle.cross_check(level, samples=10_000, seed=2024)
        failures.extend(r.check_id for r in report.records if not r.ok)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed <= 120.0
    _criterion(
        8,
        ok,
        f"65536 exhaustive pairs vs both oracles at level 2 plus 10^4 sampled "
        f"pairs per level 3..6, failures={failures or 'none'}; {elapsed:.1f}s (cap 120s)",
    )


def test_criterion_09_factor_table_validation(table):
    t0 = time.perf_counter()
    report = fermat.validate(table, check_primality=True, mr_rounds=64)
    elapsed = time.perf_counter() - t0
    failures = [r.check_id for r in report.records if not r.ok]
    ok = not failures and elapsed <= 300.0
    _criterion(
        9,
        ok,
        f"{len(report.records)} table checks (products, congruences, coprimality, "
        f"recurrence, Miller-Rabin x64), failures={failures or 'none'}; "
        f"{elapsed:.1f}s (cap 300s)",
    )


def test_criterion_10_algebraic_property_suite():
    t0 = time.perf_counter()
    failures = 0
    checks = 0

    offsets = {"x": 0, "y": 1_000_000, "z": 2_000_000, "f": 3_000_000, "l": 4_000_000}

    def sample(level, tag, k):
        return tower.random_element(level, offsets[tag] + k)

    for level in range(0, 9):
        one = generator("one", 0, level)
        for k in range(1000):
            x = sample(level, "x", k)
            y = sample(level, "y", k)
            z = sample(level, "z", k)
            checks += 5
            if x * y != y * x:
                failures += 1
            if (x * y) * z != x * (y * z):
                failures += 1
            if x * (y + z) != x * y + x * z:
                failures += 1
            if x * one != x:
                failures += 1
            if x.square() != x * x:
                failures += 1
            if x.value:
                checks += 1
                if x * x.inverse() != one:
                    failures += 1
        if level <= 6:
            frob_exp = 1 << (1 << level)
            closure_exp = 1 << (1 << (level + 1))
            for k in range(1000):
                x = sample(level, "f", k)
                checks += 2
                if x.frobenius_conj() != x.pow(frob_exp):
                    failures += 1
                if x.pow(closure_exp) != x:
                    failures += 1
        lagrange_samples = {6: 200, 7: 60, 8: 20}.get(level, 1000)
        lagrange = (1 << tower.width_of(level)) - 1
        for k in range(lagrange_samples):
            x = sample(level, "l", k)
            if x.value:
                checks += 1
                if x.pow(lagrange) != one:
                    failures += 1

    from nimtower.tower import _ensure_tables, _mul, _mul_top, _square

    _ensure_tables()
    rng = random.Random(777)
    for level in range(1, 9):
        w = tower.width_of(level)
        half = w >> 1
        for _ in range(1000):
            v = rng.getrandbits(w)
            vh, vl = v >> half, v & ((1 << half) - 1)
            norm = _mul_top(_square(vh, half), half) ^ _mul(vh, vl, half) ^ _square(vl, half)
            checks += 1
            if norm >> half:
                failures += 1

    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed <= 120.0
    _criterion(
        10,
        ok,
        f"{checks} property checks (axioms, square-vs-mul, inverse, Frobenius, "
        f"Lagrange, norm closure), {failures} failures; {elapsed:.1f}s (cap 120s)",
    )
