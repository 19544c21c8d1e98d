"""Multiplicative orders, primitivity, minimal subfield exponents, and the
verification suites built on them.

Orders follow the tower itself.  At level j the group order splits into
coprime parts, 2^w - 1 = (2^(w/2) - 1) * N_j, so the order of x is the
order of conj(x)/x, a divisor of N_j tested against N_j's few primes at
exponents of about w/2 bits, times the order of the norm x*conj(x) one
level down at half width.  Results are cached: the corollary sweep asks
for the same handful of orders many times.

Minimal subfield exponents strip primes out of an exponent for as long as
the power still lands in the subfield; chaining those minimal exponents
from level i down to level 1 factors the order of a generator into one
divisor of each Fermat number (the exponent set of a subfield condition is
closed under gcd, which is what makes divisor-by-divisor descent sound).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .bignat import BigNat
from .errors import LevelError, MissingFactorization, NotAnExponent, ZeroElement
from .fermat import (
    FactoredOrder,
    FermatFactorization,
    builtin_factor_table,
    fermat_number,
    group_order,
)
from .report import VerificationReport
from .tower import TowerElement, generator, norm_split_values, pow_values, width_of

_order_cache: dict[tuple[int, int, BigNat], FactoredOrder] = {}


def _table_or_builtin(table):
    return builtin_factor_table() if table is None else table


def _entry(table: list[FermatFactorization], j: int) -> FermatFactorization:
    for e in table:
        if e.j == j:
            return e
    raise MissingFactorization(f"no complete factorization for N_{j}")


def _cofactor_powers(v: int, w: int, blocks: list[BigNat]) -> list[int]:
    """[v^(B/b) for b in blocks], B = prod(blocks), via a product tree
    split where the bits balance, since each tree level costs about the bit
    length of B: the 1872-bit prime of N_11 sits at depth 1."""
    if len(blocks) == 1:
        return [v]
    bits = [b.bit_length() for b in blocks]
    mid = 1
    while mid < len(blocks) - 1 and 2 * sum(bits[: mid + 1]) <= sum(bits):
        mid += 1
    left, right = blocks[:mid], blocks[mid:]
    return _cofactor_powers(pow_values(v, prod(right), w), w, left) + _cofactor_powers(
        pow_values(v, prod(left), w), w, right
    )


def multiplicative_order(x: TowerElement, n: FactoredOrder) -> FactoredOrder:
    """Exact order of x given a factored exponent n with x^n = 1.

    Descends from x's level one norm at a time.  At level j, y = conj(x)/x
    = x^(2^(w/2)-1) carries the part of the order that divides N_j: with
    g the product of n's prime powers dividing N_j, each cofactor power
    y^(g/p^e) has order p^a, a being p's multiplicity in the order, and
    counting the p-power steps down to 1 recovers a.  x^n = 1 exactly when
    y^g = 1 at every level, which is free when N_j divides g, so a prime
    N_j costs no exponentiation.  The norm x*conj(x) = x^(N_j) carries the
    rest; the descent stops once it is 1.  The result o satisfies x^o = 1
    and x^(o/p) != 1 for every prime p dividing o.
    """
    if x.value == 0:
        raise ZeroElement("zero has no multiplicative order")
    key = (x.level, x.value, n.value)
    hit = _order_cache.get(key)
    if hit is not None:
        return hit
    multiplicities: dict[BigNat, int] = {}
    v, level = x.value, x.level
    while v != 1:
        w, n_j = width_of(level), fermat_number(level)
        y, v = norm_split_values(v, w) if v >> (w >> 1) else (1, v)
        level -= 1
        if y == 1:
            continue
        blocks = [(p, e) for p, e in n.factors if n_j % p == 0]
        g = prod(p**e for p, e in blocks)
        if g % n_j and pow_values(y, g, w) != 1:
            raise NotAnExponent(
                "x^n != 1 for the claimed group order; wrong factor table or level"
            )
        for (p, e), z in zip(blocks, _cofactor_powers(y, w, [p**e for p, e in blocks])):
            t = 0
            while z != 1:
                t += 1
                if t == e:
                    break  # z^(p^(e-t)) = y^g = 1 is already known
                z = pow_values(z, p, w)
            multiplicities[p] = t
    result = FactoredOrder.from_prime_powers(multiplicities)
    _order_cache[key] = result
    return result


def is_primitive(
    x: TowerElement, table: list[FermatFactorization] | None = None
) -> tuple[bool, BigNat]:
    """Whether x generates the whole multiplicative group, plus its index."""
    if x.value == 0:
        raise ZeroElement("zero is not a group element")
    if x.level < 0:
        return True, 1
    n = group_order(x.level, _table_or_builtin(table))
    order = multiplicative_order(x, n)
    index = n.value // order.value
    return index == 1, index


def _smallest_exponent_into_subfield(
    v: int, w: int, sub_w: int, n_value: BigNat, n_factors
) -> BigNat:
    """Smallest divisor d of n_value with v^d in the subfield of width sub_w.

    Requires v^n_value to land in the subfield; the divisor-reduction is
    valid because the exponents that reach the subfield are exactly the
    multiples of the minimal one.
    """
    if pow_values(v, n_value, w) >> sub_w:
        raise NotAnExponent(
            "power by the full quotient-group order does not reach the subfield"
        )
    o = n_value
    for p, e in n_factors:
        for _ in range(e):
            if o % p:
                break
            cand = o // p
            if pow_values(v, cand, w) >> sub_w == 0:
                o = cand
            else:
                break
    return o


def minimal_subfield_exponent(
    j: int, table: list[FermatFactorization] | None = None
) -> BigNat:
    """Smallest d > 0 with c_j^d one level down, reduced over divisors of N_j."""
    if j < 1:
        raise LevelError(f"minimal subfield exponent needs j >= 1, got {j}")
    entry = _entry(_table_or_builtin(table), j)
    v = 1 << (1 << j)  # c_j
    d = _smallest_exponent_into_subfield(
        v, width_of(j), width_of(j - 1), fermat_number(j), [(p, 1) for p in entry.factors]
    )
    return d


@dataclass(frozen=True)
class AlphaChain:
    """Minimal-exponent chain [α_i, ..., α_1] for c_i (or a_i), each α_j a
    divisor of N_j greater than 1, whose product is the element's order."""

    i: int
    base: str
    alphas: tuple[BigNat, ...]

    @property
    def product(self) -> BigNat:
        out = 1
        for a in self.alphas:
            out *= a
        return out


def alpha_chain(
    i: int, base: str = "c", table: list[FermatFactorization] | None = None
) -> AlphaChain:
    """Descend base^(α_i * α_{i-1} * ...) one subfield per step.

    α_i is the smallest exponent sending the base element into level i-1;
    each later α_m is the smallest exponent sending the accumulated power
    from level m into level m-1, reduced over the divisors of N_m.  The
    final accumulated power must be 1, which is checked.
    """
    if base not in ("c", "a"):
        raise ValueError(f"base must be 'c' or 'a', got {base!r}")
    if i < 2:
        raise LevelError(f"alpha chains need level >= 2, got {i}")
    tab = _table_or_builtin(table)
    entries = {m: _entry(tab, m) for m in range(1, i + 1)}
    v = generator(base, i, i).value
    w = width_of(i)
    alphas: list[BigNat] = []
    for m in range(i, 0, -1):
        sub_w = width_of(m - 1)
        alpha = _smallest_exponent_into_subfield(
            v, w, sub_w, fermat_number(m), [(p, 1) for p in entries[m].factors]
        )
        if alpha <= 1:
            raise NotAnExponent(
                f"step at level {m} degenerated: accumulated power was already "
                f"in the subfield"
            )
        alphas.append(alpha)
        v = pow_values(v, alpha, w)
        w = sub_w  # the power now lives one level down
    if v != 1:
        raise NotAnExponent("alpha chain did not terminate at 1")
    return AlphaChain(i, base, tuple(alphas))


# ---------------------------------------------------------------------------
# Verification suites.  Failures become FAIL records, never exceptions.


def _cgen(i: int) -> TowerElement:
    return generator("c", i, i)


def _agen(i: int) -> TowerElement:
    return generator("a", i, i)


def _exp_name(i: int, k: int) -> str:
    return f"N_{i}" if k == 0 else f"N_{i}*...*N_{i - k}"


def verify_identities(
    i: int, k_max: int | None = None, *, base: bool = True, iterated: bool = True
) -> VerificationReport:
    """Re-check the power identities at level i.

    The two base identities: c_i^(N_i) = a_{i-1} and
    a_i^(N_i) = a_{i-1}^(N_i + 1).  Their iterated forms, for k up to
    k_max: raising c_i (resp. a_i) to N_i * N_{i-1} * ... * N_{i-k} equals
    a_{i-k-1} raised to the product of (N_{i-j} + 1) for j = 1..k
    (resp. 0..k), the empty product being 1.  The `base` and `iterated`
    switches let a runner emit just one of the two families.
    """
    if i < 1:
        raise LevelError(f"identities need level >= 1, got {i}")
    if k_max is None:
        k_max = i - 1
    if not (0 <= k_max <= i - 1):
        raise LevelError(f"k_max must lie in 0..{i - 1}, got {k_max}")
    report = VerificationReport()
    n_i = fermat_number(i)
    c_i, a_i = _cgen(i), _agen(i)
    a_prev_value = _agen(i - 1).value if i >= 1 else 1

    if base:
        lhs1 = pow_values(c_i.value, n_i, c_i.width)
        report.add(
            f"lemma5.eq1.i{i:02d}", lhs1 == a_prev_value, f"c_{i}^(N_{i}) = a_{i - 1}"
        )
        lhs2 = pow_values(a_i.value, n_i, a_i.width)
        rhs2 = pow_values(a_prev_value, n_i + 1, width_of(i - 1))
        report.add(
            f"lemma5.eq2.i{i:02d}",
            lhs2 == rhs2,
            f"a_{i}^(N_{i}) = a_{i - 1}^(N_{i}+1)",
        )

    for k in range(k_max + 1) if iterated else ():
        e_lhs = 1
        for j in range(k + 1):
            e_lhs *= fermat_number(i - j)
        e3 = 1
        for j in range(1, k + 1):
            e3 *= fermat_number(i - j) + 1
        e4 = e3 * (n_i + 1)
        target = _agen(i - k - 1)
        lhs3 = pow_values(c_i.value, e_lhs, c_i.width)
        rhs3 = pow_values(target.value, e3, target.width)
        report.add(
            f"lemma6.eq3.i{i:02d}.k{k}",
            lhs3 == rhs3,
            f"c_{i}^({_exp_name(i, k)}) = a_{i - k - 1}^(prod (N+1), j=1..{k})",
        )
        lhs4 = pow_values(a_i.value, e_lhs, a_i.width)
        rhs4 = pow_values(target.value, e4, target.width)
        report.add(
            f"lemma6.eq4.i{i:02d}.k{k}",
            lhs4 == rhs4,
            f"a_{i}^({_exp_name(i, k)}) = a_{i - k - 1}^(prod (N+1), j=0..{k})",
        )
    return report


def verify_membership(theorem: int, i: int) -> VerificationReport:
    """Subfield membership of the iterated powers of c_i (1) or a_i (2).

    For k = 0..i-2 the power by N_i * ... * N_{i-k} must land in level
    i-k-1 but not in level i-k-2.  At k = i-1 the power degenerates to 1
    (the exponent picks up N_1 + 1 = 6, a multiple of the order of a_0),
    which is recorded as its own check.
    """
    if theorem not in (1, 2):
        raise ValueError(f"theorem must be 1 or 2, got {theorem}")
    if i < 2:
        raise LevelError(f"membership checks need level >= 2, got {i}")
    report = VerificationReport()
    base = _cgen(i) if theorem == 1 else _agen(i)
    name = "c" if theorem == 1 else "a"
    w = base.width
    power = base.value
    for k in range(i):
        power = pow_values(power, fermat_number(i - k), w)
        if k <= i - 2:
            inside = power >> width_of(i - k - 1) == 0
            above = power >> width_of(i - k - 2) != 0
            report.add(
                f"thm{theorem}.membership.i{i:02d}.k{k}",
                inside and above,
                f"{name}_{i}^({_exp_name(i, k)}) in L_{i - k - 1} minus L_{i - k - 2}",
            )
        else:
            report.add(
                f"thm{theorem}.degenerate.i{i:02d}",
                power == 1,
                f"power at k = {i - 1} equals 1",
            )
    return report


def _abbrev(p: BigNat) -> str:
    s = str(p)
    return s if len(s) <= 24 else f"{s[:12]}...({len(s)} digits)"


def verify_thm5(j: int, table: list[FermatFactorization] | None = None) -> VerificationReport:
    """The minimal-exponent claim at level j via prime-quotient checks.

    c_j^(N_j) must equal a_{j-1}, and for every prime p dividing N_j the
    power c_j^(N_j/p) must stay outside level j-1; together these make N_j
    the smallest exponent sending c_j down one level.
    """
    if j < 1:
        raise LevelError(f"quotient checks need level >= 1, got {j}")
    entry = _entry(_table_or_builtin(table), j)
    report = VerificationReport()
    n_j = fermat_number(j)
    v = 1 << (1 << j)  # c_j
    w = width_of(j)
    sub_w = width_of(j - 1)
    landed = pow_values(v, n_j, w)
    report.add(
        f"thm5.j{j:02d}.eq1",
        landed == 1 << (sub_w - 1),
        f"c_{j}^(N_{j}) = a_{j - 1}",
    )
    for idx, p in enumerate(entry.factors):
        outside = pow_values(v, n_j // p, w) >> sub_w != 0
        report.add(
            f"thm5.j{j:02d}.q{idx}",
            outside,
            f"c_{j}^(N_{j}/{_abbrev(p)}) not in L_{j - 1}",
        )
    return report


def verify_corollaries(
    i: int, table: list[FermatFactorization] | None = None
) -> VerificationReport:
    """Order and primitivity consequences at level i.

    Checks: the exact order of c_i and a_i (product of N_1..N_i); the
    factor-3 jump when multiplying by c_0; the lower bound from the divisor
    congruence; primitivity of c_i*c_0 and a_i*a_0; non-primitivity of c_i
    itself with index exactly 3; order equality of c_i and a_i (equal
    orders give equal cyclic subgroups); and the level-1 exception where
    the a- and c-subgroups differ.
    """
    if i < 2:
        raise LevelError(f"corollary checks need level >= 2, got {i}")
    tab = _table_or_builtin(table)
    n = group_order(i, tab)
    report = VerificationReport()

    c_i, a_i = _cgen(i), _agen(i)
    c0 = generator("c", 0, i)
    cc0 = c_i.mul(c0)
    aa0 = a_i.mul(generator("a", 0, i))
    o_c = multiplicative_order(c_i, n)
    o_a = multiplicative_order(a_i, n)
    o_cc0 = multiplicative_order(cc0, n)
    o_aa0 = multiplicative_order(aa0, n)

    expected = 1
    for j in range(1, i + 1):
        expected *= fermat_number(j)
    report.add(
        f"cor.i{i:02d}.order-c",
        o_c.value == expected,
        f"O(c_{i}) = N_1*...*N_{i}",
    )
    report.add(
        f"cor.i{i:02d}.order-a",
        o_a.value == expected,
        f"O(a_{i}) = N_1*...*N_{i}",
    )
    report.add(
        f"cor.i{i:02d}.times-c0",
        o_cc0.value == 3 * o_c.value and o_aa0.value == 3 * o_a.value,
        f"O(c_{i}*c_0) = 3*O(c_{i}) and O(a_{i}*a_0) = 3*O(a_{i})",
    )

    bound = 1
    for j in range(1, min(i, 4) + 1):
        bound *= fermat_number(j)
    for j in range(5, i + 1):
        bound *= (1 << (j + 2)) + 1
    report.add(
        f"cor.i{i:02d}.lower-bound",
        o_c.value >= bound and o_a.value >= bound,
        f"orders at level {i} meet the divisor-congruence lower bound",
    )

    prim_c, idx_c = is_primitive(cc0, tab)
    prim_a, idx_a = is_primitive(aa0, tab)
    report.add(
        f"cor.i{i:02d}.primitive",
        prim_c and prim_a and idx_c == 1 and idx_a == 1,
        f"c_{i}*c_0 and a_{i}*a_0 generate the group",
    )
    prim_ci, idx_ci = is_primitive(c_i, tab)
    report.add(
        f"cor.i{i:02d}.c-index",
        (prim_ci, idx_ci) == (False, 3),
        f"c_{i} is not primitive; its index is 3",
    )
    report.add(
        f"cor.i{i:02d}.subgroup-chain",
        o_c.value == o_a.value,
        f"O(c_{i}) = O(a_{i}), so the cyclic subgroups coincide",
    )

    n1 = group_order(1, tab)
    o_c1 = multiplicative_order(_cgen(1), n1)
    o_a1 = multiplicative_order(_agen(1), n1)
    report.add(
        f"cor.i{i:02d}.level1-exception",
        o_a1.value == 5 and o_c1.value == 15,
        "O(a_1) = 5 differs from O(c_1) = 15",
    )
    return report


def verify_closing_example(table: list[FermatFactorization] | None = None) -> VerificationReport:
    """Re-check the level-2 worked example's claims exactly as stated.

    Two of the five claims are arithmetically false and the checks refute
    them: c_2 + c_1 + 1 is the fourth power of c_2 (order 85), while the
    fifth power is c_2*c_1 + c_1*c_0 (order 17).  Both the recursive
    arithmetic and the game-definition oracle agree on this, for every
    admissible root choice of the tower's defining quadratics, so the FAIL
    records are the expected output here.
    """
    tab = _table_or_builtin(table)
    n = group_order(2, tab)
    report = VerificationReport()
    c2 = _cgen(2)
    c2c0 = c2.mul(generator("c", 0, 2))
    o_c2 = multiplicative_order(c2, n)
    report.add("l2ex.order-c2", o_c2.value == 85, "O(c_2) = 5 * 17 = 85")
    o_c2c0 = multiplicative_order(c2c0, n)
    report.add("l2ex.order-c2c0", o_c2c0.value == 255, "O(c_2*c_0) = 3 * 5 * 17 = 255")
    prim, idx = is_primitive(c2c0, tab)
    report.add("l2ex.primitive", prim and idx == 1, "c_2*c_0 is primitive in L_2")
    fifth = c2.pow(5)
    claimed = TowerElement(2, 0b10101)  # c_2 + c_1 + 1
    report.add(
        "l2ex.fifth-power",
        fifth == claimed,
        "c_2^5 = c_2 + c_1 + 1"
        + ("" if fifth == claimed else f" (claim refuted: c_2^5 = {fifth.value:#x})"),
    )
    o_sum = multiplicative_order(claimed, n)
    report.add(
        "l2ex.order-sum",
        o_sum.value == 17,
        "O(c_2 + c_1 + 1) = 17"
        + ("" if o_sum.value == 17 else f" (claim refuted: order is {o_sum.value})"),
    )
    return report
