"""Multiplicative orders, primitivity, minimal subfield exponents, and the
verification suites built on them.

Orders follow the tower itself.  At level j the group order splits into
coprime parts, 2^w - 1 = (2^(w/2) - 1) * N_j, so the order of x is the
order of y = conj(x)/x, a divisor of N_j tested against N_j's few primes
at exponents of about w/2 bits, times the order of the norm x*conj(x) one
level down, to L_3, where the log table picks one of 16 prebuilt orders.
That order of y is one int, the product of the listed primes p of N_j
with y^(g/p) != 1, g being their product.  Elements that differ by a
factor from one level down share y, as c_i, a_i, c_i*c_0, a_i*a_0 and
thm5 do at level i, so one bounded memo keeps that order (for orders,
steps at levels >= 4) and certifies each y once: norm(y) = y^(N_j) must
be 1.  As 3 divides no N_j, y^3 has the order of y, so the memo files
each answer for y^3 too: below level i, a_i's descent asks about y^3,
y^9, ... of the y that c_i's asked about, and reuses its steps.  The memo
also files each step under the value x that entered it, so a repeated
order, alpha chain or minimal exponent reads its steps without splitting
x into its norm and y.  The cofactor powers y^(g/p) come from one product
tree.

Every subfield question is answered by the same two facts.  conj fixes
exactly L_(j-1), so x^d lies one level down exactly when (conj(x)/x)^d = 1:
the smallest such d is the order of conj(x)/x, a divisor of N_j, and
c_j^(N_j/p) lies outside L_(j-1) exactly when (conj(c_j)/c_j)^(N_j/p) != 1.
And x^(N_j) is the norm x*conj(x), so a power by N_j * N_(j-1) * ... is a
chain of norms, one level down per factor.  Minimal exponents, alpha
chains and the quotient checks share the descent's per-level step; the
identity and membership suites walk the norm chain, checking each link.

Kernels and norms are called through the `tower` module, not bound here,
so that one patch of `tower._mul` (say) reaches every call.
"""

from __future__ import annotations

from collections import OrderedDict
from math import prod
from types import SimpleNamespace

from . import tower
from .errors import ArithmeticFault, LevelError, NotAnExponent, ZeroElement
from .fermat import (
    _BUILTIN_ENTRIES,
    FactoredOrder,
    FermatFactorization,
    factorization,
    fermat_number,
    group_order,
)
from .report import VerificationReport
from .tower import LOG_TABLE_BITS, TowerElement, generator, leaf_order, width_of
from .value import Value

# Entries of the step memo, of both kinds and filed cubes included, least
# recently used dropped first: enough for every distinct step of a verify
# sweep or a query-mix pass.
_STEP_CACHE_SIZE = 1024
_NOT_AN_EXPONENT = "x^n != 1 for the claimed group order; wrong factor table or level"

# The orders the log-table leaf reads: one per divisor d of 65535 = 3*5*17*257.
_LEAF_ORDERS = {
    d: FactoredOrder.of_primes(tuple(p for p in (3, 5, 17, 257) if d % p == 0))
    for d in (1, 3, 5, 15, 17, 51, 85, 255, 257, 771, 1285, 3855, 4369, 13107, 21845, 65535)
}


def _table_or_builtin(table):
    return _BUILTIN_ENTRIES if table is None else table


def _cofactor_powers(v: int, w: int, blocks: tuple[int, ...]) -> list[int]:
    """[v^(B/b) for b in blocks], B = prod(blocks), via a product tree
    split where the bits balance, since each tree level costs about the bit
    length of B: the 1872-bit prime of N_11 sits at depth 1.  Both powers
    of v at a node share one table of v's odd powers."""
    if len(blocks) < 2:
        return [v] * len(blocks)
    bits = [b.bit_length() for b in blocks]
    mid = 1
    while mid < len(blocks) - 1 and 2 * sum(bits[: mid + 1]) <= sum(bits):
        mid += 1
    left, right = blocks[:mid], blocks[mid:]
    to_left, to_right = tower._powers(v, (prod(right), prod(left)), w)
    return _cofactor_powers(to_left, w, left) + _cofactor_powers(to_right, w, right)


def _down_step(v: int, level: int, primes: tuple[int, ...]) -> tuple[int, int]:
    """One step of the descent for nonzero v in L_level: the norm
    v*conj(v) = v^(N_level), which lies one level down, and the order d of
    y = conj(v)/v from primes `primes` of N_level, the smallest d > 0 with
    v^d in L_(level-1).  A v stepped before is one read of the step memo,
    with no split; its entry is filed only once _y_step has certified y.
    """
    key = (v, level, primes, "v")
    step = _read_step(key)
    if step is None:
        y, norm = tower.norm_split_values(v, width_of(level))
        step = (norm, _y_step(y, level, primes))
        _file_step(key, step)
    return step


# The step memo, least recently used first, and its hits and misses:
# (y, level, primes) -> [order of y, whether its cube is still to be filed],
# and (v, level, primes, "v") -> (norm of v, order of conj(v)/v), the "v"
# keeping a value apart from an equal y.  It takes no lock: each OrderedDict
# call is atomic, two threads that race compute or file the same answer,
# and only the counters may miss a count.
_STEPS: OrderedDict = OrderedDict()
_STEP_COUNTS = [0, 0]


def _read_step(key: tuple):
    """The entry filed under key, marked as recently used, or None."""
    entry = _STEPS.get(key)
    if entry is not None:
        _STEP_COUNTS[0] += 1
        try:
            _STEPS.move_to_end(key)
        except KeyError:  # dropped by another thread since the read
            pass
    return entry


def _y_step(y: int, level: int, primes: tuple[int, ...]) -> int:
    """_y_order behind the bounded step memo, least recently used dropped
    first, filed entries of both kinds included.

    On its first use an entry also files its answer under (y^3, level,
    primes), y^3 being one square and one multiply.  Lemma 5 makes that
    the next question: a_i^(N_i) = a_(i-1)^(N_i+1), and N_i + 1 is 3
    modulo N_(i-1), so below its top level a_i's descent asks about y^3,
    y^9, ... where c_i's asked about y.  The answer carries over exactly
    when 3 is none of the step's primes: y^g = 1 gives (y^3)^g = 1, and
    ord(y^3) = ord(y) when 3 does not divide ord(y), which divides g.  The
    certificate carries over too, as norm(y^3) = norm(y)^3 = 1, so every
    y the memo answers has norm 1.  Each N_j (j >= 1) is 2 modulo 3, so
    no step of the descent has the prime 3; the guard is for direct calls.
    """
    key = (y, level, primes)
    entry = _read_step(key)
    if entry is None:
        _STEP_COUNTS[1] += 1
        entry = [_y_order(y, level, primes), 3 not in primes]
        _file_step(key, entry)
    if entry[1]:
        entry[1] = False
        w = width_of(level)
        cube = (tower._mul(tower._square(y, w), y, w), level, primes)
        if cube not in _STEPS:
            _file_step(cube, [entry[0], True])
    return entry[0]


def _file_step(key: tuple, entry: list | tuple) -> None:
    _STEPS[key] = entry
    if len(_STEPS) > _STEP_CACHE_SIZE:
        _STEPS.popitem(last=False)


def _step_cache_info() -> SimpleNamespace:
    """The counters functools.lru_cache reports: a miss is a step computed."""
    hits, misses = _STEP_COUNTS
    return SimpleNamespace(
        hits=hits, misses=misses, maxsize=_STEP_CACHE_SIZE, currsize=len(_STEPS)
    )


def _step_cache_clear() -> None:
    _STEPS.clear()
    _STEP_COUNTS[:] = [0, 0]


_y_step.cache_info, _y_step.cache_clear = _step_cache_info, _step_cache_clear


def _y_order(y: int, level: int, primes: tuple[int, ...]) -> int:
    """The order of y in L_level, for distinct primes `primes` of N_level
    with product g: the product of the p with y^(g/p) != 1, each cofactor
    power taken from one product tree.  y^g = 1 makes the order a divisor
    of the squarefree g, so no prime is counted twice.  Raises
    ArithmeticFault unless norm(y) = y^(N_level) = 1, and NotAnExponent
    unless y^g = 1, which is free when N_level divides g.
    """
    w = width_of(level)
    if tower.norm_value(y, w) != 1:
        raise ArithmeticFault(f"conj(x)/x has norm != 1 at level {level}")
    g = prod(primes)
    if g % fermat_number(level) and tower._pow(y, g, w) != 1:
        raise NotAnExponent(_NOT_AN_EXPONENT)
    return prod(p for p, z in zip(primes, _cofactor_powers(y, w, primes)) if z != 1)


def _norm_chain(v: int, level: int, steps: int) -> list[int]:
    """[v^(N_level), v^(N_level*N_(level-1)), ...], `steps` values, each
    the norm of the one before, from L_j into L_(j-1).  Raises
    ArithmeticFault unless each equals the full-width product v*conj(v)."""
    chain = []
    for j in range(level, level - steps, -1):
        w = width_of(j)
        chain.append(tower.norm_value(v, w))
        if chain[-1] != tower._mul(v, v ^ (v >> (w >> 1)), w):
            raise ArithmeticFault(f"norm != x*conj(x) at level {j}")
        v = chain[-1]
    return chain


def multiplicative_order(x: TowerElement, n: FactoredOrder) -> FactoredOrder:
    """Exact order of x given a factored exponent n with x^n = 1.

    Descends from x's level one norm at a time.  At level j, y = conj(x)/x
    = x^(2^(w/2)-1) carries the part of the order that divides N_j: with
    g the product of n's primes dividing N_j, that part d is the product
    of the p with y^(g/p) != 1.  x^n = 1 exactly when y^g = 1 at every
    level, which is free when N_j divides g, so a prime N_j costs no
    exponentiation.  The norm x*conj(x) = x^(N_j) carries the rest, down to
    16 bits, where the log table picks its factored order, one of 16
    prebuilt, the result when every d is 1.  The result o satisfies
    x^o = 1 and x^(o/p) != 1 for every prime p | o.
    """
    if x.value == 0:
        raise ZeroElement("zero has no multiplicative order")
    level, v = x.level, x.value
    order = 1
    while v >> LOG_TABLE_BITS:
        n_j = fermat_number(level)
        v, d = _down_step(v, level, tuple(p for p in n.factors if n_j % p == 0))
        order *= d
        level -= 1
    rest = leaf_order(v)
    if n.value % rest:
        raise NotAnExponent(_NOT_AN_EXPONENT)
    if order == 1:
        return _LEAF_ORDERS[rest]
    order *= rest
    return FactoredOrder.of_primes(tuple(p for p in n.factors if order % p == 0))


def is_primitive(
    x: TowerElement, table: list[FermatFactorization] | None = None
) -> tuple[bool, int]:
    """Whether x generates the whole multiplicative group, plus its index."""
    if x.value == 0:
        raise ZeroElement("zero is not a group element")
    n = group_order(x.level, _table_or_builtin(table))
    order = multiplicative_order(x, n)
    index = n.value // order.value
    return index == 1, index


def minimal_subfield_exponent(
    j: int, table: list[FermatFactorization] | None = None
) -> int:
    """Smallest d > 0 with c_j^d one level down: the order of
    conj(c_j)/c_j, a divisor of N_j."""
    if j < 1:
        raise LevelError(f"minimal subfield exponent needs j >= 1, got {j}")
    entry = factorization(_table_or_builtin(table), j)
    return _down_step(generator("c", j, j).value, j, entry.factors)[1]


class AlphaChain(Value):
    """Minimal-exponent chain [α_i, ..., α_1] for c_i (or a_i), each α_m
    checked to be N_m, whose product is the element's order."""

    __slots__ = ("i", "base", "alphas")

    @property
    def product(self) -> int:
        return prod(self.alphas)


def alpha_chain(
    i: int, base: str = "c", table: list[FermatFactorization] | None = None
) -> AlphaChain:
    """Descend base^(α_i * α_{i-1} * ...) one subfield per step.

    α_m is the smallest exponent sending the accumulated power from level m
    into level m-1: the order of its conj(v)/v, a divisor of N_m.  For both
    bases it must be N_m itself.  conj(a_m)/a_m = conj(c_m)/c_m, since
    a_m/c_m = a_(m-1) is fixed by conj, and its order is N_m by Theorem 5.
    Below the top the accumulated power is a_m raised to a power of 3
    modulo N_m (each N_k + 1, k > m, is 3 modulo N_m), and 3 does not
    divide N_m.  So each step's power is its norm, and any α_m other than
    N_m, or a final power other than 1, raises NotAnExponent.
    """
    if base not in ("c", "a"):
        raise ValueError(f"base must be 'c' or 'a', got {base!r}")
    if i < 2:
        raise LevelError(f"alpha chains need level >= 2, got {i}")
    tab = _table_or_builtin(table)
    entries = {m: factorization(tab, m) for m in range(1, i + 1)}
    v = generator(base, i, i).value
    alphas: list[int] = []
    for m in range(i, 0, -1):
        v, alpha = _down_step(v, m, entries[m].factors)
        if alpha != fermat_number(m):
            raise NotAnExponent(f"alpha_{m} = {alpha} is not N_{m}")
        alphas.append(alpha)
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
    (resp. 0..k), the empty product being 1.  The left sides are the norm
    chains of c_i and a_i, one half-width norm per factor.  The right sides
    are powers of a_{i-k-1}, whose exponents reduce to 3^k and 3^(k+1)
    modulo the order of its group, since every N_m + 1 there is 3 modulo
    it.  The `base` and `iterated` switches let a runner emit just one of
    the two families.
    """
    if i < 1:
        raise LevelError(f"identities need level >= 1, got {i}")
    if k_max is None:
        k_max = i - 1
    if not (0 <= k_max <= i - 1):
        raise LevelError(f"k_max must lie in 0..{i - 1}, got {k_max}")
    report = VerificationReport()
    n_i = fermat_number(i)
    steps = k_max + 1 if iterated else 1
    c_chain = _norm_chain(_cgen(i).value, i, steps)
    a_chain = _norm_chain(_agen(i).value, i, steps)
    a_prev_value = _agen(i - 1).value

    if base:
        report.add(
            f"lemma5.eq1.i{i:02d}", c_chain[0] == a_prev_value, f"c_{i}^(N_{i}) = a_{i - 1}"
        )
        rhs2 = tower._pow(a_prev_value, n_i + 1, width_of(i - 1))
        report.add(
            f"lemma5.eq2.i{i:02d}",
            a_chain[0] == rhs2,
            f"a_{i}^(N_{i}) = a_{i - 1}^(N_{i}+1)",
        )

    for k in range(k_max + 1) if iterated else ():
        e3 = prod(fermat_number(i - j) + 1 for j in range(1, k + 1))
        target = _agen(i - k - 1)
        report.add(
            f"lemma6.eq3.i{i:02d}.k{k}",
            c_chain[k] == tower._pow(target.value, e3, target.width),
            f"c_{i}^({_exp_name(i, k)}) = a_{i - k - 1}^(prod (N+1), j=1..{k})",
        )
        report.add(
            f"lemma6.eq4.i{i:02d}.k{k}",
            a_chain[k] == tower._pow(target.value, e3 * (n_i + 1), target.width),
            f"a_{i}^({_exp_name(i, k)}) = a_{i - k - 1}^(prod (N+1), j=0..{k})",
        )
    return report


def verify_membership(theorem: int, i: int) -> VerificationReport:
    """Subfield membership of the iterated powers of c_i (1) or a_i (2).

    For k = 0..i-2 the power by N_i * ... * N_{i-k} must land in level
    i-k-1 but not in level i-k-2.  At k = i-1 the power degenerates to 1
    (the exponent picks up N_1 + 1 = 6, a multiple of the order of a_0),
    which is recorded as its own check.  The powers are the norm chain of
    the base element, one half-width norm per level, and each is tested
    by its coefficient bits.
    """
    if theorem not in (1, 2):
        raise ValueError(f"theorem must be 1 or 2, got {theorem}")
    if i < 2:
        raise LevelError(f"membership checks need level >= 2, got {i}")
    report = VerificationReport()
    base = _cgen(i) if theorem == 1 else _agen(i)
    name = "c" if theorem == 1 else "a"
    for k, power in enumerate(_norm_chain(base.value, i, i)):
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


def _abbrev(p: int) -> str:
    s = str(p)
    return s if len(s) <= 24 else f"{s[:12]}...({len(s)} digits)"


def verify_thm5(j: int, table: list[FermatFactorization] | None = None) -> VerificationReport:
    """The minimal-exponent claim at level j via prime-quotient checks.

    c_j^(N_j) must equal a_{j-1}, and for every prime p dividing N_j the
    power c_j^(N_j/p) must stay outside level j-1; together these make N_j
    the smallest exponent sending c_j down one level.  One descent step
    answers both: c_j^(N_j) is the norm of c_j, and c_j^(N_j/p) lies
    outside L_{j-1} exactly when (conj(c_j)/c_j)^(N_j/p) != 1, that is
    when p divides the order of conj(c_j)/c_j.
    """
    if j < 1:
        raise LevelError(f"quotient checks need level >= 1, got {j}")
    entry = factorization(_table_or_builtin(table), j)
    report = VerificationReport()
    norm, d = _down_step(_cgen(j).value, j, entry.factors)
    report.add(f"thm5.j{j:02d}.eq1", norm == _agen(j - 1).value, f"c_{j}^(N_{j}) = a_{j - 1}")
    for idx, p in enumerate(entry.factors):
        report.add(
            f"thm5.j{j:02d}.q{idx}",
            d % p == 0,
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

    # an element's index is |G| / O(x); primitive means index 1
    report.add(
        f"cor.i{i:02d}.primitive",
        n.value // o_cc0.value == n.value // o_aa0.value == 1,
        f"c_{i}*c_0 and a_{i}*a_0 generate the group",
    )
    report.add(
        f"cor.i{i:02d}.c-index",
        n.value // o_c.value == 3,
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
    n = group_order(2, _table_or_builtin(table))
    report = VerificationReport()
    c2 = _cgen(2)
    c2c0 = c2.mul(generator("c", 0, 2))
    o_c2 = multiplicative_order(c2, n)
    report.add("l2ex.order-c2", o_c2.value == 85, "O(c_2) = 5 * 17 = 85")
    o_c2c0 = multiplicative_order(c2c0, n)
    report.add("l2ex.order-c2c0", o_c2c0.value == 255, "O(c_2*c_0) = 3 * 5 * 17 = 255")
    report.add("l2ex.primitive", n.value // o_c2c0.value == 1, "c_2*c_0 is primitive in L_2")
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
