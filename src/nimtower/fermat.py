"""Fermat numbers N_j = 2^(2^j)+1, their prime factorizations, and factored
group orders of the tower's multiplicative groups.

The multiplicative group at level i has exactly N_0 * N_1 * ... * N_i
elements, so complete factorizations of the first twelve Fermat numbers are
what make exact order computation possible up to level 11.  The factor
strings are embedded as data.  One rule set says what a table entry must
meet: its factors are distinct, greater than 1 and multiply to
2^(2^j)+1, each is 1 mod 2^(j+2) for j >= 2, and optionally each passes
Miller-Rabin.  `validate` reports every rule as a record; loading raises
ValidationError at the first rule an entry breaks, so a corrupted table
cannot be used silently.  The builtin table is checked at import,
without Miller-Rabin, and its twelve factored group orders N_0*...*N_i are
built then; a factor file is checked on every load, with Miller-Rabin.
Beyond N_11 no complete factorization is known, and operations that need
one fail with MissingFactorization.
"""

from __future__ import annotations

import random
from math import gcd, prod
from operator import is_

from .errors import LevelError, MissingFactorization, ParseError, ValidationError
from .report import VerificationReport
from .tower import MAX_LEVEL
from .value import Value

# Complete prime factorizations for j = 0..11.  N_0..N_4 are themselves
# prime; the rest are the known full factorizations of F_5..F_11.
_FACTOR_STRINGS: dict[int, tuple[str, ...]] = {
    0: ("3",),
    1: ("5",),
    2: ("17",),
    3: ("257",),
    4: ("65537",),
    5: ("641", "6700417"),
    6: ("274177", "67280421310721"),
    7: ("59649589127497217", "5704689200685129054721"),
    8: (
        "1238926361552897",
        "93461639715357977769163558199606896584051237541638188580280321",
    ),
    9: (
        "2424833",
        "7455602825647884208337395736200454918783366342657",
        "741640062627530801524787141901937474059940781097519023905821316144"
        "415759504705008092818711693940737",
    ),
    10: (
        "45592577",
        "6487031809",
        "4659775785220018543264560743076778192897",
        "130439874405488189727484768796509903946608530841611892186895295776"
        "832416251471863574140227977573104895898783928842923844831149032913"
        "798729088601617946094119449010595906710130531906171018354491609619"
        "193912488538116080712299672322806217820753127014424577",
    ),
    11: (
        "319489",
        "974849",
        "167988556341760475137",
        "3560841906445833920513",
        "173462447179147555430258970864309778377421844723664084649347019061"
        "363579192879108857591038330408837177983810868451546421940712978306"
        "134189864280826014542758708589243873685563973118948869399158545506"
        "611147420216132557017260564139394366945793220968665108959685482705"
        "388072645828554151936401912464931182546092879815733057795573358504"
        "982279280090942872567591518912118622751714319229788100979251036035"
        "496917279912663527358783236647193154777091427745377038294584918917"
        "590325110939381322486044298573971650711059244462177542540706913047"
        "034664643603491382441723306598834177",
    ),
}

BUILTIN_MAX_LEVEL = max(_FACTOR_STRINGS)

_DECIMAL_DIGITS = frozenset("0123456789")


def from_decimal(s: str) -> int:
    """Parse a decimal digit string; leading zeros are canonicalized away."""
    if not s or any(ch not in _DECIMAL_DIGITS for ch in s):
        raise ParseError(f"not a decimal natural number: {s!r}")
    try:
        return int(s, 10)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"decimal number too long ({len(s)} digits)") from None


def fermat_number(j: int) -> int:
    """N_j = 2^(2^j) + 1, for 0 <= j <= MAX_LEVEL + 1.  Above that LevelError,
    so no N_j is more than one bit longer than an element of the top level."""
    if j < 0:
        raise ValueError(f"Fermat index must be >= 0, got {j}")
    if j > MAX_LEVEL + 1:
        raise LevelError(f"N_{j} is above the ceiling N_{MAX_LEVEL + 1}")
    return (1 << (1 << j)) + 1


class FermatFactorization(Value):
    """Level index j plus the claimed prime factors of N_j, ascending."""

    __slots__ = ("j", "factors")


def _entry_rules(
    entry: FermatFactorization, check_primality: bool = False, mr_rounds: int = 64, seed: int = 0
):
    """Yield (rule, detail, fault) for each rule a table entry must meet,
    fault being None when it holds, else the first offence.  The rules are
    lazy, so a loader stops at the first fault before the costly ones."""
    j, factors = entry.j, entry.factors
    if prod(factors) != fermat_number(j):
        fault = f"factor product does not equal 2^(2^{j})+1"
    elif len(set(factors)) < len(factors):
        fault = "repeated factor"
    elif min(factors) <= 1:
        fault = "factor <= 1"
    else:
        fault = None
    yield "product", f"{len(factors)} factors multiply to 2^(2^{j})+1", fault
    if j >= 2:
        modulus = 1 << (j + 2)
        bad = next((p for p in factors if p % modulus != 1), None)
        yield (
            "divisor-congruence",
            f"every factor is 1 mod 2^{j + 2}",
            None if bad is None else f"factor {bad} is not 1 mod 2^{j + 2}",
        )
    if check_primality:
        bad = next((p for p in factors if not is_probable_prime(p, mr_rounds, seed)), None)
        yield (
            "primality",
            f"Miller-Rabin x{mr_rounds} on {len(factors)} factors",
            None if bad is None else f"factor {bad} is not prime",
        )


def _make_entry(j: int, factors: list[int], check_primality: bool) -> FermatFactorization:
    """The entry for N_j; ValidationError names the first rule it breaks."""
    entry = FermatFactorization(j, tuple(sorted(factors)))
    for _, _, fault in _entry_rules(entry, check_primality):
        if fault:
            raise ValidationError(f"N{j}: {fault}")
    return entry


_BUILTIN_ENTRIES = tuple(
    _make_entry(j, [from_decimal(s) for s in strings], check_primality=False)
    for j, strings in sorted(_FACTOR_STRINGS.items())
)

_BUILTIN_PRIMES = frozenset(p for entry in _BUILTIN_ENTRIES for p in entry.factors)


def builtin_factor_table() -> list[FermatFactorization]:
    """The embedded table for j = 0..11 (validated at import), as a fresh
    list of frozen entries."""
    return list(_BUILTIN_ENTRIES)


def load_factor_table(source: str) -> list[FermatFactorization]:
    """Parse a factor-table text: one `N<j>: p1 p2 ...` entry per line.

    Blank lines and `#` comments are ignored; a duplicated level is a
    grammar error, an arithmetically wrong entry or a composite factor a
    validation error.
    """
    entries: dict[int, FermatFactorization] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, tail = line.partition(":")
        if not sep or not head.startswith("N") or not head[1:].isdigit():
            raise ParseError(f"line {lineno}: expected 'N<j>: <factors>', got {raw!r}")
        j = from_decimal(head[1:])
        if j in entries:
            raise ParseError(f"line {lineno}: duplicate entry for N{j}")
        parts = tail.split()
        if not parts:
            raise ParseError(f"line {lineno}: no factors for N{j}")
        entries[j] = _make_entry(j, [from_decimal(p) for p in parts], check_primality=True)
    return [entries[j] for j in sorted(entries)]


def merge_tables(
    base: list[FermatFactorization], override: list[FermatFactorization]
) -> list[FermatFactorization]:
    """Overlay `override` entries onto `base` (new levels extend it)."""
    merged = {e.j: e for e in base}
    merged.update({e.j: e for e in override})
    return [merged[j] for j in sorted(merged)]


def factorization(table: list[FermatFactorization], j: int) -> FermatFactorization:
    """The table's entry for N_j; MissingFactorization if it has none."""
    for entry in table:
        if entry.j == j:
            return entry
    raise MissingFactorization(f"no complete factorization for N_{j}")


def is_probable_prime(n: int, rounds: int = 64, seed: int = 0) -> bool:
    """Miller-Rabin with `rounds` deterministically seeded bases."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13):
        if n == small:
            return True
        if n % small == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(f"miller-rabin/{seed}/{n % (1 << 64)}")
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def validate(
    table: list[FermatFactorization],
    check_primality: bool = False,
    mr_rounds: int = 64,
    seed: int = 0,
) -> VerificationReport:
    """Re-check everything the table claims, as report records.

    Covers every entry's rules (one record per rule, the FAIL detail
    naming the first offence), cross-level distinctness (any two Fermat
    numbers are coprime, so a shared prime is impossible), the recurrence
    N_i = N_0*...*N_{i-1} + 2, and gcd(N_i + 1, N_j) = 1 for 1 <= j < i.
    """
    report = VerificationReport()
    seen: dict[int, int] = {}
    duplicates: list[str] = []
    for entry in table:
        j = entry.j
        for rule, detail, fault in _entry_rules(entry, check_primality, mr_rounds, seed):
            report.add(f"table.N{j:02d}.{rule}", fault is None, fault or detail)
        for p in entry.factors:
            if p in seen and seen[p] != j:
                duplicates.append(f"{p} in N{seen[p]} and N{j}")
            seen[p] = j
    report.add(
        "table.pairwise-distinct",
        not duplicates,
        "no prime occurs at two levels" + (f"; {duplicates}" if duplicates else ""),
    )

    for i in sorted({e.j for e in table}):
        if i < 1:
            continue
        product = 1
        for j in range(i):
            product *= fermat_number(j)
        report.add(
            f"fermat.recurrence.i{i:02d}",
            fermat_number(i) == product + 2,
            f"N_{i} = N_0*...*N_{i - 1} + 2",
        )
        if i >= 2:
            bad_j = [
                j for j in range(1, i) if gcd(fermat_number(i) + 1, fermat_number(j)) != 1
            ]
            report.add(
                f"fermat.successor-coprime.i{i:02d}",
                not bad_j,
                f"gcd(N_{i}+1, N_j) = 1 for j = 1..{i - 1}"
                + (f"; fails at {bad_j}" if bad_j else ""),
            )
    return report


class FactoredOrder(Value):
    """A positive integer carried together with its prime factorization,
    a tuple of (prime, exponent) pairs.  The constructor refuses an
    exponent that is not an int >= 1, and a factor that fails Miller-Rabin,
    skipping the builtin table's primes."""

    __slots__ = ("value", "factors")

    def __init__(self, value: int, factors: tuple[tuple[int, int], ...]):
        if any(type(e) is not int or e < 1 for _, e in factors):
            raise ValidationError("factor exponents must be ints >= 1")
        if prod(p**e for p, e in factors) != value:
            raise ValidationError("factored value does not match its factors")
        primes = [p for p, _ in factors]
        if primes != sorted(set(primes)):
            raise ValidationError("factors must be strictly increasing primes")
        composite = [p for p in primes if p not in _BUILTIN_PRIMES and not is_probable_prime(p)]
        if composite:
            raise ValidationError(f"factor {composite[0]} is not prime")
        super().__init__(value, factors)

    @classmethod
    def from_prime_powers(cls, pairs: dict[int, int]) -> "FactoredOrder":
        order = object.__new__(cls)  # sorted distinct primes and their product: valid as built
        object.__setattr__(order, "factors", tuple(sorted((p, e) for p, e in pairs.items() if e > 0)))
        object.__setattr__(order, "value", prod(p**e for p, e in order.factors))
        return order

    def format(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(
            str(p) if e == 1 else f"{p}^{e}" for p, e in self.factors
        )


def group_order(i: int, table: list[FermatFactorization]) -> FactoredOrder:
    """The factored order N_0 * ... * N_i = 2^(2^(i+1)) - 1 of the level-i
    multiplicative group, prebuilt when the table is the builtin tuple or
    its entries of levels 0..i are the builtin objects.  The N_j are
    pairwise coprime, so each prime occurs once; ValidationError if the
    table's primes of levels 0..i repeat or do not multiply to the group's
    size."""
    if i < 0:
        raise ValueError(f"level must be >= 0, got {i}")
    if i < len(_BUILTIN_ORDERS) and (
        table is _BUILTIN_ENTRIES or len(table) > i and all(map(is_, table[: i + 1], _BUILTIN_ENTRIES))
    ):
        return _BUILTIN_ORDERS[i]
    primes = sorted(p for j in range(i + 1) for p in factorization(table, j).factors)
    return FactoredOrder((1 << (1 << (i + 1))) - 1, tuple((p, 1) for p in primes))


# Built at import through the checked path: while it is empty, group_order
# has no prebuilt order to return.
_BUILTIN_ORDERS: tuple[FactoredOrder, ...] = ()
_BUILTIN_ORDERS = tuple(group_order(i, _BUILTIN_ENTRIES) for i in range(BUILTIN_MAX_LEVEL + 1))
