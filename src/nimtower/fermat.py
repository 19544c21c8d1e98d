"""Fermat numbers N_j = 2^(2^j)+1, their prime factorizations, and factored
group orders of the tower's multiplicative groups.

The multiplicative group at level i has exactly N_0 * N_1 * ... * N_i
elements, so complete factorizations of the first twelve Fermat numbers are
what make exact order computation possible up to level 11.  The factor
strings are embedded as data; every load path re-multiplies them and checks
the product against 2^(2^j)+1, so a corrupted table cannot be used
silently.  The builtin table is checked once per process; a factor file is
checked on every load, and each of its factors must also pass Miller-Rabin.
Beyond N_11 no complete factorization is known, and operations that need
one fail with MissingFactorization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from math import gcd

from .bignat import BigNat, from_decimal
from .errors import MissingFactorization, ParseError, ValidationError
from .report import VerificationReport

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


def fermat_number(j: int) -> BigNat:
    """N_j = 2^(2^j) + 1."""
    if j < 0:
        raise ValueError(f"Fermat index must be >= 0, got {j}")
    return (1 << (1 << j)) + 1


@dataclass(frozen=True)
class FermatFactorization:
    """Level index j plus the claimed prime factors of N_j, ascending."""

    j: int
    factors: tuple[BigNat, ...]

    def check(self) -> None:
        """Raise ValidationError unless the entry is internally consistent."""
        product = 1
        for p in self.factors:
            product *= p
        if product != fermat_number(self.j):
            raise ValidationError(
                f"N{self.j}: factor product does not equal 2^(2^{self.j})+1"
            )
        if len(set(self.factors)) != len(self.factors):
            raise ValidationError(f"N{self.j}: repeated factor")
        if any(p <= 1 for p in self.factors):
            raise ValidationError(f"N{self.j}: factor <= 1")
        if self.j >= 2:
            modulus = 1 << (self.j + 2)
            for p in self.factors:
                if p % modulus != 1:
                    raise ValidationError(
                        f"N{self.j}: factor {p} is not 1 mod 2^{self.j + 2}"
                    )


def _make_entry(j: int, factors: list[BigNat]) -> FermatFactorization:
    entry = FermatFactorization(j, tuple(sorted(factors)))
    entry.check()
    return entry


@cache
def _builtin_entries() -> tuple[FermatFactorization, ...]:
    return tuple(
        _make_entry(j, [from_decimal(s) for s in strings])
        for j, strings in sorted(_FACTOR_STRINGS.items())
    )


def builtin_factor_table() -> list[FermatFactorization]:
    """The embedded table for j = 0..11 (validated once per process), as a
    fresh list of frozen entries."""
    return list(_builtin_entries())


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
        j = int(head[1:])
        if j in entries:
            raise ParseError(f"line {lineno}: duplicate entry for N{j}")
        parts = tail.split()
        if not parts:
            raise ParseError(f"line {lineno}: no factors for N{j}")
        entries[j] = _make_entry(j, [from_decimal(p) for p in parts])
        composite = [p for p in entries[j].factors if not is_probable_prime(p)]
        if composite:
            raise ValidationError(f"N{j}: factor {composite[0]} is not prime")
    return [entries[j] for j in sorted(entries)]


def merge_tables(
    base: list[FermatFactorization], override: list[FermatFactorization]
) -> list[FermatFactorization]:
    """Overlay `override` entries onto `base` (new levels extend it)."""
    merged = {e.j: e for e in base}
    merged.update({e.j: e for e in override})
    return [merged[j] for j in sorted(merged)]


def _by_level(table: list[FermatFactorization]) -> dict[int, FermatFactorization]:
    return {e.j: e for e in table}


def is_probable_prime(n: BigNat, rounds: int = 64, seed: int = 0) -> bool:
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

    Covers the product identity per level, the divisor congruence
    1 mod 2^(j+2) for j >= 2, cross-level distinctness (any two Fermat
    numbers are coprime, so a shared prime is impossible), the recurrence
    N_i = N_0*...*N_{i-1} + 2, gcd(N_i + 1, N_j) = 1 for 1 <= j < i, and
    optionally Miller-Rabin primality of every factor.
    """
    report = VerificationReport()
    seen: dict[BigNat, int] = {}
    duplicates: list[str] = []
    for entry in table:
        j = entry.j
        product = 1
        for p in entry.factors:
            product *= p
        report.add(
            f"table.N{j:02d}.product",
            product == fermat_number(j) and all(p > 1 for p in entry.factors),
            f"{len(entry.factors)} factors multiply to 2^(2^{j})+1",
        )
        if j >= 2:
            modulus = 1 << (j + 2)
            bad = [p for p in entry.factors if p % modulus != 1]
            report.add(
                f"table.N{j:02d}.divisor-congruence",
                not bad,
                f"every factor is 1 mod 2^{j + 2}"
                + (f"; offenders {bad}" if bad else ""),
            )
        for p in entry.factors:
            if p in seen and seen[p] != j:
                duplicates.append(f"{p} in N{seen[p]} and N{j}")
            seen[p] = j
        if check_primality:
            composite = [
                p for p in entry.factors if not is_probable_prime(p, mr_rounds, seed)
            ]
            report.add(
                f"table.N{j:02d}.primality",
                not composite,
                f"Miller-Rabin x{mr_rounds} on {len(entry.factors)} factors"
                + (f"; composite {composite}" if composite else ""),
            )
    report.add(
        "table.pairwise-distinct",
        not duplicates,
        "no prime occurs at two levels" + (f"; {duplicates}" if duplicates else ""),
    )

    levels = sorted(_by_level(table))
    for i in levels:
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


@dataclass(frozen=True)
class FactoredOrder:
    """A positive integer carried together with its prime factorization."""

    value: BigNat
    factors: tuple[tuple[BigNat, int], ...]

    def __post_init__(self):
        product = 1
        for p, e in self.factors:
            product *= p**e
        if product != self.value:
            raise ValidationError("factored value does not match its factors")
        primes = [p for p, _ in self.factors]
        if primes != sorted(set(primes)):
            raise ValidationError("factors must be strictly increasing primes")

    @classmethod
    def from_prime_powers(cls, pairs: dict[BigNat, int]) -> "FactoredOrder":
        value = 1
        for p, e in pairs.items():
            value *= p**e
        return cls(value, tuple(sorted((p, e) for p, e in pairs.items() if e > 0)))

    def format(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(
            str(p) if e == 1 else f"{p}^{e}" for p, e in self.factors
        )


def group_order(i: int, table: list[FermatFactorization]) -> FactoredOrder:
    """The factored order N_0 * ... * N_i of the level-i multiplicative group."""
    if i < 0:
        raise ValueError(f"level must be >= 0, got {i}")
    entries = _by_level(table)
    powers: dict[BigNat, int] = {}
    for j in range(i + 1):
        if j not in entries:
            raise MissingFactorization(f"no complete factorization for N_{j}")
        for p in entries[j].factors:
            powers[p] = powers.get(p, 0) + 1
    return FactoredOrder.from_prime_powers(powers)
