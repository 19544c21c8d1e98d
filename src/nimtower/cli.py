"""Command-line interface: expression evaluation, order queries, and the
verification runner.

Report output follows one grammar everywhere: one line per check,
``<STATUS> <check-id> <detail>`` with STATUS either OK or FAIL, emitted
sorted by check id.  Default output carries no timings or timestamps, so
identical invocations produce identical bytes; ``--timing`` appends an
explicit elapsed-time comment.  Exit codes: 0 all checks passed or the
query succeeded, 1 check failure or domain error, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import fermat, orders, tower
from .errors import LevelError, MissingFactorization, NimtowerError, ParseError
from .report import CheckRecord, VerificationReport

_IDENTITY_CAP = 8  # default ceiling for identity/membership sweeps
_HEAVY_CAP = 11  # default ceiling for quotient-check/corollary sweeps
# Widest nim-mul operand: the recursive product's time grows about 4.5x per
# doubling of the width, to seconds at this one.
_NIM_MUL_MAX_BITS = 16384


def _load_table(path: str | None):
    table = fermat.builtin_factor_table()
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read factor file {path!r}: {exc}") from None
        table = fermat.merge_tables(table, fermat.load_factor_table(text))
    return table


# ---------------------------------------------------------------------------
# Verification.  Each family of claims has its first level, its default
# ceiling, whether `verify all` caps it at _IDENTITY_CAP, the check id of the
# FAIL record that stands for a raised check, and its suite call, which reads
# `orders.verify_*` when it runs.  example-l2 has no levels.  The table's
# order is the plan order: every check runs in one process, in that order,
# so that they share the order engine's step memo; the report sorts the
# merged records.

_FAMILIES = {
    "lemma5": (1, _IDENTITY_CAP, False, "lemma5.i{:02d}",
               lambda i, table: orders.verify_identities(i, 0, base=True, iterated=False)),
    "lemma6": (2, _IDENTITY_CAP, True, "lemma6.i{:02d}",
               lambda i, table: orders.verify_identities(i, i - 1, base=False, iterated=True)),
    "thm1": (2, _IDENTITY_CAP, True, "thm1.i{:02d}",
             lambda i, table: orders.verify_membership(1, i)),
    "thm2": (2, _IDENTITY_CAP, True, "thm2.i{:02d}",
             lambda i, table: orders.verify_membership(2, i)),
    "thm5": (5, _HEAVY_CAP, False, "thm5.j{:02d}",
             lambda j, table: orders.verify_thm5(j, table)),
    "cor": (2, _HEAVY_CAP, False, "cor.i{:02d}",
            lambda i, table: orders.verify_corollaries(i, table)),
    "example-l2": (None, None, False, "l2ex",
                   lambda _, table: orders.verify_closing_example(table)),
}


def _run_verify_task(family: str, level: int | None, table) -> list[CheckRecord]:
    """The records of one suite call, or one FAIL record if it raises:
    `<check id>.factorization` for a MissingFactorization, else `.error`."""
    *_, check_id, suite = _FAMILIES[family]
    try:
        return suite(level, table).records
    except NimtowerError as exc:
        kind = "factorization" if isinstance(exc, MissingFactorization) else "error"
        check_id = f"{check_id.format(level)}.{kind}"
        return [CheckRecord(check_id, False, f"{type(exc).__name__}: {exc}")]


def _plan_tasks(target: str, level: int | None, max_level: int | None) -> list[tuple]:
    """Expand a verify target into (family, level) pairs, in table order.

    A single family runs --level alone, or sweeps from its first level to
    --max-level, else to its default ceiling; either flag below its first
    level would check nothing and is refused as a LevelError, as is either
    flag for example-l2, which has no levels.  `all` sweeps
    every family from its first level to --max-level (--level acts as
    --max-level), default _IDENTITY_CAP, the capped families stopping at
    _IDENTITY_CAP whatever the flag (their own targets reach the higher
    levels); it refuses nothing.
    """
    flag, given = ("--level", level) if level is not None else ("--max-level", max_level)
    plan = []
    for family, (first, ceiling, capped, _, _) in _FAMILIES.items():
        if target not in (family, "all"):
            continue
        if target != "all" and given is not None and (first is None or given < first):
            where = "has no levels" if first is None else f"starts at level {first}"
            raise LevelError(f"verify {family} {where}, got {flag} {given}")
        if first is None:
            levels = (None,)
        elif target == "all":
            top = _IDENTITY_CAP if given is None else given
            levels = range(first, (min(top, _IDENTITY_CAP) if capped else top) + 1)
        else:
            lo = first if level is None else level
            levels = range(lo, (ceiling if given is None else given) + 1)
        plan += [(family, i) for i in levels]
    return plan


def _emit_report(report: VerificationReport, timing: float | None = None) -> int:
    for line in report.lines():
        print(line)
    if timing is not None:
        print(f"# elapsed {timing:.2f}s")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Subcommand handlers.


def _cmd_eval(args) -> int:
    from . import expr

    element = expr.evaluate(args.expression)
    if args.format == "poly":
        print(tower.format_element(element, "poly"))
    else:
        print(f"{tower.format_element(element, 'hex')}@L{element.level}")
    return 0


def _cmd_order(args) -> int:
    from . import expr

    element = expr.evaluate(args.expression)
    table = _load_table(args.factor_file)
    n = fermat.group_order(element.level, table)
    order = orders.multiplicative_order(element, n)
    if order.factors:
        print(f"{order.value} = {order.format()}")
    else:
        print("1")
    return 0


def _cmd_primitive(args) -> int:
    from . import expr

    element = expr.evaluate(args.expression)
    table = _load_table(args.factor_file)
    primitive, index = orders.is_primitive(element, table)
    print(f"primitive {'true' if primitive else 'false'} index {index}")
    return 0


def _cmd_alpha_chain(args) -> int:
    table = _load_table(args.factor_file)
    chain = orders.alpha_chain(args.level, args.base, table)
    for m, alpha in zip(range(args.level, 0, -1), chain.alphas):
        print(f"alpha_{m} = {alpha}")
    print(f"product = {chain.product}")
    return 0


def _cmd_min_exponent(args) -> int:
    table = _load_table(args.factor_file)
    print(orders.minimal_subfield_exponent(args.level, table))
    return 0


def _cmd_factors(args) -> int:
    table = _load_table(args.factor_file)
    for entry in table:
        print(f"N{entry.j}: " + " ".join(str(p) for p in entry.factors))
    report = fermat.validate(
        table, check_primality=args.check_primality, mr_rounds=args.mr_rounds, seed=args.seed
    )
    return _emit_report(report)


def _positive_int(text: str) -> int:
    """argparse type of the count flags: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def parse_nat(s: str) -> int:
    """Parse a natural number: decimal, or hex with a 0x prefix."""
    if s[:2].lower() == "0x":
        digits = s[2:]
        if not digits or not tower._HEX_DIGITS.issuperset(digits):
            raise ParseError(f"not a hex natural number: {s!r}")
        return int(digits, 16)
    return fermat.from_decimal(s)


def _cmd_nim_mul(args) -> int:
    from . import oracle

    a = parse_nat(args.a)
    b = parse_nat(args.b)
    if max(a, b).bit_length() > _NIM_MUL_MAX_BITS:
        raise LevelError(f"nim-mul operands are limited to {_NIM_MUL_MAX_BITS} bits")
    result = oracle.nim_mul_rec(a, b)
    if args.a[:2].lower() == "0x" or args.b[:2].lower() == "0x":
        print(f"{result:#x}")
    else:
        print(result)
    return 0


def _cmd_oracle_check(args) -> int:
    from . import oracle

    report = VerificationReport()
    levels = [args.level] if args.level is not None else list(range(0, oracle.CROSS_CHECK_MAX_LEVEL + 1))
    for level in levels:
        report.extend(oracle.cross_check(level, samples=args.samples, seed=args.seed))
    return _emit_report(report)


def _cmd_verify(args) -> int:
    table = _load_table(args.factor_file)
    plan = _plan_tasks(args.target, args.level, args.max_level)
    started = time.perf_counter()
    records = [r for family, level in plan for r in _run_verify_task(family, level, table)]
    report = VerificationReport(records)
    elapsed = time.perf_counter() - started if args.timing else None
    return _emit_report(report, elapsed)


# Timed batches per level in `nimtower bench`; --samples operands are
# split across them, and one more batch runs first, untimed, as a warm-up.
_BENCH_BATCHES = 5


def _time_batch(kernel, calls) -> float:
    """Mean seconds per call of kernel over the argument tuples in calls."""
    t0 = time.perf_counter()
    for call in calls:
        kernel(*call)
    return (time.perf_counter() - t0) / len(calls)


def _cmd_bench(args) -> int:
    import random
    from statistics import median

    rng = random.Random(args.seed)
    batches = min(_BENCH_BATCHES, args.samples)
    size = args.samples // batches
    pow_reps = max(1, size // 10)
    if args.max_level < 0:
        raise LevelError(f"bench starts at level 0, got --max-level {args.max_level}")
    tower.width_of(args.max_level)  # LevelError before any level is timed
    for level in range(0, args.max_level + 1):
        width = tower.width_of(level)
        exponent = rng.getrandbits(64) | (1 << 63)
        t_mul, t_sq, t_pow = [], [], []
        for _ in range(1 + batches):
            xs = [rng.getrandbits(width) | 1 for _ in range(size)]
            ys = [rng.getrandbits(width) | 1 for _ in range(size)]
            t_mul.append(_time_batch(tower._mul, [(x, y, width) for x, y in zip(xs, ys)]))
            t_sq.append(_time_batch(tower._square, [(x, width) for x in xs]))
            t_pow.append(_time_batch(tower._pow, [(x, exponent, width) for x in xs[:pow_reps]]))
        (mul_min, mul_med), (sq_min, sq_med), (pow_min, pow_med) = (
            (min(t[1:]), median(t[1:])) for t in (t_mul, t_sq, t_pow)  # t[0]: warm-up
        )
        print(
            f"level {level:2d}: mul min {mul_min * 1e6:9.2f} med {mul_med * 1e6:9.2f} us"
            f"  square min {sq_min * 1e6:9.2f} med {sq_med * 1e6:9.2f} us"
            f"  pow64 min {pow_min * 1e3:9.3f} med {pow_med * 1e3:9.3f} ms"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nimtower",
        description="Arithmetic and order verification in the recursive tower of binary fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_factor_file(p):
        p.add_argument("--factor-file", metavar="PATH", default=None,
                       help="factor-table file overriding/extending the builtin table")

    p = sub.add_parser("eval", help="evaluate an element expression")
    p.add_argument("expression")
    p.add_argument("--format", choices=("hex", "poly"), default="hex")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("order", help="multiplicative order of an element expression")
    p.add_argument("expression")
    add_factor_file(p)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("primitive", help="primitivity test for an element expression")
    p.add_argument("expression")
    add_factor_file(p)
    p.set_defaults(func=_cmd_primitive)

    p = sub.add_parser("alpha-chain", help="minimal-exponent chain for c_i or a_i")
    p.add_argument("level", type=int)
    p.add_argument("--base", choices=("c", "a"), default="c")
    add_factor_file(p)
    p.set_defaults(func=_cmd_alpha_chain)

    p = sub.add_parser("min-exponent", help="smallest d with c_j^d one level down")
    p.add_argument("level", type=int)
    add_factor_file(p)
    p.set_defaults(func=_cmd_min_exponent)

    p = sub.add_parser("factors", help="print and validate the Fermat factor table")
    add_factor_file(p)
    p.add_argument("--check-primality", action="store_true")
    p.add_argument("--mr-rounds", type=_positive_int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_factors)

    p = sub.add_parser("nim-mul", help="nim product via the recursive oracle")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_nim_mul)

    p = sub.add_parser("oracle-check", help="cross-check tower multiplication against the oracles")
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--samples", type=_positive_int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("verify", help="re-verify lemma/theorem/corollary claims")
    p.add_argument("target", choices=(*_FAMILIES, "all"))
    levels = p.add_mutually_exclusive_group()
    levels.add_argument("--level", type=int, default=None,
                        help="run this one level; for `all`, sweep up to it")
    levels.add_argument("--max-level", type=int, default=None, help="sweep up to this level")
    add_factor_file(p)
    p.add_argument("--jobs", type=int, choices=(1,), default=1, help="only 1: checks share a memo")
    p.add_argument("--timing", action="store_true", help="append an elapsed-time comment")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="informational throughput figures per level")
    p.add_argument("--max-level", type=int, default=8)
    p.add_argument("--samples", type=_positive_int, default=100,
                   help="random operands per level, split over the timed batches")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NimtowerError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
