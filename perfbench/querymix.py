"""The `query-mix` workload: a seeded stream of small nimtower library queries.

One pass is a fixed-size stream whose composition (query kind x level) is
the same for every seed; the seed picks the elements, exponents, API and
order of the queries.  A single client runs the stream in a closed loop,
timing each query, and the answers are checked afterwards against
references that do not share code with the path under test:

* products (levels 0-8) against ``oracle.nim_mul_rec``, and inverses by
  ``nim_mul_rec(x, x^-1) == 1`` (``nim_mul_mex`` is not used: building its
  table takes about 2 s per process, and the test suite already checks
  ``nim_mul_rec`` against it exhaustively below 256);
* 64-bit powers (levels 0-6) and ``expr.evaluate`` of ``c<j>^(N<j>/p)`` /
  ``a<j>^(N<j>/p)`` (j <= 6) against square-and-multiply over
  ``nim_mul_rec``;
* orders and primitivity of c_i, a_i, c_i*c_0 and a_i*a_0 against the
  closed forms O(c_i) = O(a_i) = N_1*...*N_i (times 3 after multiplying by
  c_0), and of random elements by certificate: x^o = 1 and x^(o/p) != 1 for
  every prime p dividing o;
* ``alpha_chain`` against (N_i, ..., N_1) and ``minimal_subfield_exponent``
  against N_j.

A quarter of the order queries at each level (REPEAT_SHARE) repeat an
element asked about earlier in the same pass, so the order cache serves
reads beside fresh computations.
"""

from __future__ import annotations

import math
import random
import resource
import time

REPEAT_SHARE = 0.25

# (kind, level, queries per pass).  Kernel and expression queries are kept
# to about a third of the stream, so the median query is a low-level order
# query whose cost is per-call work (factor-table re-validation) rather
# than field arithmetic; the slowest percent are level-6/7 order queries,
# which are kernel-bound.
MIX: tuple[tuple[str, int, int], ...] = (
    *(("mul", lvl, 20 if lvl <= 6 else 10) for lvl in range(9)),
    *(("inv", lvl, 20 if lvl <= 6 else 10) for lvl in range(9)),
    *(("pow64", lvl, n) for lvl, n in enumerate((20, 20, 20, 20, 20, 10, 6))),
    *(("eval", j, 20) for j in range(1, 7)),
    *(("order", lvl, n) for lvl, n in zip(range(2, 8), (240, 240, 160, 80, 24, 6))),
    *(("alpha", i, 20) for i in range(2, 7)),
    *(("minexp", j, 20) for j in range(1, 7)),
)
SIZES = {"full": 1, "tiny": 10}  # divisor applied to every count


def _fermat(j: int) -> int:
    return (1 << (1 << j)) + 1


def _c(i: int) -> int:
    return 1 << (1 << i)


def _a(i: int) -> int:
    return 1 << ((1 << (i + 1)) - 1)


def structured_elements(level: int) -> dict[int, int]:
    """c_i, a_i, c_i*c_0 and a_i*a_0 at `level` (as values) -> their orders.

    c_i*c_0 is the single monomial bit 2^i + 1; a_i*a_0 = (c_0 + 1)*c_1*...*c_i
    because c_0^2 = c_0 + 1.
    """
    top = (1 << (level + 1)) - 1
    base = math.prod(_fermat(j) for j in range(1, level + 1))
    return {
        _c(level): base,
        _a(level): base,
        1 << ((1 << level) + 1): 3 * base,
        (1 << top) | (1 << (top - 1)): 3 * base,
    }


def make_stream(seed: int, pass_index: int, size: str, factors: dict[int, tuple[int, ...]]):
    """The pass's queries as plain tuples; `factors` maps j to the primes of N_j."""
    rng = random.Random(f"query-mix/{seed}/{pass_index}")
    divisor = SIZES[size]
    slots = [(kind, lvl) for kind, lvl, n in MIX for _ in range(-(-n // divisor))]
    rng.shuffle(slots)
    order_seqs = {
        lvl: _order_sequence(rng, lvl, sum(1 for s in slots if s == ("order", lvl)))
        for kind, lvl, _ in MIX if kind == "order"
    }
    stream = []
    for kind, lvl in slots:
        width = 1 << (lvl + 1)
        if kind in ("mul", "inv", "pow64"):
            a = rng.randrange(1, 1 << width)
            if kind == "mul":
                stream.append(("mul", lvl, a, rng.getrandbits(width)))
            elif kind == "inv":
                stream.append(("inv", lvl, a))
            else:
                stream.append(("pow64", lvl, a, rng.getrandbits(64) | (1 << 63)))
        elif kind == "eval":
            form = rng.choice("ca")
            p = rng.choice(factors[lvl])
            stream.append(("eval", lvl, f"{form}{lvl}^(N{lvl}/{p})", form, p))
        elif kind == "order":
            api = rng.choice(("is_primitive", "multiplicative_order"))
            stream.append(("order", lvl, order_seqs[lvl].pop(0), api))
        elif kind == "alpha":
            stream.append(("alpha", lvl, rng.choice("ca")))
        else:
            stream.append(("minexp", lvl))
    return stream


def _order_sequence(rng: random.Random, level: int, count: int) -> list[int]:
    """`count` elements: distinct ones (structured first, then random) plus
    round(REPEAT_SHARE * count) repeats, each of an element earlier in the list."""
    repeats = round(REPEAT_SHARE * count) if count > 1 else 0
    distinct = list(structured_elements(level))[: count - repeats]
    width = 1 << (level + 1)
    while len(distinct) < count - repeats:
        distinct.append(rng.randrange(1, 1 << width))
    rng.shuffle(distinct)
    repeat_at = set(rng.sample(range(1, count), repeats))
    seq: list[int] = []
    for k in range(count):
        seq.append(rng.choice(seq) if k in repeat_at else distinct.pop())
    return seq


def bind(stream):
    """One zero-argument callable per query, resolving nimtower names at call
    time so a tracer installed beforehand sees every call."""
    import nimtower
    from nimtower import expr

    E = nimtower.TowerElement
    calls = []
    for q in stream:
        kind, lvl = q[0], q[1]
        if kind == "mul":
            x, y = E(lvl, q[2]), E(lvl, q[3])
            calls.append(lambda x=x, y=y: x.mul(y))
        elif kind == "inv":
            calls.append(lambda x=E(lvl, q[2]): x.inverse())
        elif kind == "pow64":
            calls.append(lambda x=E(lvl, q[2]), e=q[3]: x.pow(e))
        elif kind == "eval":
            calls.append(lambda text=q[2]: expr.evaluate(text))
        elif kind == "order" and q[3] == "is_primitive":
            calls.append(lambda x=E(lvl, q[2]): nimtower.is_primitive(x))
        elif kind == "order":
            calls.append(lambda x=E(lvl, q[2]), lvl=lvl: nimtower.multiplicative_order(
                x, nimtower.group_order(lvl, nimtower.builtin_factor_table())))
        elif kind == "alpha":
            calls.append(lambda i=lvl, base=q[2]: nimtower.alpha_chain(i, base))
        else:
            calls.append(lambda j=lvl: nimtower.minimal_subfield_exponent(j))
    return calls


def run_loop(calls) -> tuple[list, list[float], float]:
    """Closed loop: each query starts when the previous one returned.

    Returns answers (an exception instance for a raised query), per-query
    latencies in ms, and the loop's wall time in s.
    """
    answers = []
    latencies = []
    clock = time.perf_counter_ns
    started = clock()
    for call in calls:
        t0 = clock()
        try:
            answer = call()
        except Exception as exc:  # a raised answer is a failed one; keep going
            answer = exc
        latencies.append((clock() - t0) / 1e6)
        answers.append(answer)
    return answers, latencies, (clock() - started) / 1e9


# ---------------------------------------------------------------------------
# Answer checking (outside the timed loop).


def _ref_pow(a: int, e: int) -> int:
    from nimtower.oracle import nim_mul_rec

    r = 1
    for bit in bin(e)[2:]:
        r = nim_mul_rec(r, r)
        if bit == "1":
            r = nim_mul_rec(r, a)
    return r


class Checker:
    def __init__(self, factors: dict[int, tuple[int, ...]]):
        self.factors = factors
        self._orders: dict[tuple[int, int], int] = {}
        self._powers: dict[tuple[int, int], int] = {}
        self._structured: dict[int, dict[int, int]] = {}

    def _power(self, a: int, e: int) -> int:
        key = (a, e)
        if key not in self._powers:
            self._powers[key] = _ref_pow(a, e)
        return self._powers[key]

    def _certified(self, level: int, value: int, claimed: int) -> bool:
        """Whether `claimed` is the order of `value`, memoised per element."""
        from nimtower.tower import pow_values

        key = (level, value)
        if key in self._orders:
            return self._orders[key] == claimed
        width = 1 << (level + 1)
        group = (1 << width) - 1
        if level not in self._structured:
            self._structured[level] = structured_elements(level)
        known = self._structured[level].get(value)
        if known is not None:
            ok = claimed == known
        elif claimed < 1 or group % claimed:
            ok = False
        else:
            primes = [p for j in range(level + 1) for p in self.factors[j] if claimed % p == 0]
            ok = pow_values(value, claimed, width) == 1 and all(
                pow_values(value, claimed // p, width) != 1 for p in primes
            )
        if ok:
            self._orders[key] = claimed
        return ok

    def check(self, query, answer) -> bool:
        from nimtower import AlphaChain, FactoredOrder, TowerElement
        from nimtower.oracle import nim_mul_rec

        if isinstance(answer, Exception):
            return False
        kind, lvl = query[0], query[1]
        if kind in ("mul", "inv", "pow64", "eval"):
            if not isinstance(answer, TowerElement) or answer.level != lvl:
                return False
            if kind == "mul":
                return answer.value == nim_mul_rec(query[2], query[3])
            if kind == "inv":
                return nim_mul_rec(query[2], answer.value) == 1
            if kind == "pow64":
                return answer.value == self._power(query[2], query[3])
            base = _c(lvl) if query[3] == "c" else _a(lvl)
            return answer.value == self._power(base, _fermat(lvl) // query[4])
        if kind == "order":
            value = query[2]
            group = (1 << (1 << (lvl + 1))) - 1
            if query[3] == "multiplicative_order":
                return isinstance(answer, FactoredOrder) and self._certified(lvl, value, answer.value)
            if not (isinstance(answer, tuple) and len(answer) == 2):
                return False
            primitive, index = answer
            return (
                index >= 1 and group % index == 0 and primitive == (index == 1)
                and self._certified(lvl, value, group // index)
            )
        if kind == "alpha":
            return (
                isinstance(answer, AlphaChain) and answer.i == lvl and answer.base == query[2]
                and answer.alphas == tuple(_fermat(m) for m in range(lvl, 0, -1))
            )
        return answer == _fermat(lvl)


def factor_lists() -> dict[int, tuple[int, ...]]:
    """The primes of N_0..N_11 from the builtin table (loaded outside timing)."""
    import nimtower

    return {e.j: e.factors for e in nimtower.builtin_factor_table()}


def run_pass(seed: int, pass_index: int, size: str, tracer=None) -> dict:
    """Generate, run and check one pass; return counts, latencies and trace."""
    import nimtower

    factors = factor_lists()
    stream = make_stream(seed, pass_index, size, factors)
    nimtower.TowerElement(3, 2).mul(nimtower.TowerElement(3, 3))  # first-use table build
    calls = bind(stream)
    if tracer is not None:
        tracer.install()
    try:
        answers, latencies, loop_s = run_loop(calls)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checker = Checker(factors)
    failed = sum(1 for q, a in zip(stream, answers) if not checker.check(q, a))
    return {
        "wall_s": loop_s,
        "peak_rss_kb": peak_rss_kb,
        "latencies_ms": latencies,
        "attempted": len(stream),
        "failed": failed,
        "trace": tracer.metrics() if tracer is not None else None,
    }
