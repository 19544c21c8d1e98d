"""Property-based fuzzing of the two text inputs that come from outside the
program: element expressions and factor-table files.  Whatever the text,
the answer is a value or a NimtowerError, and it comes quickly."""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from nimtower import builtin_factor_table
from nimtower.errors import LevelError, NimtowerError, ValidationError
from nimtower.expr import evaluate
from nimtower.fermat import FermatFactorization, load_factor_table, validate
from nimtower.tower import MAX_LEVEL

# Element atoms stay at level 6 or below: a dense power at level 12 and up
# takes seconds by itself, which is not what these properties are about.
TOKENS = ("c1", "c6", "a3", "0", "1", "0x1f", "0xff@L3", "N5", "N20", "N21", "641",
          "2", "+", "*", "/", "^", "(", ")", "@L", "x", " ")

EXPONENTS = st.recursive(
    st.sampled_from(("N0", "N5", "N11", "N20", "N21", "641", "3", "0")),
    lambda inner: st.tuples(inner, st.sampled_from("*/"), inner).map(
        lambda t: f"({t[0]}{t[1]}{t[2]})"
    ),
    max_leaves=12,
)


def _settle(text: str) -> None:
    started = time.perf_counter()
    try:
        evaluate(text)
    except NimtowerError:
        pass
    assert time.perf_counter() - started < 2.0, text


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=16).map("".join))
def test_token_soup_evaluates_or_raises(text):
    _settle(text)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("c1", "a3", "(c6+1)", "0x1f@L4")), EXPONENTS)
def test_exponent_arithmetic_evaluates_or_raises(base, exponent):
    _settle(f"{base}^{exponent}")


SMALL_ENTRIES = [e for e in builtin_factor_table() if e.j <= 8]


def _entries():
    perturbed = st.tuples(st.sampled_from(SMALL_ENTRIES), st.integers(-2, 2)).map(
        lambda t: (t[0].j, [t[0].factors[0] + t[1], *t[0].factors[1:]])
    )
    merged = st.sampled_from(SMALL_ENTRIES).map(lambda e: (e.j, [e.factors[0] * e.factors[-1]]))
    # validate's cross-level records cost seconds for j near the ceiling,
    # so arbitrary entries stay at j <= 12 or jump above the ceiling
    levels = st.integers(0, 12) | st.integers(MAX_LEVEL + 2, MAX_LEVEL + 3)
    arbitrary = st.tuples(levels, st.lists(st.integers(0, 1 << 80), min_size=1, max_size=4))
    return perturbed | merged | arbitrary


@settings(max_examples=200, deadline=None)
@given(_entries())
def test_factor_file_loader_agrees_with_validate(entry):
    j, factors = entry
    text = f"N{j}: " + " ".join(map(str, factors))
    try:
        loaded = load_factor_table(text) is not None
    except LevelError:
        assert j > MAX_LEVEL + 1
        return
    except ValidationError:
        loaded = False
    report = validate([FermatFactorization(j, tuple(sorted(factors)))], check_primality=True)
    assert loaded == report.passed, (text, report.lines())
