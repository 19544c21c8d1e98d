"""Parser and evaluator for element expressions like ``c5^(N5/641) + 0x1f@L3``.

Grammar (whitespace insignificant):

    sum     := prod ('+' prod)*
    prod    := pow ('*' pow)*
    pow     := atom ('^' intexpr)?
    atom    := 'c'digits | 'a'digits | '0' | '1' | hex['@L'digits] | '(' sum ')'
    intexpr := intatom (('*' | '/') intatom)*      (left-associative)
    intatom := decimal | 'N'digits | '(' intexpr ')'

Exponents are plain naturals; ``N<j>`` resolves to the Fermat number
2^(2^j)+1 (j <= MAX_LEVEL + 1) and ``/`` must divide exactly.  Exponent
arithmetic is exact, so its sizes are bounded: a product may have at most
MAX_EXPONENT_BITS bits, and the bit lengths of a division's operands may
multiply to at most MAX_DIVISION_WORK (CPython divides big integers in
quadratic time).  A power's work is bounded too: the exponent's bit
length, capped at the width w since powers reduce it modulo 2^w - 1, times
w may be at most MAX_POWER_WORK, checked before the power or its base is
computed.  Any overrun is a LevelError.  An expression
evaluates at the highest level among its atoms; hex atoms take an explicit
``@L<k>`` level or adopt the expression's.  Parentheses nest at most
MAX_NESTING deep; deeper input is a ParseError, not a RecursionError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DivideByZero, ExactDivError, LevelError, ParseError
from .fermat import fermat_number
from .tower import MAX_LEVEL, TowerElement, _min_level_for, generator, width_of

# Deepest parenthesis nesting accepted.  Each level costs the recursive
# descent four stack frames, far below the interpreter's default limit.
MAX_NESTING = 100

# Bounds on exact exponent arithmetic, each about 10 ms of work at most.
# A product may reach twice the top level's width; a division covers N_j/p
# for every j <= MAX_LEVEL + 1 and p below 2048 bits.
MAX_EXPONENT_BITS = 2 * width_of(MAX_LEVEL)
MAX_DIVISION_WORK = 1 << 32
# Bound on min(exponent bits, w) * w for a power at width w.  It admits
# every power at level <= 12 and refuses (c13+c1)^N12 (4097 x 16384), which
# would take tens of seconds; the work grows about 5x per level.
MAX_POWER_WORK = width_of(12) ** 2


# Element nodes.
@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Prod:
    factors: tuple


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: object


@dataclass(frozen=True)
class CAtom:
    k: int


@dataclass(frozen=True)
class AAtom:
    k: int


@dataclass(frozen=True)
class BitAtom:
    value: int


@dataclass(frozen=True)
class HexAtom:
    value: int
    level: int | None


# Exponent nodes.
@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class FermatRef:
    j: int


@dataclass(frozen=True)
class IntMul:
    left: object
    right: object


@dataclass(frozen=True)
class IntDiv:
    left: object
    right: object


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def open_paren(self) -> None:
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", self.pos)
        self.depth += 1
        self.pos += 1

    def close_paren(self) -> None:
        self.take(")")
        self.depth -= 1

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def digits(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected digits", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than int() converts
            raise ParseError("number too long", start) from None

    # -- element grammar ----------------------------------------------------

    def sum(self):
        terms = [self.prod()]
        while self.peek() == "+":
            self.pos += 1
            terms.append(self.prod())
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def prod(self):
        factors = [self.power()]
        while self.peek() == "*":
            self.pos += 1
            factors.append(self.power())
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            return Pow(base, self.intexpr())
        return base

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.open_paren()
            inner = self.sum()
            self.close_paren()
            return inner
        if ch in ("c", "a"):
            self.pos += 1
            k = self.digits()
            return CAtom(k) if ch == "c" else AAtom(k)
        if ch == "0" and self.text[self.pos : self.pos + 2] in ("0x", "0X"):
            return self._hex_atom()
        if ch in ("0", "1"):
            self.pos += 1
            return BitAtom(int(ch))
        raise ParseError("expected an element atom", self.pos)

    def _hex_atom(self):
        self.pos += 2
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789abcdefABCDEF":
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected hex digits after 0x", start)
        value = int(self.text[start : self.pos], 16)
        level = None
        if self.text[self.pos : self.pos + 2] == "@L":
            self.pos += 2
            level = self.digits()
        return HexAtom(value, level)

    # -- exponent grammar ----------------------------------------------------

    def intexpr(self):
        node = self.intatom()
        while self.peek() in ("*", "/"):
            # '*' is also the element product: if what follows the operator
            # is not exponent material, hand it back to the enclosing prod.
            op = self.peek()
            mark, depth = self.pos, self.depth
            self.pos += 1
            try:
                rhs = self.intatom()
            except ParseError:
                self.pos, self.depth = mark, depth
                break
            node = IntMul(node, rhs) if op == "*" else IntDiv(node, rhs)
        return node

    def intatom(self):
        ch = self.peek()
        if ch == "(":
            self.open_paren()
            inner = self.intexpr()
            self.close_paren()
            return inner
        if ch == "N":
            self.pos += 1
            return FermatRef(self.digits())
        if ch and ch in "0123456789":
            return IntLit(self.digits())
        raise ParseError("expected an exponent atom", self.pos)


def parse_expr(s: str) -> object:
    parser = _Parser(s)
    ast = parser.sum()
    if parser.peek():
        raise ParseError("unexpected trailing input", parser.pos)
    return ast


def _atom_levels(node, out: list[int]) -> None:
    if isinstance(node, Sum):
        for t in node.terms:
            _atom_levels(t, out)
    elif isinstance(node, Prod):
        for f in node.factors:
            _atom_levels(f, out)
    elif isinstance(node, Pow):
        _atom_levels(node.base, out)
    elif isinstance(node, (CAtom, AAtom)):
        out.append(node.k)
    elif isinstance(node, BitAtom):
        out.append(-1)
    elif isinstance(node, HexAtom):
        out.append(node.level if node.level is not None else _min_level_for(node.value))
    else:
        raise TypeError(f"not an element node: {node!r}")


def infer_level(ast) -> int:
    levels: list[int] = []
    _atom_levels(ast, levels)
    return max(levels)


def divrem(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder with a = q*b + r, 0 <= r < b."""
    if b == 0:
        raise DivideByZero("division by zero")
    return divmod(a, b)


def eval_int(node) -> int:
    # A chain a*b/c*... is a left-deep tree as long as the chain; walk its
    # left spine in a loop so only parentheses add stack depth.
    spine = []
    while isinstance(node, (IntMul, IntDiv)):
        spine.append(node)
        node = node.left
    if isinstance(node, IntLit):
        acc = node.value
    elif isinstance(node, FermatRef):
        acc = fermat_number(node.j)
    else:
        raise TypeError(f"not an exponent node: {node!r}")
    for op in reversed(spine):
        rhs = eval_int(op.right)
        if isinstance(op, IntMul):
            if acc.bit_length() + rhs.bit_length() > MAX_EXPONENT_BITS:
                raise LevelError(f"exponent product above {MAX_EXPONENT_BITS} bits")
            acc *= rhs
            continue
        if acc.bit_length() * rhs.bit_length() > MAX_DIVISION_WORK:
            raise LevelError(f"exponent division operands above {MAX_DIVISION_WORK} bits squared")
        acc, r = divrem(acc, rhs)
        if r != 0:
            raise ExactDivError(f"exponent division is not exact (remainder {r})")
    return acc


def _eval_at(node, level: int) -> TowerElement:
    if isinstance(node, Sum):
        out = _eval_at(node.terms[0], level)
        for t in node.terms[1:]:
            out = out.add(_eval_at(t, level))
        return out
    if isinstance(node, Prod):
        out = _eval_at(node.factors[0], level)
        for f in node.factors[1:]:
            out = out.mul(_eval_at(f, level))
        return out
    if isinstance(node, Pow):
        e = eval_int(node.exponent)
        width = width_of(level)
        if min(e.bit_length(), width) * width > MAX_POWER_WORK:
            raise LevelError(
                f"power work {e.bit_length()} exponent bits x {width} bits"
                f" above {MAX_POWER_WORK}"
            )
        return _eval_at(node.base, level).pow(e)
    if isinstance(node, CAtom):
        return generator("c", node.k, level)
    if isinstance(node, AAtom):
        return generator("a", node.k, level)
    if isinstance(node, BitAtom):
        return TowerElement(level, node.value)
    if isinstance(node, HexAtom):
        own = node.level if node.level is not None else level
        return TowerElement(own, node.value).lift(level)
    raise TypeError(f"not an element node: {node!r}")


def eval_expr(ast) -> TowerElement:
    """Evaluate at the expression's inferred level, lifting atoms as needed."""
    return _eval_at(ast, infer_level(ast))


def evaluate(s: str) -> TowerElement:
    """Parse and evaluate in one step."""
    return eval_expr(parse_expr(s))
