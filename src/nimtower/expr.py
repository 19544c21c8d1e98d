"""Parser and evaluator for element expressions like ``c5^(N5/641) + 0x1f@L3``.

Grammar (whitespace insignificant):

    sum     := prod ('+' prod)*
    prod    := pow ('*' pow)*
    pow     := atom ('^' intexpr)?
    atom    := 'c'digits | 'a'digits | '0' | '1' | hex['@L'digits] | '(' sum ')'
    intexpr := intatom (('*' | '/') intatom)*      (left-associative)
    intatom := decimal | 'N'digits | '(' intexpr ')'   (a decimal never starts 0x)

Exponents are plain naturals; ``N<j>`` resolves to the Fermat number
2^(2^j)+1 (j <= MAX_LEVEL + 1) and ``/`` must divide exactly.  Exponent
arithmetic is exact, so its sizes are bounded: a product may have at most
MAX_EXPONENT_BITS bits, and the bit lengths of a division's operands may
multiply to at most MAX_DIVISION_WORK (CPython divides big integers in
quadratic time).

Evaluation is one bottom-up pass.  Each atom is built at its own level:
``cK`` and ``aK`` at K, ``0`` and ``1`` at -1, a hex atom at its ``@L<k>``
level or else the smallest level that holds its value.  A sum or product
lifts its operands to the highest level among them, and a power is
computed in its base's field, so the result lies at the highest atom
level.  A power's work is bounded at its base's level: the exponent's bit
length, capped at the width w since powers reduce it modulo 2^w - 1,
times POWER_GROWTH^(level+1), the growth of one multiply, may be at most
MAX_POWER_WORK (x^0 and x^1 need no multiply and pass), checked before
the power is computed.  Any overrun is a LevelError.  Parentheses nest at
most MAX_NESTING deep; deeper input is a ParseError, not a RecursionError.
"""

from __future__ import annotations

from .errors import DivideByZero, ExactDivError, LevelError, ParseError
from .fermat import fermat_number
from .tower import MAX_LEVEL, TowerElement, _min_level_for, generator, width_of
from .value import Value

# Deepest parenthesis nesting accepted.  Each level costs the recursive
# descent four stack frames, far below the interpreter's default limit.
MAX_NESTING = 100

# Bounds on exact exponent arithmetic, each about 10 ms of work at most.
# A product may reach twice the top level's width; a division covers N_j/p
# for every j <= MAX_LEVEL + 1 and p below 2048 bits.
MAX_EXPONENT_BITS = 2 * width_of(MAX_LEVEL)
MAX_DIVISION_WORK = 1 << 32
# Bound on min(exponent bits, w) * POWER_GROWTH^(level+1) for a power whose
# base lies at a level of width w, so the worst admitted power takes about as
# long at every level: a dense multiply costs 3.1x more per level from 12 to
# 14, 3.6x from 14 to 15 (shared 2-vCPU machine); 3.25 is exact in binary.
# It admits every power at level <= 12 (8192 exponent bits) and refuses
# (c13+c1)^N12 (4097 bits, 2520 allowed) and 893 bits at level 14 (775).
POWER_GROWTH = 3.25
MAX_POWER_WORK = width_of(12) * POWER_GROWTH ** 13


# Element nodes.
class Sum(Value):
    __slots__ = ("terms",)


class Prod(Value):
    __slots__ = ("factors",)


class Pow(Value):
    __slots__ = ("base", "exponent")


class CAtom(Value):
    __slots__ = ("k",)


class AAtom(Value):
    __slots__ = ("k",)


class BitAtom(Value):
    __slots__ = ("value",)


class HexAtom(Value):
    __slots__ = ("value", "level")  # level None: the smallest that holds value


# Exponent nodes.
class IntLit(Value):
    __slots__ = ("value",)


class FermatRef(Value):
    __slots__ = ("j",)


class IntMul(Value):
    __slots__ = ("left", "right")


class IntDiv(Value):
    __slots__ = ("left", "right")


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
        if ch and ch in "0123456789" and self.text[self.pos : self.pos + 2] not in ("0x", "0X"):
            return IntLit(self.digits())  # a hex atom is element material: see intexpr
        raise ParseError("expected an exponent atom", self.pos)


def parse_expr(s: str) -> object:
    parser = _Parser(s)
    ast = parser.sum()
    if parser.peek():
        raise ParseError("unexpected trailing input", parser.pos)
    return ast


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


def _combine(op, nodes) -> TowerElement:
    """Fold op over the operands left to right, each step at the higher of
    its two levels: the result at the highest, one operand held at a time."""
    acc = _eval(nodes[0])
    for node in nodes[1:]:
        x = _eval(node)
        level = max(acc.level, x.level)
        acc = op(acc.lift(level), x.lift(level))
    return acc


def _eval(node) -> TowerElement:
    if isinstance(node, Sum):
        return _combine(TowerElement.add, node.terms)
    if isinstance(node, Prod):
        return _combine(TowerElement.mul, node.factors)
    if isinstance(node, Pow):
        e = eval_int(node.exponent)
        base = _eval(node.base)
        if e > 1 and min(e.bit_length(), base.width) * POWER_GROWTH ** (base.level + 1) > MAX_POWER_WORK:
            raise LevelError(
                f"power work {e.bit_length()} exponent bits x {POWER_GROWTH}^{base.level + 1}"
                f" above {MAX_POWER_WORK:.4g}"
            )
        return base.pow(e)
    if isinstance(node, CAtom):
        return generator("c", node.k, node.k)
    if isinstance(node, AAtom):
        return generator("a", node.k, node.k)
    if isinstance(node, BitAtom):
        return TowerElement(-1, node.value)
    if isinstance(node, HexAtom):
        own = node.level if node.level is not None else _min_level_for(node.value)
        return TowerElement(own, node.value)
    raise TypeError(f"not an element node: {node!r}")


def evaluate(s: str) -> TowerElement:
    """Parse and evaluate in one bottom-up pass."""
    return _eval(parse_expr(s))
