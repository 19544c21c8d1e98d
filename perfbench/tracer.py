"""Span tracer for the nimtower benchmark's traced runs.

The tracer times calls into the public functions of each nimtower module
from outside the package: it rebinds every module-level (or class-level)
name that refers to a traced function, so callers that look the function up
through their own module namespace (``orders`` reads ``pow_values`` and
``multiplicative_order`` that way) are traced too, and self time splits at
the right boundary.  Nothing under ``src/`` is edited.

Spans are kept in memory as ``[name, start_ns, end_ns, parent_index]`` and
reduced to per-layer metrics by :meth:`Tracer.metrics`.
"""

from __future__ import annotations

import functools
import sys
import time

VERIFY_SUITES = ("lemma5", "lemma6", "thm1", "thm2", "thm5", "cor", "l2ex")

# Span names of the element-wrapper field operations and of exponentiations.
ELEM_SPANS = ("tower.elem.mul", "tower.elem.square", "tower.elem.inverse", "tower.elem.pow")
POW_SPANS = ("tower.pow_values", "tower.elem.pow")


def _verify_identities_name(args, kwargs) -> str:
    # cli runs lemma5 as base-only and lemma6 as iterated-only.
    return "orders.verify.lemma5" if kwargs.get("base", True) else "orders.verify.lemma6"


def _verify_membership_name(args, kwargs) -> str:
    theorem = args[0] if args else kwargs["theorem"]
    return f"orders.verify.thm{theorem}"


class Tracer:
    """Records one span per call of each traced function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.pow_exp_bits = 0
        self.pow_exp_ones = 0
        self._order_keys: set = set()
        self.order_repeats = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, on_call=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if on_call is not None:
                on_call(args)
            index = len(spans)
            spans.append([label, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def _count_exponent(self, args) -> None:
        e = args[1]
        self.pow_exp_bits += e.bit_length()
        self.pow_exp_ones += e.bit_count()

    def _count_order_key(self, args) -> None:
        x, n = args[0], args[1]
        key = (x.level, x.value, n.value)
        if key in self._order_keys:
            self.order_repeats += 1
        else:
            self._order_keys.add(key)

    # -- installation ------------------------------------------------------

    def _rebind_everywhere(self, original, replacement) -> None:
        """Point every nimtower module attribute bound to `original` at `replacement`."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "nimtower" or mod_name.startswith("nimtower.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap the traced functions of every nimtower module imported so far."""
        from nimtower import expr, fermat, orders, tower

        functions = [
            (tower.pow_values, "tower.pow_values", self._count_exponent),
            (orders.multiplicative_order, "orders.order", self._count_order_key),
            (orders.verify_identities, _verify_identities_name, None),
            (orders.verify_membership, _verify_membership_name, None),
            (orders.verify_thm5, "orders.verify.thm5", None),
            (orders.verify_corollaries, "orders.verify.cor", None),
            (orders.verify_closing_example, "orders.verify.l2ex", None),
            (fermat.builtin_factor_table, "fermat.table", None),
            (expr.evaluate, "expr.evaluate", None),
        ]
        cli = sys.modules.get("nimtower.cli")
        if cli is not None:
            functions.append((cli.main, "cli.main", None))
        for fn, name, on_call in functions:
            self._rebind_everywhere(fn, self._wrap(fn, name, on_call))

        # Element methods: `mul` and `__mul__` (and `pow`/`__pow__`) share one
        # function object, so both class attributes are rebound.
        cls = tower.TowerElement
        for method, on_call in (("mul", None), ("square", None), ("inverse", None),
                                ("pow", self._count_exponent)):
            original = vars(cls)[method]
            replacement = self._wrap(original, f"tower.elem.{method}", on_call)
            for attr, value in list(vars(cls).items()):
                if value is original:
                    self._patches.append((cls, attr, original))
                    setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and seconds: inclusive, and self (minus child spans)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = {}
        total: dict[str, int] = {}
        own: dict[str, int] = {}
        verify_ns: list[int] = []
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + end - start
            own[name] = own.get(name, 0) + end - start - child_ns[index]
            if name.startswith("orders.verify."):
                verify_ns.append(end - start)

        def count(*names):
            return sum(calls.get(n, 0) for n in names)

        def seconds(table, *names):
            return sum(table.get(n, 0) for n in names) / 1e9

        out = {
            "tower.pow.calls": count(*POW_SPANS),
            "tower.pow.s": seconds(total, *POW_SPANS),
            "tower.pow.exp_bits": self.pow_exp_bits,
            "tower.pow.exp_ones": self.pow_exp_ones,
            "tower.elem.calls": count(*ELEM_SPANS),
            "tower.elem.s": seconds(total, *ELEM_SPANS),
            "orders.order.calls": count("orders.order"),
            "orders.order.s": seconds(total, "orders.order"),
            "orders.order.self_s": seconds(own, "orders.order"),
            "orders.order.repeats": self.order_repeats,
        }
        for suite in VERIFY_SUITES:
            out[f"orders.verify.{suite}.s"] = seconds(total, f"orders.verify.{suite}")
        out.update({
            "fermat.table.calls": count("fermat.table"),
            "fermat.table.s": seconds(total, "fermat.table"),
            "expr.evaluate.calls": count("expr.evaluate"),
            "expr.evaluate.s": seconds(total, "expr.evaluate"),
            "expr.evaluate.self_s": seconds(own, "expr.evaluate"),
            "cli.main.s": seconds(total, "cli.main"),
            "cli.main.self_s": seconds(own, "cli.main"),
            "cli.task_max_s": max(verify_ns, default=0) / 1e9,
            "cli.task_sum_s": sum(verify_ns) / 1e9,
        })
        return out
