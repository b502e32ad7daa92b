"""Determinism lint: AST pass protecting the bit-identical guarantees.

The cross-validation suite asserts bit-identical residuals between
backends, which only holds while summation order, RNG streams, and
control flow are reproducible.  Three rule families, tuned to stay
green over ``src/repro`` so CI can gate on zero ERROR findings:

``det-set-iter``
    Iterating a ``set``/``frozenset`` expression (literal, call, or
    comprehension) in a ``for`` loop whose body accumulates (``+=`` or
    an in-place arithmetic call): set order is unspecified across
    processes, so float accumulation over it is run-dependent.  ERROR
    when the body accumulates; WARNING for bare iteration (order still
    leaks into event/summation order downstream).
``det-unseeded-rng``
    Module-level ``random.<fn>()`` convenience calls, legacy global
    ``np.random.<fn>()`` draws, and ``np.random.default_rng()`` with no
    seed argument.  All draw from hidden global (or OS-entropy) state;
    deterministic code must thread an explicitly seeded generator.
``det-time-control``
    Wall-clock reads (``time.time``, ``perf_counter``, ``monotonic``,
    ``datetime.now``, ...) inside an ``if``/``while`` condition: the
    branch taken then depends on host speed, which is exactly how
    "works on my machine" hot-path divergence starts.  Timing for
    *measurement* (spans, benchmarks) is untouched.

A trailing ``# det: allow`` comment on the offending line suppresses
the finding (used where non-determinism is deliberate and contained).
The cross-family ``# check: allow[RULE]`` pragma (by stable rule ID or
kebab-case code — see :data:`repro.check.findings.RULE_IDS`) works here
too and is the only form the concurrency lint honours.
"""

from __future__ import annotations

import ast

from repro.check.astlint import AstLinter, dotted
from repro.check.findings import Severity

__all__ = ["lint_source", "lint_file", "lint_paths"]

#: ``random.<fn>`` module-level conveniences that use the hidden global
#: Mersenne Twister.  ``random.Random(seed)`` is explicitly fine.
_UNSEEDED_RANDOM = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
        "getrandbits",
        "randbytes",
        "triangular",
    }
)

#: Legacy ``np.random.<fn>`` draws against the global ``RandomState``.
_UNSEEDED_NP_RANDOM = frozenset(
    {
        "rand",
        "randn",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "randint",
        "normal",
        "uniform",
        "standard_normal",
        "choice",
        "shuffle",
        "permutation",
        "exponential",
        "lognormal",
        "poisson",
        "beta",
        "gamma",
        "binomial",
    }
)

#: Wall-clock reads that make control flow host-speed-dependent.
_CLOCK_CALLS = frozenset(
    {
        ("time", "time"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "process_time"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
    }
)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = dotted(node.func)
        return chain[-1:] in (("set",), ("frozenset",)) and len(chain) == 1
    return False


def _accumulates(body: list[ast.stmt]) -> bool:
    """Does the loop body fold values in place (``+=`` and friends)?"""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult)
            ):
                return True
    return False


class _Linter(AstLinter):
    def __init__(self, filename: str, source_lines: list[str]) -> None:
        super().__init__(filename, source_lines)
        self._control_depth = 0

    # ------------------------------------------------------------------ #
    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            if _accumulates(node.body):
                self._emit(
                    "det-set-iter",
                    Severity.ERROR,
                    "accumulation over a set expression: iteration order "
                    "is unspecified, so the folded result is run-dependent",
                    node,
                    detail="sort the elements (or use an ordered container)",
                )
            else:
                self._emit(
                    "det-set-iter",
                    Severity.WARNING,
                    "iteration over a set expression: order is unspecified",
                    node,
                    detail="sort before iterating if order can reach results",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    def _check_call(self, node: ast.Call) -> None:
        chain = dotted(node.func)
        if len(chain) < 2:
            return
        head, tail = chain[0], chain[-1]
        module_ish = chain[:-1]
        if module_ish == ("random",) and tail in _UNSEEDED_RANDOM:
            self._emit(
                "det-unseeded-rng",
                Severity.ERROR,
                f"random.{tail}() draws from the hidden global RNG",
                node,
                detail="thread a random.Random(seed) instance instead",
            )
        elif (
            head in ("np", "numpy")
            and "random" in module_ish
            and tail in _UNSEEDED_NP_RANDOM
        ):
            self._emit(
                "det-unseeded-rng",
                Severity.ERROR,
                f"np.random.{tail}() draws from the legacy global RandomState",
                node,
                detail="use np.random.default_rng(seed)",
            )
        elif tail == "default_rng" and not node.args and not node.keywords:
            self._emit(
                "det-unseeded-rng",
                Severity.ERROR,
                "default_rng() without a seed pulls OS entropy",
                node,
                detail="pass an explicit seed",
            )
        if self._control_depth and chain[-2:] and tuple(chain[-2:]) in _CLOCK_CALLS:
            self._emit(
                "det-time-control",
                Severity.ERROR,
                f"wall-clock read {'.'.join(chain)}() inside a control-flow "
                "condition: the branch taken depends on host speed",
                node,
                detail="gate on logical progress (counters, budgets) instead",
            )

    def visit_Call(self, node: ast.Call) -> None:
        self._check_call(node)
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    def _visit_test(self, test: ast.expr) -> None:
        self._control_depth += 1
        self.visit(test)
        self._control_depth -= 1

    def visit_If(self, node: ast.If) -> None:
        self._visit_test(node.test)
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_While(self, node: ast.While) -> None:
        self._visit_test(node.test)
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)


lint_source = _Linter.lint_source
lint_file = _Linter.lint_file
lint_paths = _Linter.lint_paths
