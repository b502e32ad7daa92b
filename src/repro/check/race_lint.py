"""Concurrency lint: AST rules guarding the shared-memory protocol.

Static companions to the race model checker and the happens-before
trace analyzer, built on the linter base (and the pragma machinery)
it shares with :mod:`repro.check.determinism`
(:mod:`repro.check.astlint`).  Three rule
families, tuned to run green over ``src/repro`` so CI can gate on zero
ERROR findings:

``race-fork-unsafe``
    Creation of a :mod:`threading` primitive (``Thread``, ``Lock``,
    ``RLock``, ``Condition``, ``Semaphore``, ``Event``, ``Barrier``,
    ``Timer``, ...) at import time — module or class scope.  The par
    runtime forks workers; a lock inherited across ``fork`` is cloned
    in whatever state it held at fork time, which is how held-lock
    deadlocks in children start.  ERROR at import scope; WARNING for
    ``Thread`` creation inside functions (threads + fork is still a
    foot-gun, but a contained one).
``race-unguarded-write``
    Direct stores into the shared-arena protocol state — subscript
    writes through ``heartbeats`` / ``_seqs`` / ``_payloads``, or
    calls to ``set_seq`` — anywhere outside the two modules that *are*
    the protocol (``shm.py``, ``comm.py``).  Every other writer must
    go through the publish protocol or it bypasses the
    payload-then-header ordering the receivers rely on.
``race-unbounded-spin``
    A ``while`` loop that looks like a wait loop — ``while True`` or a
    loop whose test/body polls (``.poll``/``.seq``) or sleeps — with
    no escape: no ``break``/``return``/``raise`` in its direct body
    and no ``os._exit``/``sys.exit`` call.  The repo's spin loops are
    deliberately *bounded counts* (see ``ProcComm.recv``); an
    unbounded spin turns a lost wakeup into a silent hang instead of a
    diagnosable ``CommTimeoutError``.

Suppression: a trailing ``# check: allow[RACE00x]`` (or the kebab-case
code) on the offending line, via :func:`repro.check.findings.suppresses`.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.check.astlint import AstLinter, dotted
from repro.check.findings import Severity

__all__ = ["race_lint_source", "race_lint_file", "race_lint_paths"]

#: :mod:`threading` constructors whose import-time creation is unsafe
#: under the par runtime's fork-based worker spawn.
_THREADING_PRIMITIVES = frozenset(
    {
        "Thread",
        "Lock",
        "RLock",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "Event",
        "Barrier",
        "Timer",
    }
)

#: Shared-arena protocol state only ``shm.py``/``comm.py`` may touch.
_PROTOCOL_NAMES = frozenset({"heartbeats", "_seqs", "_payloads"})
_PROTOCOL_FILES = frozenset({"shm.py", "comm.py"})


def _subscript_base_name(node: ast.AST) -> str | None:
    """The trailing name of a subscript target's base (``a.b[c]`` → b)."""
    if isinstance(node, ast.Subscript):
        chain = dotted(node.value)
        if chain:
            return chain[-1]
    return None


def _is_spin_like(node: ast.While) -> bool:
    """Does this ``while`` look like a wait loop?

    ``while True`` or a loop *condition* that polls shared state
    (``.poll``/``.seq``) or sleeps.  Deliberately test-based: a
    progress-bounded loop that merely sleeps in a backoff branch of
    its body is not a spin.
    """
    if isinstance(node.test, ast.Constant) and node.test.value is True:
        return True
    for sub in ast.walk(node.test):
        if isinstance(sub, ast.Call):
            chain = dotted(sub.func)
            if chain and chain[-1] in ("poll", "sleep", "seq"):
                return True
    return False


def _has_escape(node: ast.While) -> bool:
    """Can control flow leave this loop other than by its test?

    ``break`` counts only when it belongs to *this* loop (not a nested
    one); ``return``/``raise`` and process-exit calls count anywhere in
    the body outside nested function definitions.
    """

    def scan(stmts, in_nested_loop: bool) -> bool:
        for stmt in stmts:
            if isinstance(stmt, ast.Break) and not in_nested_loop:
                return True
            if isinstance(stmt, (ast.Return, ast.Raise)):
                return True
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    chain = dotted(sub.func)
                    if chain in (("os", "_exit"), ("sys", "exit"), ("os", "abort")):
                        return True
            nested = in_nested_loop or isinstance(
                stmt, (ast.For, ast.While, ast.AsyncFor)
            )
            for field in ("body", "orelse", "finalbody"):
                children = getattr(stmt, field, None)
                if children and scan(children, nested):
                    return True
            for handler in getattr(stmt, "handlers", []) or []:
                if scan(handler.body, nested):
                    return True
        return False

    return scan(node.body, False)


class _RaceLinter(AstLinter):
    def __init__(self, filename: str, source_lines: list[str]) -> None:
        super().__init__(filename, source_lines)
        self._function_depth = 0
        self._in_protocol_file = Path(filename).name in _PROTOCOL_FILES

    # -------------------------------------------------------------- #
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]
    visit_Lambda = visit_FunctionDef  # type: ignore[assignment]

    def visit_Call(self, node: ast.Call) -> None:
        chain = dotted(node.func)
        if chain:
            is_threading = (
                len(chain) == 2
                and chain[0] == "threading"
                and chain[1] in _THREADING_PRIMITIVES
            )
            if is_threading:
                if self._function_depth == 0:
                    self._emit(
                        "race-fork-unsafe",
                        Severity.ERROR,
                        f"threading.{chain[1]} created at import time: a "
                        "fork-spawned worker inherits it in whatever state "
                        "it held at fork",
                        node,
                        detail="create it lazily inside the owning process",
                    )
                elif chain[1] == "Thread":
                    self._emit(
                        "race-fork-unsafe",
                        Severity.WARNING,
                        "threading.Thread alongside the fork-based par "
                        "runtime: locks held by this thread at fork time "
                        "deadlock the child",
                        node,
                        detail="prefer processes, or start threads only "
                        "after all workers are spawned",
                    )
            if (
                not self._in_protocol_file
                and chain[-1] == "set_seq"
                and len(chain) >= 2
            ):
                self._emit(
                    "race-unguarded-write",
                    Severity.ERROR,
                    "sequence header written outside the publish protocol: "
                    "set_seq() may only be called by shm.py/comm.py",
                    node,
                    detail="route the write through ProcComm.isend (payload "
                    "first, header second)",
                )
        self.generic_visit(node)

    def _check_store(self, target: ast.AST, node: ast.stmt) -> None:
        if self._in_protocol_file:
            return
        base = _subscript_base_name(target)
        if base in _PROTOCOL_NAMES:
            self._emit(
                "race-unguarded-write",
                Severity.ERROR,
                f"direct store into shared-arena {base!r} outside the "
                "publish protocol",
                node,
                detail="only shm.py/comm.py may write protocol state; use "
                "bump_heartbeats()/isend()",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node.target, node)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        if _is_spin_like(node) and not _has_escape(node):
            self._emit(
                "race-unbounded-spin",
                Severity.ERROR,
                "spin/wait loop with no bounded-iteration escape: no "
                "break/return/raise or process exit in the loop body",
                node,
                detail="bound the spin by count (see ProcComm.recv) so a "
                "lost wakeup dies as CommTimeoutError, not a hang",
            )
        self.generic_visit(node)


race_lint_source = _RaceLinter.lint_source
race_lint_file = _RaceLinter.lint_file
race_lint_paths = _RaceLinter.lint_paths
