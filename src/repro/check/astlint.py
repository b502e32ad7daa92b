"""What the two AST linters share: one visitor base and its walkers.

:mod:`repro.check.determinism` and :mod:`repro.check.race_lint` each
subclass :class:`AstLinter` with their rules.  The base resolves
attribute chains (:func:`dotted`), emits findings unless the line's
pragma suppresses them (:func:`repro.check.findings.suppresses`), turns
a file that does not parse into one ``det-parse`` ERROR, and walks a
file or a directory tree in sorted order.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.check.findings import Finding, Severity, suppresses

__all__ = ["AstLinter", "dotted"]


def dotted(node: ast.AST) -> tuple[str, ...]:
    """``a.b.c`` attribute chain as a name tuple (empty when dynamic)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


class AstLinter(ast.NodeVisitor):
    """One linter pass over one file's tree; subclasses add ``visit_*``
    rules that call :meth:`_emit`."""

    def __init__(self, filename: str, source_lines: list[str]) -> None:
        self.filename = filename
        self.lines = source_lines
        self.findings: list[Finding] = []

    def _emit(
        self, code: str, severity: Severity, message: str, node: ast.AST, detail: str = ""
    ) -> None:
        lineno = node.lineno
        if 1 <= lineno <= len(self.lines) and suppresses(
            self.lines[lineno - 1], code
        ):
            return
        self.findings.append(
            Finding(
                code=code,
                severity=severity,
                message=message,
                file=self.filename,
                line=lineno,
                detail=detail,
            )
        )

    @classmethod
    def lint_source(cls, source: str, filename: str = "<string>") -> list[Finding]:
        """Lint one source string; a syntax error is itself an ERROR
        finding (``det-parse``, whichever linter hits it)."""
        try:
            tree = ast.parse(source, filename=filename)
        except SyntaxError as err:
            return [
                Finding(
                    code="det-parse",
                    severity=Severity.ERROR,
                    message=f"cannot parse: {err.msg}",
                    file=filename,
                    line=err.lineno or 0,
                )
            ]
        linter = cls(filename, source.splitlines())
        linter.visit(tree)
        return sorted(linter.findings, key=lambda f: (f.file or "", f.line or 0))

    @classmethod
    def lint_file(cls, path: Path | str) -> list[Finding]:
        path = Path(path)
        return cls.lint_source(path.read_text(), filename=str(path))

    @classmethod
    def lint_paths(cls, root: Path | str) -> list[Finding]:
        """Lint every ``.py`` file under *root* (or the single file *root*)."""
        root = Path(root)
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        findings: list[Finding] = []
        for path in files:
            findings.extend(cls.lint_file(path))
        return findings
