#!/usr/bin/env python3
"""List the statements of the package that a test run never executes.

Runs pytest in this process under a ``sys.settrace`` line tracer limited to
``src/semicrossed``, then prints every statement of the package that never
ran, one per line as ``module.py:line: source``, sorted by module and line.
``def`` and ``class`` headers and docstrings are left out: they run at
import whether or not anything calls them.  A compound statement (``if``,
``for``, ``try``, ...) counts as run when its header or any statement
inside it ran.  Tests that run the command line in a subprocess are not
traced, so a statement that only they reach is listed as well.  No coverage
package is needed.

Usage:
    python scripts/untraced.py [pytest args]

With no arguments pytest collects the configured test paths.  The listing
follows pytest's own output after a line starting with ``untraced:``.  The
exit code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semicrossed"

_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try, ast.Match)
_NO_CODE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _children(node: ast.AST) -> list:
    """The statements directly inside a statement's bodies."""
    out = []
    for name in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, name, None) or []:
            if isinstance(child, (ast.ExceptHandler, ast.match_case)):
                out.extend(child.body)
            else:
                out.append(child)
    return out


def untraced(tree: ast.Module, hits: set) -> list:
    """Line numbers of the statements of ``tree`` that never ran, given the
    lines that reported a line event.  A statement ran when a line of its own
    (its span, less the spans of the statements inside it) reported one; a
    compound statement also ran when a statement inside it did."""

    out: list = []

    def visit(node: ast.stmt, parent: ast.AST) -> bool:
        inner = _children(node)
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in inner:
            own -= set(range(child.lineno, child.end_lineno + 1))
        inner_ran = [visit(child, node) for child in inner]
        ran = bool(own & hits) or (isinstance(node, _COMPOUND) and any(inner_ran))
        if not ran and not isinstance(node, _NO_CODE) and not _is_docstring(node, parent):
            out.append(node.lineno)
        return ran

    for node in tree.body:
        visit(node, tree)
    return sorted(out)


def main(argv: list) -> int:
    files = {str(p.resolve()): p for p in sorted(PACKAGE.glob("*.py"))}
    hits = {name: set() for name in files}
    known: dict = {}

    def local_for(lines: set):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    locals_ = {name: local_for(lines) for name, lines in hits.items()}

    def tracer(frame, event, arg):  # the package's frames get their file's line tracer
        name = frame.f_code.co_filename
        if name not in known:
            known[name] = locals_.get(os.path.realpath(name))
        return known[name]

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print("untraced: statements never run in this process (subprocess tests are not traced)")
    for name, path in files.items():
        source = path.read_text()
        lines = source.splitlines()
        for lineno in untraced(ast.parse(source), hits[name]):
            print(f"{path.relative_to(PACKAGE)}:{lineno}: {lines[lineno - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
