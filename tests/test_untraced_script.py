"""``scripts/untraced.py``: which statements count as run, and its output."""

import ast
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SCRIPT = _ROOT / "scripts" / "untraced.py"
_spec = importlib.util.spec_from_file_location("untraced_script", _SCRIPT)
untraced = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(untraced)

_SOURCE = '''"""Module docstring."""
import os


def f(x):
    """Docstring."""
    if x:
        y = (
            x
            + 1
        )
    else:
        y = 0
    for _ in range(3):
        pass
    return y


class C:
    value: int = 0
'''


def test_a_statement_runs_when_one_of_its_own_lines_reports():
    """Line events at the import (2), the def and class bodies (20), the
    ``if`` test (7) and the middle of a multi-line assignment (10): the
    ``else`` branch, the loop and the return never ran.  ``def``, ``class``
    and docstrings are never listed; ``if`` counts as run through its body
    even without a line event of its own."""
    tree = ast.parse(_SOURCE)
    assert untraced.untraced(tree, {2, 7, 10, 20}) == [13, 14, 15, 16]
    assert untraced.untraced(tree, {2, 10, 20}) == [13, 14, 15, 16]
    assert untraced.untraced(tree, {2, 7, 13, 14, 15, 16, 20}) == [8]
    assert untraced.untraced(tree, set()) == [2, 7, 8, 13, 14, 15, 16, 20]


def test_the_script_lists_untraced_statements_of_the_package():
    """Run on one fast test file, it prints pytest's summary, then one
    ``module.py:line: source`` line per statement never run; nothing the
    file runs is listed, and the CLI entry point, which it never runs, is."""
    out = subprocess.run(
        [sys.executable, str(_SCRIPT), "tests/test_config.py", "-q", "-p", "no:cacheprovider"],
        cwd=_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    head, listing = out.stdout.split("untraced: ", 1)
    assert re.search(r"\d+ passed", head)
    note, *rows = listing.splitlines()
    assert "subprocess tests are not traced" in note
    pattern = re.compile(r"^([a-z_]+\.py):(\d+): (\S.*)$")
    listed = set()
    for row in rows:
        match = pattern.match(row)
        assert match, row
        name, line, source = match.groups()
        text = (_ROOT / "src" / "semicrossed" / name).read_text().splitlines()[int(line) - 1]
        assert text.strip() == source
        assert not source.startswith(("def ", "class ", '"""'))
        listed.add((name, source))
    assert ("__main__.py", "sys.exit(main())") in listed
    assert not any(name == "config.py" and source.startswith("import") for name, source in listed)
