"""List the statements of ``src/lexiring`` that no Tier-1 test executes.

Runs the test suite in this process under ``sys.settrace``, tracing only
frames whose code lives in ``src/lexiring``, and prints each statement
none of whose lines ran, as ``path:line: text``, then their count.  A
statement counts as run when any line of its own (a compound statement's
header, not its body) that carries bytecode ran.  Code run only in a
subprocess that a test starts is not seen.

``test_criterion_4_algebraic_law_suites`` is deselected: its 30 s bound
does not hold under tracing.  Nothing is written into the checkout (no
bytecode, no pytest cache).  Stdlib and pytest only; takes no options::

    python3 tools/untested_lines.py

pytest does not collect this file.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lexiring"
PREFIX = str(PACKAGE) + os.sep
DESELECTED = "tests/test_acceptance.py::test_criterion_4_algebraic_law_suites"


def _bytecode_lines(code, out):
    """Add every line that carries bytecode in code and the code nested in it."""
    out.update(line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            _bytecode_lines(const, out)
    return out


def _own_lines(node):
    """The lines of a statement outside its nested statements: a compound statement's header."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        return range(start, body[0].lineno)
    return range(node.lineno, node.end_lineno + 1)


def untested(path, ran):
    """(line, text) of each statement in path with bytecode of its own and no line run."""
    source = path.read_text()
    lines = source.splitlines()
    code = _bytecode_lines(compile(source, str(path), "exec", dont_inherit=True), set())
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            own = [line for line in _own_lines(node) if line in code]
            if own and not any(line in ran for line in own):
                found.append((node.lineno, lines[node.lineno - 1].strip()))
    return sorted(found)


def main():
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    ran = {}  # path -> lines run

    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PREFIX) else None

    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", DESELECTED, "tests"])
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in untested(path, ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
            total += 1
    print(f"{total} statements of src/lexiring run in no test (pytest exit status {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
