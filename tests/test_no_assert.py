"""Lint: src/ states its invariants with `raise`, never with `assert`.

`python -O` strips assert statements, so a check written as one silently
stops checking under -O.  This walks the syntax trees of
src/chowcalc/*.py and fails on any `assert`.
"""

import ast
from pathlib import Path

import chowcalc

SRC = Path(chowcalc.__file__).resolve().parent


def test_no_assert_statements_in_src():
    sites = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not sites, "assert in src/ (stripped by python -O): " + \
        ", ".join(sites)
