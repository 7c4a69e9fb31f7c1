"""Lint: numbers enter src/ through poly.coefficient, and divide by exact_div.

Scans the syntax trees of src/chowcalc/*.py for every `/` operator and for
every one-argument `Fraction(x)` whose argument is not a literal.  Either
one may turn a float into a binary fraction (Fraction(0.1)) or make a float
(int / int), so only the three functions that own the rule may hold them:
poly.coefficient (the one gate), poly.exact_div (the one division) and
ChowRing.integrate (whose result is a Fraction by contract).  Two-argument
Fraction(p, q) stays allowed, because it refuses non-rationals itself.
"""

import ast
from pathlib import Path

import chowcalc

SRC = Path(chowcalc.__file__).resolve().parent

ALLOWED = {("poly", "coefficient"), ("poly", "exact_div"),
           ("rings", "ChowRing.integrate")}


def _is_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant)


class _Scan(ast.NodeVisitor):
    def __init__(self, module):
        self.module = module
        self.scope = []
        self.sites = []

    def _nest(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _nest

    def _flag(self, node, what):
        if (self.module, ".".join(self.scope)) not in ALLOWED:
            self.sites.append("%s.py:%d %s in %s" % (
                self.module, node.lineno, what,
                ".".join(self.scope) or "<module>"))

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.Div):
            self._flag(node, "'/'")
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.op, ast.Div):
            self._flag(node, "'/='")
        self.generic_visit(node)

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Name) and node.func.id == "Fraction"
                and len(node.args) == 1 and not node.keywords
                and not _is_literal(node.args[0])):
            self._flag(node, "Fraction(%s)" % ast.unparse(node.args[0]))
        self.generic_visit(node)


def scan(path: Path):
    visitor = _Scan(path.stem)
    visitor.visit(ast.parse(path.read_text(), str(path)))
    return visitor.sites


def test_only_the_gate_converts_or_divides():
    files = sorted(SRC.glob("*.py"))
    assert any(f.name == "poly.py" for f in files)
    sites = [site for f in files for site in scan(f)]
    assert sites == []


def test_the_scan_sees_what_it_forbids(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from fractions import Fraction\n"
        "def f(x, y):\n"
        "    y /= 2\n"
        "    return Fraction(x) + x / y + Fraction(1) + Fraction(-2)"
        " + Fraction(x, y)\n"
        "class C:\n"
        "    def integrate(self, x):\n"
        "        return Fraction(x)\n")
    assert scan(probe) == ["probe.py:3 '/=' in f",
                           "probe.py:4 Fraction(x) in f",
                           "probe.py:4 '/' in f",
                           "probe.py:7 Fraction(x) in C.integrate"]
