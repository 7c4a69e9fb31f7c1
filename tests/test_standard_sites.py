"""Lint: only listed call sites in src/ make a class without a normal form.

`rings._standard` wraps a Poly as a ChowClass as it is, trusting that it is
already in normal form.  That holds for a linear combination of classes in
normal form and for a constant, and nowhere else.  This test scans the
syntax trees of src/chowcalc/*.py for every use of the name `_standard` and
of `__new__`, and allows them only in the functions listed below.  A new
caller must be added here on purpose, with the reason it holds.
"""

import ast
from pathlib import Path

import chowcalc

SRC = Path(chowcalc.__file__).resolve().parent

ALLOWED = {
    # sums, differences and negations of normal forms
    ("rings", "ChowClass.__add__"),
    ("rings", "ChowClass.__sub__"),
    ("rings", "ChowClass.__neg__"),
    # a scalar times a normal form (a product with a class reduces)
    ("rings", "ChowClass.__mul__"),
    # constants: no relation has degree 0 (ChowRing refuses the unit ideal)
    ("rings", "ChowRing.const"),
    ("rings", "ChowRing.zero"),
    # the constructor itself
    ("rings", "_standard"),
}


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

    def _record(self, node, what):
        self.sites.append((self.module, ".".join(self.scope) or "<module>",
                           node.lineno, what))

    def visit_Name(self, node):
        if node.id == "_standard":
            self._record(node, node.id)

    def visit_Attribute(self, node):
        if node.attr in ("_standard", "__new__"):
            self._record(node, node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        if node.name == "_standard":
            self._record(node, "import of _standard")


def scan(path: Path):
    visitor = _Scan(path.stem)
    visitor.visit(ast.parse(path.read_text(), str(path)))
    return visitor.sites


def test_the_trusted_constructor_has_only_its_listed_callers():
    files = sorted(SRC.glob("*.py"))
    assert any(f.name == "rings.py" for f in files)
    sites = [site for f in files for site in scan(f)]
    stray = ["%s.py:%d %s in %s" % (module, line, what, scope)
             for module, scope, line, what in sites
             if (module, scope) not in ALLOWED]
    assert stray == []
    # every listed caller still uses it, so the list cannot go stale
    assert {(module, scope) for module, scope, _, _ in sites} == ALLOWED


def test_the_scan_sees_what_it_forbids(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from chowcalc.rings import _standard\n"
        "import chowcalc.rings as r\n"
        "def f(ring, p):\n"
        "    return _standard(ring, p)\n"
        "class C:\n"
        "    def g(self, ring, p):\n"
        "        return r._standard(ring, p), object.__new__(C)\n")
    assert [(scope, line, what) for _, scope, line, what in scan(probe)] == [
        ("<module>", 1, "import of _standard"),
        ("f", 4, "_standard"),
        ("C.g", 7, "_standard"),
        ("C.g", 7, "__new__")]
