"""Layering rules, read from the package source with the stdlib ``ast``
module: the packed monomial key is ``poly.py``'s own format, which every
other module reaches through polynomial methods, no module but ``poly.py``
unpacks the keys into ``Monomial``s, and only the CLI turns a projection
level into text."""

import ast
from pathlib import Path

import cadorder

# The dense-list kernel that univariate chains share, and long-integer text.
ALLOWED_PRIVATE = {"_prem", "_trim", "_DIGITS", "_int_of_digits"}
PACKED_ATTRIBUTES = {"_terms", "_layout"}


def _outside_poly():
    """(file name, parsed tree) of every package module but ``poly.py``."""
    for path in sorted(Path(cadorder.__file__).parent.glob("*.py")):
        if path.name != "poly.py":
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_no_module_but_poly_reads_packed_keys():
    breaches = []
    for name, tree in _outside_poly():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in PACKED_ATTRIBUTES:
                breaches.append(f"{name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module in ("poly", "cadorder.poly"):
                for alias in node.names:
                    if alias.name.startswith("_") and alias.name not in ALLOWED_PRIVATE:
                        breaches.append(f"{name}:{node.lineno}: imports {alias.name}")
    assert not breaches


def test_no_module_but_poly_reads_terms():
    """``Polynomial.terms`` unpacks every key into a new ``Monomial`` on each
    access.  It is the boundary for tests and the benchmark harness; the
    package itself reads polynomials through methods that keep keys packed."""
    breaches = [f"{name}:{node.lineno}: .terms" for name, tree in _outside_poly()
                for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "terms"]
    assert not breaches


def _annotations(tree: ast.AST) -> set[int]:
    """The ids of every node inside a type annotation of the tree: an
    argument's or an annotated assignment's ``annotation``, or a function's
    ``returns``."""
    roots = (getattr(node, field, None) for node in ast.walk(tree) for field in ("annotation", "returns"))
    return {id(n) for root in roots if root is not None for n in ast.walk(root)}


def test_projection_and_heuristics_never_render_a_polynomial():
    """A projection level is a set and sotd and ndrr are sums over it, so
    neither module turns anything into text: no ``str(...)`` call, no
    ``key=str`` and no other use of ``str`` outside a type annotation.  Only
    the CLI orders a level, where it prints one."""
    breaches = []
    for name in ("projection.py", "heuristics.py"):
        tree = ast.parse((Path(cadorder.__file__).parent / name).read_text(encoding="utf-8"))
        annotations = _annotations(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "str" and id(node) not in annotations:
                breaches.append(f"{name}:{node.lineno}: str")
    assert not breaches
