"""The packed monomial key is ``poly.py``'s own format: every other module
of the package reaches polynomials through their methods, read here from the
source with the stdlib ``ast`` module."""

import ast
from pathlib import Path

import cadorder

# The dense-list kernel that univariate chains share, and long-integer text.
ALLOWED_PRIVATE = {"_prem", "_trim", "_DIGITS", "_int_of_digits"}
PACKED_ATTRIBUTES = {"_terms", "_layout"}


def test_no_module_but_poly_reads_packed_keys():
    breaches = []
    for path in sorted(Path(cadorder.__file__).parent.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in PACKED_ATTRIBUTES:
                breaches.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module in ("poly", "cadorder.poly"):
                for alias in node.names:
                    if alias.name.startswith("_") and alias.name not in ALLOWED_PRIVATE:
                        breaches.append(f"{path.name}:{node.lineno}: imports {alias.name}")
    assert not breaches
