"""Every public name of the package has a caller outside the tests.

A public module-level function or class, or a public method or property,
must be referenced by name (an ``ast.Name`` or ``ast.Attribute``) in
``src/`` or ``perfbench/`` outside its own definition.  A string constant
under ``perfbench/`` counts too: the benchmark names the attributes it wraps
as strings.  The scan cannot see dunder methods, which Python calls
implicitly.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rvesurrogate"

# The elastic potentials are the reference implementation of the
# constitutive laws: the physics tests differentiate them to check the
# stresses that gen-data emits, and no pipeline stage needs an energy.
ALLOWED = {"fiber_energy", "matrix_energy"}


def public_definitions():
    """``(file, name, first line, last line)`` of each public definition."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)) \
                        and not d.name.startswith("_"):
                    yield path, d.name, d.lineno, d.end_lineno


def references():
    """``(file, name, line)`` of every name and attribute in src/ and
    perfbench/, and of every string constant in perfbench/."""
    bench = sorted((ROOT / "perfbench").rglob("*.py"))
    for path in sorted((ROOT / "src").rglob("*.py")) + bench:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                yield path, node.id, node.lineno
            elif isinstance(node, ast.Attribute):
                yield path, node.attr, node.lineno
            elif isinstance(node, ast.Constant) and path in bench \
                    and isinstance(node.value, str):
                yield path, node.value, node.lineno


def test_every_public_name_has_a_caller_outside_the_tests():
    definitions = list(public_definitions())
    refs = list(references())
    unused = sorted(
        f"{path.name}:{name}"
        for path, name, first, last in definitions
        if name not in ALLOWED and not any(
            ref == name and not (ref_path == path and first <= line <= last)
            for ref_path, ref, line in refs)
    )
    assert unused == []
    assert ALLOWED <= {name for _, name, _, _ in definitions}
