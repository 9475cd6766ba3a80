"""Every public name of the package has a caller outside the tests.

A public module-level function or class, or a public method or property,
must be referenced by name (an ``ast.Name`` or ``ast.Attribute``) in
``src/`` or ``perfbench/`` outside its own definition.  A ``self.<name>`` or
``cls.<name>`` reference counts only for the member ``<name>`` of the class
it is written in, so a method of one class does not keep a same-named
member of another alive.  A string constant under ``perfbench/`` counts
too: the benchmark names the attributes it wraps as strings.  The scan
cannot see dunder methods, which Python calls implicitly.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rvesurrogate"

# The elastic potentials are the reference implementation of the
# constitutive laws: the physics tests differentiate them to check the
# stresses that gen-data emits, and no pipeline stage needs an energy.
ALLOWED = {"fiber_energy", "matrix_energy"}


def public_definitions():
    """``(file, class, name, first line, last line)`` of each public
    definition; ``class`` is ``None`` for a module-level one."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d, owner in [(node, None), *((m, node.name) for m in members)]:
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)) \
                        and not d.name.startswith("_"):
                    yield path, owner, d.name, d.lineno, d.end_lineno


def _nodes(tree, owner=None):
    """Every node under ``tree`` with the name of its innermost class."""
    for child in ast.iter_child_nodes(tree):
        yield child, owner
        inner = child.name if isinstance(child, ast.ClassDef) else owner
        yield from _nodes(child, inner)


def references():
    """``(file, class, name, line)`` of every name and attribute in src/ and
    perfbench/, and of every string constant in perfbench/; ``class`` is
    the enclosing class of a ``self.``/``cls.`` attribute, else ``None``."""
    bench = sorted((ROOT / "perfbench").rglob("*.py"))
    for path in sorted((ROOT / "src").rglob("*.py")) + bench:
        for node, owner in _nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                yield path, None, node.id, node.lineno
            elif isinstance(node, ast.Attribute):
                on_self = isinstance(node.value, ast.Name) \
                    and node.value.id in ("self", "cls")
                yield path, owner if on_self else None, node.attr, node.lineno
            elif isinstance(node, ast.Constant) and path in bench \
                    and isinstance(node.value, str):
                yield path, None, node.value, node.lineno


def _calls(ref, definition) -> bool:
    """Whether a reference from ``references`` names a definition from
    ``public_definitions`` from outside it."""
    ref_path, ref_owner, ref_name, line = ref
    path, owner, name, first, last = definition
    if ref_name != name or (ref_path == path and first <= line <= last):
        return False
    return ref_owner is None or (ref_path == path and ref_owner == owner)


def test_every_public_name_has_a_caller_outside_the_tests():
    definitions = list(public_definitions())
    refs = list(references())
    unused = []
    for d in definitions:
        path, owner, name, _, _ = d
        if name not in ALLOWED and not any(_calls(ref, d) for ref in refs):
            unused.append(f"{path.name}:{owner + '.' if owner else ''}{name}")
    assert unused == []
    assert ALLOWED <= {name for _, _, name, _, _ in definitions}


def test_every_benchmark_target_is_an_attribute_of_its_owner():
    # the benchmark wraps each target by name; a renamed one breaks its traces
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for _, owner, attr, _ in tracing.TARGETS
               if attr not in owner.__dict__]
    assert missing == []
