"""A private name of ``src/`` is used only in the module that defines it.

A leading underscore says that a name is a module's own: the module may
change or delete it without looking elsewhere.  That holds only while no
other module reaches for it, as a stage would that rebuilt a bundle's
prediction from ``bundle._to_fields`` instead of calling
``SurrogateBundle.predict``.  So every ``_name`` a
module of ``src/`` uses, as an attribute, a bare name, a call keyword or an
imported name, must be bound in that module: by a ``def``, a ``class``, an
assignment (``self._x = ...`` too), a parameter or an import under that
name.  A ``self.``/``cls.`` attribute is the class's own and is exempt, as
are dunder names, which Python defines.  Comments and docstrings are text,
not uses.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _private(name) -> bool:
    return bool(name) and name.startswith("_") and not (
        name.startswith("__") and name.endswith("__"))


def foreign_private_uses(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each private name that ``source`` uses but does
    not bind."""
    # an imported private name is another module's, whatever it is bound to
    bound, used, imported = set(), [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.alias):
            bound.add(node.asname or node.name)
            imported.append((node.lineno, node.name))
        elif isinstance(node, ast.Global):
            bound.update(node.names)
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            else:
                used.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Store):
                bound.add(node.attr)
            elif not (isinstance(node.value, ast.Name)
                      and node.value.id in ("self", "cls")):
                used.append((node.lineno, node.attr))
        elif isinstance(node, ast.keyword):
            used.append((node.lineno, node.arg))
    foreign = imported + [(line, name) for line, name in used
                          if name not in bound]
    return sorted((line, name) for line, name in foreign if _private(name))


def test_scan_flags_each_foreign_private_use():
    # each line uses a private name that the snippet does not bind
    for line in ("bundle._to_fields(out)",
                 "pred = bundle._predict_normalized(x)",
                 "rows = sg._STACK_ROWS",
                 "from .surrogate import _SPLIT",
                 "from .neural import _take as take",
                 "f(_helper)",
                 "SurrogateBundle(kind, arch, _draw=False)",
                 "x = model.gru._cache[0]"):
        assert foreign_private_uses(line), line
    for line in ("self._stacks[lo, hi] = model",
                 "cls._registry.clear()",
                 "def _serve(jobs):\n    return jobs\n_serve(None)",
                 "class _Inputs:\n    pass\nx = _Inputs()",
                 "_WORKER = {}\n_WORKER.update(paths=[])",
                 "_jobs = None\nglobal_queue = _jobs",
                 "def f(_x):\n    return _x",
                 "from . import neural as _nn\n_nn.H0",
                 "# bundle._to_fields(out)",
                 '"""``surrogate._STACK_ROWS`` bounds it."""',
                 "obj.__class__.__name__",
                 "def _run():\n    pass\nbundle._run()",
                 "self._history = {}\nother._history.clear()"):
        assert not foreign_private_uses(line), line


def test_private_names_stay_in_their_module():
    hits = [f"{path.relative_to(SRC)}:{line}: {name}"
            for path in sorted(SRC.rglob("*.py"))
            for line, name in foreign_private_uses(path.read_text())]
    assert hits == []
