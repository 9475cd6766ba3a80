"""The package seeds every generator through ``pathgen.make_rng``.

Each stage's manifest records one ``rng`` algorithm,
``pathgen.RNG_ALGORITHM``; it names the generator of every stage only while
``make_rng`` is the one place in ``src/`` that constructs a bit generator
or a seed sequence.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PATHGEN = SRC / "rvesurrogate" / "pathgen.py"

CONSTRUCTOR = re.compile(r"PCG64\(|SeedSequence\(")


def test_pattern_flags_each_constructor():
    for line in ("Generator(np.random.PCG64(np.random.SeedSequence(s)))",
                 "bits = PCG64(seed)", "np.random.SeedSequence([seed, 1])",
                 "from numpy.random import SeedSequence; SeedSequence(0)"):
        assert CONSTRUCTOR.search(line), line
    for line in ("rng = make_rng([seed, 1])",
                 'RNG_ALGORITHM = "numpy.random.PCG64"',
                 "np.random.default_rng(0)"):
        assert not CONSTRUCTOR.search(line), line


def make_rng_lines() -> range:
    """Line numbers of ``make_rng``'s definition in ``pathgen.py``."""
    for node in ast.parse(PATHGEN.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == "make_rng":
            return range(node.lineno, node.end_lineno + 1)
    raise AssertionError("pathgen.make_rng is gone")


def test_make_rng_is_the_one_generator_constructor():
    allowed = make_rng_lines()
    hits = [f"{path.relative_to(SRC)}:{number}: {line.strip()}"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if CONSTRUCTOR.search(line)
            and not (path == PATHGEN and number in allowed)]
    assert hits == []
