"""The package carries plane-strain tensors in block form only.

A plane-strain tensor lives in ``src/`` as its in-plane 2x2 block and its
out-of-plane entry (``tensorlab``), and a loading path as its 2x2 stretches
(``pathgen``).  A 3x3 identity, a 3x3 shape, or a slice of the in-plane
block or of the ``[2, 2]`` entry out of a 3x3 tensor would bring the
assembled form back; it belongs to the tests' oracles alone
(``conftest.plane_strain``).
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

THREE_BY_THREE = re.compile(r"eye\(3\)|3, 3\)|:2, :2\]|, 2, 2\]")


def test_pattern_flags_each_3x3_form():
    for line in ("u = np.eye(3)", "np.zeros((n, 3, 3))", "shape[1:] != (3, 3)",
                 "f[..., :2, :2]", "u[t, :2, :2]", "f[..., 2, 2]",
                 "u[:, 2, 2] = 1.0"):
        assert THREE_BY_THREE.search(line), line
    for line in ("np.eye(2)", "(n, 2, 2)", "b[..., 1, 1] * z", "a[:, 0, 1]"):
        assert not THREE_BY_THREE.search(line), line


def test_no_3x3_tensor_in_the_package():
    hits = [f"{path.relative_to(SRC)}:{number}: {line.strip()}"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if THREE_BY_THREE.search(line)]
    assert hits == []
