"""Training and prediction run the GRU recurrence through one loop.

``RnnModel.forward`` has one body for both modes, so the two can only
give the same bytes while ``src/`` calls ``neural.gru_step`` at one site.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def gru_step_calls(source: str) -> list[int]:
    """Line numbers of the calls of ``gru_step`` in ``source``, by plain
    name or as an attribute; a definition, docstring or comment is not
    one."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "gru_step"]


def test_scan_counts_calls_only():
    source = '''
def gru_step(cell, gx_t, h_prev):
    """Returns ``gru_step(cell, gx_t, h)`` ... see gru_step(...)."""
    # h = gru_step(cell, gx[t], h)
    return h_prev

h = gru_step(cell, gx[0], h)
h, *_ = nn.gru_step(cell, gx[1], h)
step = gru_step
'''
    assert gru_step_calls(source) == [7, 8]


def test_one_gru_step_call_in_src():
    sites = [f"{path.relative_to(SRC)}:{line}"
             for path in sorted(SRC.rglob("*.py"))
             for line in gru_step_calls(path.read_text())]
    assert len(sites) == 1, sites
