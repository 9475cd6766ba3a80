"""The benchmark's correctness gate, run in tier-1.

``perfbench/workloads.py`` runs two fixed-seed canaries, a ``gen-data`` run
and a kind III training, and ``check_reference`` compares their outputs
with ``perfbench/reference.json``.  A change that moves either canary fails
here, before a benchmark run reports ``correct: false``.  The module is
imported without writing its bytecode, so it is only read.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, imported without writing its bytecode."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["datagen", "train"])
def test_canary_matches_reference(workloads, tmp_path, name):
    canary = getattr(workloads, f"{name}_canary")
    assert workloads.check_reference(name, canary(tmp_path)) == []
