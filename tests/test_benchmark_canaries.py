"""The benchmark's correctness gate and interface, run in tier-1.

``perfbench/workloads.py`` runs two fixed-seed canaries, a ``gen-data`` run
and a kind III training, and ``check_reference`` compares their outputs
with ``perfbench/reference.json``.  A change that moves either canary fails
here, before a benchmark run reports ``correct: false``.  The untraced
``train`` and ``query`` workloads also run once each at the smoke test's
tiny sizes, through ``perfbench/run.py``'s ``run`` and its counting pass,
so a change that breaks what the benchmark calls fails here too.  The
modules are imported without writing their bytecode, so they are only
read.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """``import_module`` for the modules of ``perfbench/``, which it imports
    without writing their bytecode; ``run`` imports two of them when
    called, so both settings hold for the whole module."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module


@pytest.mark.parametrize("name", ["datagen", "train"])
def test_canary_matches_reference(perfbench, tmp_path, name):
    workloads = perfbench("workloads")
    canary = getattr(workloads, f"{name}_canary")
    assert workloads.check_reference(name, canary(tmp_path)) == []


@pytest.mark.parametrize("workload", ["train", "query"])
def test_untraced_workload_runs(perfbench, tmp_path, workload):
    out = perfbench("run").run(workload, seed=3, seconds=0.01, trace=False,
                               sizes=perfbench("test_smoke").TINY,
                               out_dir=tmp_path, work_root=tmp_path)
    result = out["result"]
    assert result["correct"], out["detail"]["errors"]
    assert result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())
