"""Smoke test of the benchmark itself, at tiny sizes; not part of tier-1.

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = replace(
    wl.FULL,
    datagen=wl.Ensemble(12, 4, 1, 1, 6),
    dataset=wl.Ensemble(16, 4, 4, 1, 10),
    nnw_in=(3, 6), n_h=8, nnw_out=(6, 4), q=2, p=8,
    batch_size=4, train_batches=2, length=8,
    gauss_points=2, increments=4, setup_repeats=2,
)

NAMED = {
    "datagen": {"gen_data_s", "point_steps_per_s"},
    "train": {"train_s", "train_row_steps_per_s", "eval_s"},
    "query": {"query_p50_ms", "query_p90_ms", "queries_per_s"},
}
COMMON = {"setup_s", "wall_s", "peak_rss_mb", "failed_ops_frac"}


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES + run.EXTRA_WORKLOADS)
def test_workload_reports_every_metric(workload, trace, tmp_path):
    out = run.run(workload, seed=3, seconds=0.01, trace=trace, sizes=TINY,
                  out_dir=tmp_path / "out", work_root=tmp_path / "work")
    result = json.loads(json.dumps(out["result"]))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out["detail"]["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == names
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        # every set-up builds a dataset through gen-data
        assert result["metrics"]["setup.micromodel.matrix_update.calls"]["value"] > 0
    named = out["detail"]["named"]
    assert COMMON | NAMED[workload] <= set(named)
    assert all(m["n"] >= 1 for m in named.values())
    assert not (tmp_path / "work").exists()
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert len(written) == (2 if trace else 1)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
