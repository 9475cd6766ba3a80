"""Benchmark of the surrogate pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload {train,query,datagen} --seed N \
        --seconds S --trace {0,1}

``BENCHMARK.json`` lists ``train`` and ``query``; ``datagen`` is run by hand.

The package is imported from ``src/``.  A run sets up its workload and
runs the timed section once each, untimed, with wrappers that count calls
(the exact counters), then repeats the timed section with no wrapper
installed until ``--seconds`` of repetitions have passed, and checks every
repetition's outputs.  Further set-ups run at even steps of the run;
``setup_s`` is their median.  With ``--trace 0`` the last line of standard
output carries the end-to-end metrics; with ``--trace 1`` untraced
repetitions and set-ups alternate with ones that record spans, and the last
line carries the per-layer metrics.  The line before it holds the full
detail (environment, metrics named per workload with sample counts, exact
counters), which is also written to ``.bench_out/``, together with the
spans of a traced run.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the workloads BENCHMARK.json lists
WORKLOAD_NAMES = ("train", "query")
# run by hand only: too unsteady on a shared machine for the bounds (README)
EXTRA_WORKLOADS = ("datagen",)

# name -> unit; every workload reports every one of them
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "rate_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ops_frac": "frac",
}

# per-layer time per unit of work: metric suffix -> counter suffix
_WORK_UNIT = {"us_per_point": "points", "us_per_row_step": "row_steps"}
# per timed repetition
LAYER = {
    **{f"{n}.{k}": u for n in ("tensorlab.sym_eig", "tensorlab.inv", "tensorlab.det")
       for k, u in (("calls", "count"), ("s", "s"))},
    "micromodel.run_sequence.self_s": "s",
    **{f"micromodel.{n}.{k}": u for n in ("matrix_update", "fiber_stress")
       for k, u in (("calls", "count"), ("s", "s"), ("us_per_point", "us"))},
    "micromodel.substep_ratio": "ratio",
    "micromodel.plastic_point_step_frac": "frac",
    "micromodel.truncated_paths": "count",
    "pathgen.generate_random_path.s": "s",
    "pathgen.generate_cyclic_path.s": "s",
    "pathgen.macro_steps": "count",
    **{f"datastore.{n}.s": "s" for n in ("write_dataset", "read_dataset",
                                         "pack_records", "fit_normalization")},
    "datastore.bytes_written": "B",
    **{f"cli.stage.{n}.s": "s" for n in ("gen-paths", "gen-data", "pca-fit",
                                         "train", "eval")},
    "cli.sha256_file.s": "s",
    "cli.hash_tree.s": "s",
    "pca.fit.s": "s",
    **{f"pca.{n}.{k}": u for n in ("project", "reconstruct")
       for k, u in (("calls", "count"), ("s", "s"))},
    **{f"neural.{n}.{k}": u for n in ("forward", "backward")
       for k, u in (("calls", "count"), ("s", "s"), ("us_per_row_step", "us"),
                    ("flop", "flop"))},
    "neural.adam.s": "s",
    "neural.clip.s": "s",
    "neural.forward.row_steps_per_query": "count",
    **{f"surrogate.{n}.self_s": "s" for n in ("train", "evaluate", "predict_fields")},
    "surrogate.fit_normalization.s": "s",
}
# layers that train and query reach only in their set-up, which builds the
# dataset through gen-paths and gen-data; reported per set-up as well
SETUP_LAYERS = ("tensorlab.", "micromodel.", "pathgen.", "datastore.write_dataset.",
                "datastore.bytes_written", "cli.stage.gen-")
PER_LAYER = {
    **LAYER,
    **{f"setup.{n}": u for n, u in LAYER.items() if n.startswith(SETUP_LAYERS)},
    "trace.overhead_s": "s",
    "trace.key_layer_share": "frac",
    "trace.spans_per_rep": "count",
}


def pin_blas_threads() -> None:
    """Fix the BLAS pool before numpy is imported, so load is one thread."""
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS


def blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads_env": BLAS_THREADS, "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(seed: int, held_out_seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "seed": seed,
        "held_out_seed": held_out_seed,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derived_counters(counts: dict) -> dict:
    """Exact per-repetition counters plus the ratios built from them."""
    out = dict(sorted(counts.items()))
    out["micromodel.substep_ratio"] = ratio(
        counts.get("micromodel.matrix_update.calls", 0),
        counts.get("micromodel.converged_steps", 0))
    out["micromodel.plastic_point_step_frac"] = ratio(
        counts.get("micromodel.plastic_point_steps", 0),
        counts.get("micromodel.point_steps", 0))
    out["neural.forward.row_steps_per_query"] = ratio(
        counts.get("neural.forward.query_row_steps", 0),
        counts.get("neural.forward.query_calls", 0))
    return out


def layer_values(table, counts: dict, n: int, names, prefix: str = "") -> dict:
    """Metrics ``prefix + name`` per one of the ``n`` traced repetitions or
    set-ups in ``table``; ``counts`` are the exact counters of one."""
    counts = derived_counters(counts)
    values = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if kind == "self_s":
            value = table.self_time.get(layer, 0.0) / n
        elif kind == "s":
            value = table.total.get(layer, 0.0) / n
        elif kind in _WORK_UNIT:
            work = counts.get(f"{layer}.{_WORK_UNIT[kind]}", 0)
            value = 1e6 * ratio(table.total.get(layer, 0.0), n * work)
        else:
            value = counts.get(name, 0)
        values[prefix + name] = value
    return values


def layer_metrics(workload, recorder, traced, plain, setup_counts: dict,
                  n_setups: int) -> dict:
    """Per-layer metrics, per traced repetition and per traced set-up."""
    import tracing

    table = tracing.SpanTable(recorder.spans, keep=lambda rep: rep > 0)
    n = len(traced)
    values = layer_values(table, traced[0].counts, n, LAYER)
    setup_table = tracing.SpanTable(recorder.spans, keep=lambda rep: rep < 0)
    values.update(layer_values(
        setup_table, setup_counts, n_setups,
        [name for name in LAYER if name.startswith(SETUP_LAYERS)], "setup."))

    values["trace.overhead_s"] = (median(r.wall for r in traced)
                                  - median(r.wall for r in plain))
    values["trace.spans_per_rep"] = len(table.kept) / n
    prefix, interval = workload.key_layer
    if interval is None:
        share = ratio(table.total.get(prefix, 0.0), sum(r.wall for r in traced))
    else:
        share = ratio(table.time_under(prefix, interval),
                      table.total.get(interval, 0.0))
    values["trace.key_layer_share"] = share
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()}


def guarded(check, *args) -> list[str]:
    """Run a correctness check; an exception it raises is a failed check."""
    try:
        return check(*args)
    except Exception as err:  # report the failure and finish the run
        traceback.print_exc()
        return [f"{check.__name__}: {err!r}"]


def recorded(recorder, mode: str, index: int, fn):
    """Call ``fn`` with the wrappers of ``mode`` installed for the call only.

    ``OFF`` installs none.  Returns ``fn``'s result and the counts recorded.
    """
    import tracing

    saved = tracing.install(recorder) if mode != tracing.OFF else []
    try:
        recorder.begin_rep(index, mode)
        out = fn()
        return out, recorder.end_rep()
    finally:
        tracing.uninstall(saved)


def run_rep(workload, recorder, mode: str, index: int):
    """One repetition of the timed section, then its (unrecorded) check."""
    rep, counts = recorded(recorder, mode, index, workload.run_rep)
    rep.counts = counts
    rep.check_errors = guarded(workload.check_rep, rep)
    return rep


def run_setup(workload, recorder, mode: str, index: int) -> tuple[float, dict]:
    """One set-up; returns its time and its counts."""
    def timed():
        start = perf_counter()
        workload.setup()
        return perf_counter() - start
    return recorded(recorder, mode, index, timed)


def run_reps(workload, recorder, modes: tuple, budget_s: float,
             n_setups: int) -> tuple[dict, dict]:
    """Repeat the timed section for ``budget_s``, cycling through ``modes``.

    Alternating untraced and traced repetitions lets both see the same
    machine load, so their difference is the tracing overhead.  ``n_setups``
    set-ups, cycling through the same modes, run at even steps of the
    budget, so that ``setup_s``, like the repetitions, samples the machine
    across the run; set-up time does not count against ``budget_s``.
    Returns the repetitions and the set-ups ``(time, counts)`` per mode.
    """
    reps = {mode: [] for mode in modes}
    setups = {mode: [] for mode in modes}
    spent = 0.0
    i = 0
    k = 0
    while i < len(modes) or k < n_setups or spent < budget_s:
        mode = modes[i % len(modes)]
        start = perf_counter()
        reps[mode].append(run_rep(workload, recorder, mode, i + 1))
        spent += perf_counter() - start
        i += 1
        if k < n_setups and spent >= budget_s * k / n_setups:
            mode = modes[k % len(modes)]
            setups[mode].append(run_setup(workload, recorder, mode, -2 - k))
            k += 1
    return reps, setups


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        sizes=None, out_dir: Path = Path(".bench_out"),
        work_root: Path = Path(".bench_work")) -> dict:
    """Run one benchmark; returns ``{"result": ..., "detail": ...}``."""
    import tracing
    import workloads as wl

    sizes = sizes or wl.FULL
    run_id = f"{workload_name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    workdir = work_root / run_id
    workload = wl.WORKLOADS[workload_name](seed, sizes, workdir)
    recorder = tracing.Recorder(run_id)
    try:
        # counters are exact and the same in every set-up and repetition,
        # so one untimed counting set-up and repetition give them; they
        # also warm up
        _, setup_counts = run_setup(workload, recorder, tracing.COUNT, -1)
        counted = run_rep(workload, recorder, tracing.COUNT, 0)
        modes = (tracing.OFF, tracing.SPAN) if trace else (tracing.OFF,)
        reps, setup_runs = run_reps(workload, recorder, modes, seconds,
                                    sizes.setup_repeats)
        plain, traced = reps[tracing.OFF], reps.get(tracing.SPAN, [])
        setups = [t for t, _ in setup_runs[tracing.OFF]]
        traced_setups = setup_runs.get(tracing.SPAN, [])
        rss = peak_rss_mb()
        final_errors = guarded(workload.final_checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    # each repetition's check and the final reference check count as ops
    reps = [counted] + plain + traced
    attempted = sum(r.attempted + 1 for r in reps) + 1
    failed = (sum(r.failed + bool(r.check_errors) for r in reps)
              + bool(final_errors))
    errors = [e for r in reps for e in r.errors + r.check_errors] + final_errors
    call_p50_ms, rate, named = workload.metrics(plain, counted.counts)
    walls = [r.wall for r in plain]
    e2e = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "call_p50_ms": call_p50_ms,
        "rate_per_s": rate,
        "peak_rss_mb": rss,
        "ok_ops_frac": 1.0 - failed / attempted,
    }
    detail = {
        "workload": workload_name,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed, wl.held_out_seed(seed)),
        "end_to_end": {k: {"value": float(v), "unit": END_TO_END[k]}
                       for k, v in e2e.items()},
        "named": {
            "setup_s": {"value": e2e["setup_s"], "unit": "s", "n": len(setups)},
            "wall_s": {"value": e2e["wall_s"], "unit": "s", "n": len(walls)},
            "peak_rss_mb": {"value": rss, "unit": "MB", "n": 1},
            "failed_ops_frac": {"value": failed / attempted, "unit": "frac",
                                "n": attempted},
            **named,
        },
        "repetitions": {"plain": len(plain), "traced": len(traced)},
        "setup_each_s": setups,
        "rep_wall_s": {"plain": walls, "traced": [r.wall for r in traced]},
        "counters": derived_counters(counted.counts),
        "setup_counters": derived_counters(setup_counts),
        "counters_identical_across_reps": (
            all(r.counts == counted.counts for r in traced)
            and all(c == setup_counts for _, c in traced_setups)),
        "errors": errors,
    }
    if trace:
        detail["per_layer"] = layer_metrics(workload, recorder, traced, plain,
                                            setup_counts, len(traced_setups))
        detail["traced_counters"] = derived_counters(traced[0].counts)
    metrics = detail["per_layer"] if trace else detail["end_to_end"]
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{run_id}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if trace:
        (out_dir / f"{run_id}.spans.json").write_text(
            json.dumps(recorder.spans_payload()) + "\n")
    return {"result": result, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    pin_blas_threads()
    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import rvesurrogate
    except ImportError as err:
        print(f"error: cannot import the package ({err}); run from the "
              "repository root", file=sys.stderr)
        return 2
    if src not in Path(rvesurrogate.__file__).resolve().parents:
        print(f"error: imported {rvesurrogate.__file__}, not the package in "
              f"{src}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
