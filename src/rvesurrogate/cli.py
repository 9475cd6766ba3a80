"""Pipeline command-line interface.

Stages (``gen-paths``, ``gen-data``, ``pca-fit``, ``train``, ``trial``,
``eval``; ``all`` chains gen-paths through eval) read one JSON config and
write their artifacts under the output root (env var ``RVESURROGATE_ROOT``,
default ``./pipeline_out``).  Every stage writes a manifest carrying the
config echo, the seeds in effect and SHA-256 hashes of its inputs and
outputs, so a finished pipeline is replayable and diffable; re-running a
stage with identical config and inputs reproduces its artifacts
byte-for-byte.  A stage exits 0 only after its postcondition checks pass.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import __version__
from . import datastore as ds
from . import micromodel as mm
from . import neural as nn
from . import pathgen as pg
from . import pca as pcalib
from . import surrogate as sg

ROOT_ENV_VAR = "RVESURROGATE_ROOT"
DEFAULT_ROOT = "pipeline_out"

STAGE_ORDER = ("gen-paths", "gen-data", "pca-fit", "train", "eval")

# seed-override offsets per stage stream
_SEED_SLOTS = {"paths": 0, "ensemble": 1, "pca": 2, "train": 3, "trial": 4}

_ALLOWED_KEYS = {
    "paths": {
        "n_random", "n_cyclic", "delta_r", "delta_r_min", "r_max", "max_steps",
        "seed", "cyclic_reversals_min", "cyclic_reversals_max",
        "cyclic_amplitude_max", "cyclic_step_size",
    },
    "ensemble": {"d_gamma", "n_fiber", "perturbation", "seed"},
    "dataset": {"lengths", "gamma_crit", "batch_size"},
    "pca": {"family", "p", "delta", "subsample_fraction", "seed"},
    "train": {
        "kind", "nnw_in", "n_h", "nnw_out", "q", "trained_group_count",
        "n_batches", "n_epoch", "learning_rate", "weight_decay", "clip_norm",
        "seed",
    },
    "trial": {
        "target_p", "start_n_h", "increment", "epoch_budget", "max_trials",
        "threshold", "nnw_in", "nnw_out", "learning_rate", "seed",
    },
    "eval": {"snapshot_steps", "snapshot_sequences"},
}

_REQUIRED_SECTIONS = ("paths", "ensemble", "dataset", "pca", "train")


class StageError(RuntimeError):
    """Configuration or dependency problem; carries an actionable message."""


# ---------------------------------------------------------------------------
# config handling


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise StageError(f"config file not found: {path}")
    cfg = ds.read_json(path)
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    """Reject unknown keys and violated invariants before any compute."""
    unknown_sections = set(cfg) - set(_ALLOWED_KEYS)
    if unknown_sections:
        raise StageError(f"unknown config sections: {sorted(unknown_sections)}")
    for section, keys in _ALLOWED_KEYS.items():
        extra = set(cfg.get(section, {})) - keys
        if extra:
            raise StageError(f"unknown keys in [{section}]: {sorted(extra)}")
    missing = [s for s in _REQUIRED_SECTIONS if s not in cfg]
    if missing:
        raise StageError(f"missing config sections: {missing}")
    p = cfg["paths"]
    pg.RandomWalkConfig(
        delta_r=p["delta_r"], delta_r_min=p["delta_r_min"], r_max=p["r_max"],
        max_steps=p["max_steps"], seed=0,
    )
    if p["n_random"] < 1:
        raise StageError("paths.n_random must be >= 1")
    e = cfg["ensemble"]
    if not 0.0 <= e["perturbation"] < 1.0:
        raise StageError("ensemble.perturbation must lie in [0, 1)")
    if e["d_gamma"] < 1 or e["n_fiber"] < 0:
        raise StageError("ensemble sizes invalid")
    d = cfg["dataset"]
    if not d["lengths"] or sorted(d["lengths"]) != list(d["lengths"]):
        raise StageError("dataset.lengths must be an ascending non-empty list")
    if d["gamma_crit"] <= 0.0:
        raise StageError("dataset.gamma_crit must be positive")
    t = cfg["train"]
    if t["kind"] not in sg.KINDS:
        raise StageError(f"train.kind must be one of {sg.KINDS}")
    if t["kind"] == sg.KIND_BROKEN_DOWN and cfg["pca"].get("p") is not None:
        if cfg["pca"]["p"] % t.get("q", 1) != 0:
            raise StageError("pca.p must be divisible by train.q for kind III")
    nn.TrainConfig(
        learning_rate=t.get("learning_rate", 1e-3),
        weight_decay=t.get("weight_decay", 0.0),
        clip_norm=t.get("clip_norm", 1.0),
        n_epoch=t.get("n_epoch", 2),
        n_batches=t["n_batches"],
        batch_size=d["batch_size"],
        seed=t.get("seed", 0),
    )


def apply_seed_override(cfg: dict, override: int) -> dict:
    """Replace every stage seed with a stream derived from one master seed."""
    out = {k: dict(v) for k, v in cfg.items()}
    out["paths"]["seed"] = override + _SEED_SLOTS["paths"]
    out["ensemble"]["seed"] = override + _SEED_SLOTS["ensemble"]
    out["pca"]["seed"] = override + _SEED_SLOTS["pca"]
    out["train"]["seed"] = override + _SEED_SLOTS["train"]
    if "trial" in out:
        out["trial"]["seed"] = override + _SEED_SLOTS["trial"]
    return out


def output_root() -> Path:
    return Path(os.environ.get(ROOT_ENV_VAR, DEFAULT_ROOT))


# ---------------------------------------------------------------------------
# provenance


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def hash_tree(directory, pattern="**/*") -> str:
    """Order-independent digest over a directory's data files."""
    directory = Path(directory)
    h = hashlib.sha256()
    for f in sorted(directory.glob(pattern)):
        if f.is_file() and f.name != "manifest.json":
            h.update(f.name.encode())
            h.update(sha256_file(f).encode())
    return "sha256:" + h.hexdigest()


def write_manifest(stage_dir: Path, stage: str, cfg: dict, inputs: dict,
                   notes: dict | None = None) -> None:
    outputs = {
        f.name: sha256_file(f)
        for f in sorted(stage_dir.glob("*"))
        if f.is_file() and f.name != "manifest.json"
    }
    manifest = {
        "stage": stage,
        "version": __version__,
        "rng": pg.RNG_ALGORITHM,
        "config": cfg,
        "inputs": inputs,
        "outputs": outputs,
    }
    if notes:
        manifest["notes"] = notes
    ds.write_json(stage_dir / "manifest.json", manifest)


def require_artifact(path: Path, producing_stage: str) -> Path:
    if not path.exists():
        raise StageError(
            f"missing upstream artifact {path}; run the `{producing_stage}` "
            "stage first"
        )
    return path


# ---------------------------------------------------------------------------
# stage: gen-paths


def stage_gen_paths(cfg: dict, root: Path) -> None:
    p = cfg["paths"]
    walk_base = p["seed"]
    blocks = []
    kinds = []
    for i in range(p["n_random"]):
        walk_cfg = pg.RandomWalkConfig(
            delta_r=p["delta_r"], delta_r_min=p["delta_r_min"],
            r_max=p["r_max"], max_steps=p["max_steps"], seed=(walk_base, i),
        )
        path = pg.generate_random_path(walk_cfg)
        blocks.append(path.stretches)
        kinds.append(path.kind)
    rev_lo = p.get("cyclic_reversals_min", 2)
    rev_hi = p.get("cyclic_reversals_max", 6)
    amp = p.get("cyclic_amplitude_max", p["r_max"])
    step = p.get("cyclic_step_size", p["delta_r"])
    for i in range(p.get("n_cyclic", 0)):
        rev_rng = pg.make_rng((walk_base, i, 1))
        n_rev = int(rev_rng.integers(rev_lo, rev_hi + 1))
        path = pg.generate_cyclic_path(
            seed=(walk_base, i, 2), n_reversals=n_rev,
            amplitude_max=amp, step_size=step,
        )
        blocks.append(path.stretches)
        kinds.append(path.kind)

    stage_dir = root / "paths"
    stage_dir.mkdir(parents=True, exist_ok=True)
    ds.write_pathset(stage_dir / "paths.bin", blocks, kinds)
    write_manifest(
        stage_dir, "gen-paths", cfg, inputs={},
        notes={
            "termination": "random walks stop once any stretch eigenvalue "
                           "deviates from 1 by more than r_max (deviation "
                           "reading of the critical radius)",
            "steps": {"min": min(len(b) for b in blocks),
                      "max": max(len(b) for b in blocks)},
        },
    )
    # postcondition check: increments bounded, strains reload bit-exactly
    reread, _ = ds.read_pathset(stage_dir / "paths.bin")
    for u, kind in zip(reread[: p["n_random"]], kinds):
        lp = pg.LoadingPath(u, kind)
        norms = pg.increment_eigen_norms(lp)
        if np.any(norms > p["delta_r"] + 1e-12) or np.any(norms <= p["delta_r_min"]):
            raise StageError("gen-paths postcondition failed: increment bounds")


# ---------------------------------------------------------------------------
# stage: gen-data

_WORKER = {}


def _init_worker(ensemble, blocks, kinds):
    _WORKER["ensemble"] = ensemble
    _WORKER["blocks"] = blocks
    _WORKER["kinds"] = kinds


def _run_one_path(index: int) -> ds.SequenceRecord:
    path = pg.LoadingPath(_WORKER["blocks"][index], _WORKER["kinds"][index])
    fields = mm.run_sequence(path, _WORKER["ensemble"])
    kept = len(fields)
    return ds.SequenceRecord(
        inputs=path.strain_features()[:kept],
        outputs_gamma=fields.gamma,
        outputs_tau=fields.tau,
        truncated=fields.truncated,
    )


def stage_gen_data(cfg: dict, root: Path, jobs: int = 1) -> None:
    paths_file = require_artifact(root / "paths" / "paths.bin", "gen-paths")
    blocks, kinds = ds.read_pathset(paths_file)
    e = cfg["ensemble"]
    ensemble = mm.build_ensemble(
        d_gamma=e["d_gamma"], n_fiber=e["n_fiber"],
        perturbation_amplitude=e["perturbation"], seed=e["seed"],
    )
    _init_worker(ensemble, blocks, kinds)
    if jobs > 1:
        with get_context("fork").Pool(
            jobs, initializer=_init_worker, initargs=(ensemble, blocks, kinds)
        ) as pool:
            records = pool.map(_run_one_path, range(len(blocks)), chunksize=4)
    else:
        records = [_run_one_path(i) for i in range(len(blocks))]

    stage_dir = root / "dataset"
    stage_dir.mkdir(parents=True, exist_ok=True)
    ds.write_dataset(stage_dir, records)
    packed = _pack(cfg, records)
    specs = {
        "inputs": ds.fit_normalization(
            [r.inputs for r in packed.all_records()]
        ),
        "gamma": ds.fit_normalization(
            [r.outputs_gamma for r in packed.all_records()]
        ),
        "tau": ds.fit_normalization(
            [r.outputs_tau for r in packed.all_records()]
        ),
    }
    ds.write_normspecs(stage_dir / "normspec.json", specs)
    write_manifest(
        stage_dir, "gen-data", cfg,
        inputs={"paths/paths.bin": sha256_file(paths_file)},
        notes={
            "materials": {
                "fiber_gpa": [ensemble.fiber.k, ensemble.fiber.mu],
                "matrix_gpa_mpa": [ensemble.matrix.k, ensemble.matrix.mu,
                                   ensemble.matrix.tau_y0,
                                   ensemble.matrix.y_hard,
                                   ensemble.matrix.k_hard],
            },
            "field_convention": "one constitutive point per field entry "
                                "(stand-in for element-averaged values)",
            "truncated_sequences": int(sum(r.truncated for r in records)),
        },
    )
    # postcondition: per-point monotonicity of the accumulated plastic strain
    for rec in records[:: max(1, len(records) // 16)]:
        if np.any(np.diff(rec.outputs_gamma, axis=0) < -1e-12):
            raise StageError("gen-data postcondition failed: gamma monotonicity")


def _pack(cfg: dict, records) -> ds.PackedDataset:
    d = cfg["dataset"]
    return ds.pack_records(records, lengths=d["lengths"],
                           gamma_crit=d["gamma_crit"])


def _load_packed(cfg: dict, root: Path) -> ds.PackedDataset:
    require_artifact(root / "dataset" / "records", "gen-data")
    return _pack(cfg, ds.read_dataset(root / "dataset"))


# ---------------------------------------------------------------------------
# stage: pca-fit


def stage_pca_fit(cfg: dict, root: Path) -> None:
    packed = _load_packed(cfg, root)
    p = cfg["pca"]
    family = p.get("family", ds.FAMILY_GAMMA)
    snaps = np.concatenate(
        [r.outputs(family) for r in packed.all_records()], axis=0
    )
    model = pcalib.fit(
        snaps,
        subsample_fraction=p.get("subsample_fraction", 1.0),
        p=p.get("p"),
        delta=p.get("delta"),
        seed=p.get("seed", 0),
    )
    stage_dir = root / "pca"
    stage_dir.mkdir(parents=True, exist_ok=True)
    pcalib.save(stage_dir / f"pca_{family}.bin", model)
    pcalib.residual_curve_csv(stage_dir / f"residual_{family}.csv", model)
    write_manifest(
        stage_dir, "pca-fit", cfg,
        inputs={"dataset/records": hash_tree(root / "dataset" / "records")},
        notes={"snapshots_used": int(snaps.shape[0]),
               "retained_p": model.retained_p},
    )
    gram = model.components.T @ model.components
    if np.linalg.norm(gram - np.eye(model.retained_p)) > 1e-10:
        raise StageError("pca-fit postcondition failed: orthonormality")


# ---------------------------------------------------------------------------
# stage: train


def _train_setup(cfg: dict, root: Path):
    packed = _load_packed(cfg, root)
    t = cfg["train"]
    family = cfg["pca"].get("family", ds.FAMILY_GAMMA)
    kind = t["kind"]
    pca_model = None
    p_retained = None
    if kind != sg.KIND_DIRECT:
        pca_file = require_artifact(root / "pca" / f"pca_{family}.bin", "pca-fit")
        pca_model = pcalib.load(pca_file)
        p_retained = cfg["pca"].get("p", pca_model.retained_p)
        q = t.get("q", 1) if kind == sg.KIND_BROKEN_DOWN else 1
        if t["nnw_out"][-1] * q != p_retained:
            raise StageError(
                f"kind {kind} needs train.nnw_out[-1] * train.q = p, but "
                f"{t['nnw_out'][-1]} * {q} != p = {p_retained} retained by "
                "pca.p / pca.delta; choose pca.p divisible by train.q and "
                "set train.nnw_out[-1] = pca.p / train.q"
            )
    arch = sg.Architecture(nnw_in=t["nnw_in"], n_h=t["n_h"], nnw_out=t["nnw_out"])
    bundle = sg.build_surrogate(
        kind, arch, q=t.get("q", 1),
        trained_group_count=t.get("trained_group_count"),
        pca=pca_model, p=p_retained, family=family, seed=t.get("seed", 0),
    )
    train_cfg = nn.TrainConfig(
        learning_rate=t.get("learning_rate", 1e-3),
        weight_decay=t.get("weight_decay", 0.0),
        clip_norm=t.get("clip_norm", 1.0),
        n_epoch=t.get("n_epoch", 2),
        n_batches=t["n_batches"],
        batch_size=cfg["dataset"]["batch_size"],
        seed=t.get("seed", 0),
    )
    return packed, bundle, train_cfg


def stage_train(cfg: dict, root: Path) -> None:
    packed, bundle, train_cfg = _train_setup(cfg, root)
    history = bundle.train(packed, train_cfg)
    stage_dir = root / "bundle"
    bundle.save(stage_dir)
    with open(stage_dir / "loss_history.csv", "w") as fh:
        headers = ",".join(f"loss_group_{gi:02d}" for gi in bundle.trained_groups)
        fh.write(f"batch,length,{headers}\n" if headers else "batch,length\n")
        for b in range(history.n_batches_run):
            row = ",".join(f"{v:.10e}" for v in history.losses[b])
            fh.write(f"{b},{history.batch_lengths[b]}" + (f",{row}" if row else "") + "\n")
    inputs = {"dataset/records": hash_tree(root / "dataset" / "records")}
    family = cfg["pca"].get("family", ds.FAMILY_GAMMA)
    pca_file = root / "pca" / f"pca_{family}.bin"
    if bundle.reduced:
        inputs[f"pca/pca_{family}.bin"] = sha256_file(pca_file)
    write_manifest(
        stage_dir, "train", cfg, inputs=inputs,
        notes={"surrogate": bundle.describe(),
               "final_loss": history.final_loss(),
               "aborted": history.aborted},
    )
    if history.aborted:
        raise StageError("train postcondition failed: loss diverged")
    probe = bundle.predict_fields(np.zeros((4, 3))).fields
    if not np.all(np.isfinite(probe)):
        raise StageError("train postcondition failed: non-finite predictions")


# ---------------------------------------------------------------------------
# stage: trial


def stage_trial(cfg: dict, root: Path) -> None:
    packed = _load_packed(cfg, root)
    family = cfg["pca"].get("family", ds.FAMILY_GAMMA)
    pca_file = require_artifact(root / "pca" / f"pca_{family}.bin", "pca-fit")
    pca_model = pcalib.load(pca_file)
    t = cfg.get("trial", {})
    report = sg.hidden_size_trial(
        packed, pca_model,
        target_p=t.get("target_p", min(pca_model.retained_p, 10)),
        start_n_h=t.get("start_n_h", 16),
        increment=t.get("increment", 16),
        epoch_budget=t.get("epoch_budget", 200),
        max_trials=t.get("max_trials", 3),
        threshold=t.get("threshold", 0.9),
        family=family,
        nnw_in=tuple(t.get("nnw_in", (3, 70))),
        nnw_out=tuple(t.get("nnw_out", (30,))),
        learning_rate=t.get("learning_rate", 1e-3),
        seed=t.get("seed", 0),
    )
    stage_dir = root / "trial"
    stage_dir.mkdir(parents=True, exist_ok=True)
    ds.write_json(stage_dir / "trial_report.json", report.to_dict())
    write_manifest(
        stage_dir, "trial", cfg,
        inputs={f"pca/pca_{family}.bin": sha256_file(pca_file),
                "dataset/records": hash_tree(root / "dataset" / "records")},
    )


# ---------------------------------------------------------------------------
# stage: eval


def stage_eval(cfg: dict, root: Path) -> None:
    packed = _load_packed(cfg, root)
    bundle_dir = require_artifact(root / "bundle" / sg.BUNDLE_FILE, "train").parent
    bundle = sg.SurrogateBundle.load(bundle_dir)
    report = bundle.evaluate(packed)

    stage_dir = root / "eval"
    stage_dir.mkdir(parents=True, exist_ok=True)
    with open(stage_dir / "report.csv", "w") as fh:
        fh.write("sequence,length,mse\n")
        for i, (length, mse) in enumerate(zip(report.lengths,
                                              report.per_sequence_mse)):
            fh.write(f"{i},{length},{mse:.10e}\n")
    with open(stage_dir / "max_traces.csv", "w") as fh:
        fh.write("sequence,step,max_pred,max_true\n")
        for i, (mp, mt) in enumerate(zip(report.max_pred, report.max_true)):
            for t, (a, b) in enumerate(zip(mp, mt)):
                fh.write(f"{i},{t},{a:.10e},{b:.10e}\n")

    e = cfg.get("eval", {})
    records = list(packed.all_records())
    for seq_idx in e.get("snapshot_sequences", [0]):
        if not 0 <= seq_idx < len(records):
            continue
        rec = records[seq_idx]
        pred = bundle.predict_fields(rec.inputs)
        truth = rec.outputs(bundle.family)
        for step in e.get("snapshot_steps", []):
            if not 0 <= step < rec.length:
                continue
            stem = stage_dir / f"snapshot_seq{seq_idx:03d}_step{step:04d}"
            for tag, fld in (("pred", pred.clamped()[step]),
                             ("true", truth[step])):
                with open(f"{stem}_{tag}.csv", "w") as fh:
                    fh.write("point_index,value\n")
                    for j, v in enumerate(fld):
                        fh.write(f"{j},{v:.10e}\n")

    summary = {
        "mse_full_dim": report.mse_full_dim,
        "pca_floor": report.pca_floor,
        "n_sequences": int(report.per_sequence_mse.shape[0]),
        "surrogate": bundle.describe(),
    }
    ds.write_json(stage_dir / "summary.json", summary)
    write_manifest(
        stage_dir, "eval", cfg,
        inputs={"bundle": hash_tree(bundle_dir),
                "dataset/records": hash_tree(root / "dataset" / "records")},
    )
    if not np.isfinite(report.mse_full_dim):
        raise StageError("eval postcondition failed: non-finite error")


# ---------------------------------------------------------------------------
# dataset utility subcommands


def dataset_stats(directory) -> str:
    records = ds.read_dataset(directory)
    lengths = np.array([r.length for r in records])
    gmax = max(float(r.outputs_gamma.max()) for r in records)
    tmax = max(float(r.outputs_tau.max()) for r in records)
    lines = [
        f"records:            {len(records)}",
        f"steps (min/med/max): {lengths.min()} / {int(np.median(lengths))} / {lengths.max()}",
        f"gamma dim:          {records[0].outputs_gamma.shape[1]}",
        f"tau dim:            {records[0].outputs_tau.shape[1]}",
        f"max gamma:          {gmax:.4f}",
        f"max tau [MPa]:      {tmax:.2f}",
        f"truncated:          {sum(r.truncated for r in records)}",
    ]
    return "\n".join(lines)


def dataset_trim(src, dst, gamma_crit: float) -> int:
    records = ds.read_dataset(src)
    kept = []
    for rec in records:
        trimmed = ds.pre_trim(rec, gamma_crit)
        if trimmed.length > 0:
            kept.append(trimmed)
    ds.write_dataset(dst, kept, manifest={
        "stage": "dataset-trim", "gamma_crit": gamma_crit,
        "source_records": len(records), "kept_records": len(kept),
    })
    return len(kept)


def dataset_pack(src, dst, lengths, gamma_crit: float | None) -> dict:
    records = ds.read_dataset(src)
    packed = ds.pack_records(records, lengths=lengths, gamma_crit=gamma_crit)
    flat = list(packed.all_records())
    ds.write_dataset(dst, flat, manifest={
        "stage": "dataset-pack", "lengths": list(packed.lengths),
        "group_sizes": {str(k): len(v) for k, v in packed.groups.items()},
        "gamma_crit": gamma_crit,
    })
    specs = {
        "inputs": ds.fit_normalization([r.inputs for r in flat]),
        "gamma": ds.fit_normalization([r.outputs_gamma for r in flat]),
        "tau": ds.fit_normalization([r.outputs_tau for r in flat]),
    }
    ds.write_normspecs(Path(dst) / "normspec.json", specs)
    return {k: len(v) for k, v in packed.groups.items()}


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvesurrogate",
        description="surrogate pipeline for micro-structure state-variable "
                    "field recovery",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for stage in STAGE_ORDER + ("trial", "all"):
        sp = sub.add_parser(stage, help=f"run the {stage} stage")
        sp.add_argument("--config", required=True, help="pipeline config JSON")
        sp.add_argument("--jobs", type=int, default=1,
                        help="worker processes for data generation")
        sp.add_argument("--seed-override", type=int, default=None,
                        help="replace all stage seeds with derived streams")

    dp = sub.add_parser("dataset", help="dataset inspection utilities")
    dsub = dp.add_subparsers(dest="dataset_command", required=True)
    st = dsub.add_parser("stats", help="print dataset statistics")
    st.add_argument("directory")
    tr = dsub.add_parser("trim", help="pre-trim records at a critical value")
    tr.add_argument("source")
    tr.add_argument("dest")
    tr.add_argument("--gamma-crit", type=float, required=True)
    pk = dsub.add_parser("pack", help="pad/trim records into length groups")
    pk.add_argument("source")
    pk.add_argument("dest")
    pk.add_argument("--lengths", type=int, nargs="+", required=True)
    pk.add_argument("--gamma-crit", type=float, default=None)
    return parser


def run_stage(stage: str, cfg: dict, root: Path, jobs: int = 1) -> None:
    if stage == "gen-paths":
        stage_gen_paths(cfg, root)
    elif stage == "gen-data":
        stage_gen_data(cfg, root, jobs=jobs)
    elif stage == "pca-fit":
        stage_pca_fit(cfg, root)
    elif stage == "train":
        stage_train(cfg, root)
    elif stage == "trial":
        stage_trial(cfg, root)
    elif stage == "eval":
        stage_eval(cfg, root)
    else:
        raise StageError(f"unknown stage {stage!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "dataset":
            if args.dataset_command == "stats":
                print(dataset_stats(args.directory))
            elif args.dataset_command == "trim":
                kept = dataset_trim(args.source, args.dest, args.gamma_crit)
                print(f"kept {kept} records")
            elif args.dataset_command == "pack":
                sizes = dataset_pack(args.source, args.dest, args.lengths,
                                     args.gamma_crit)
                print("group sizes: " + ", ".join(
                    f"{k}: {v}" for k, v in sorted(sizes.items())))
            return 0

        cfg = load_config(args.config)
        if args.seed_override is not None:
            cfg = apply_seed_override(cfg, args.seed_override)
        root = output_root()
        stages = STAGE_ORDER if args.command == "all" else (args.command,)
        for stage in stages:
            run_stage(stage, cfg, root, jobs=args.jobs)
            print(f"[{stage}] done -> {root}")
        return 0
    except StageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
