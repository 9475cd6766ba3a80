"""Pipeline command-line interface.

Stages (``gen-paths``, ``gen-data``, ``pca-fit``, ``train``, ``trial``,
``eval``; ``all`` chains gen-paths through eval) read one JSON config and
write their artifacts under the output root (env var ``RVESURROGATE_ROOT``,
default ``./pipeline_out``).  The config is resolved before a stage runs:
``datastore.check_json`` checks it against one typed table, ``_SCHEMA``,
and gives each key it leaves out its default there.  A stage reads each of
its inputs once, through ``_Inputs.read``, which hashes each file once and
rejects one whose hash differs from the one its producer's manifest lists,
or whose producer ran with other values of the config keys its outputs
depend on.
Its manifest carries the resolved config (the values in effect, seeds
included), SHA-256 hashes of its outputs and, as ``inputs``, the hashes of
exactly what it read, so a finished pipeline is replayable and diffable;
re-running a stage with identical config and inputs reproduces its
artifacts byte-for-byte.  A stage replaces its previous outputs: after
reading its inputs it empties its directory.  A stage exits 0 only after
its postcondition checks pass.
The surrogate's output width is stated once: kind I predicts the whole
field of ``pca.family``, and kinds II and III predict
``pca.p = train.nnw_out[-1] * train.q`` PCA coefficients, which a null
``pca.p`` takes; ``validate_config`` checks the rule before any compute.
``trial`` picks the hidden size of the surrogate that ``train`` builds,
with the ``train`` section's architecture, optimizer and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import os
import re
import shutil
import sys
from dataclasses import dataclass, field, replace
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
_SEED_SLOTS = {"paths": 0, "ensemble": 1, "pca": 2, "train": 3}

def _defaults_of(fn, **types) -> dict:
    """Table entries of keys that go straight to ``fn``, each of its JSON
    type and at the default of ``fn``'s parameter of that name."""
    params = inspect.signature(fn).parameters
    return {key: (kind, params[key].default) for key, kind in types.items()}


# every allowed key, per section: the JSON types its value may take and its
# default
_SECTIONS = {
    "paths": {
        **ds.required(n_random="int", delta_r="real", delta_r_min="real",
                      r_max="real", max_steps="int", seed="int"),
        "n_cyclic": ("int", 0),
    },
    "ensemble": ds.required(d_gamma="int", n_fiber="int",
                            perturbation="real", seed="int"),
    "dataset": ds.required(lengths="list of int", gamma_crit="real",
                           batch_size="int"),
    # a null p is the width the train section predicts, resolved by
    # _check_width
    "pca": {"family": ("str", ds.FAMILY_GAMMA), "p": ("int|null", None),
            **_defaults_of(pcalib.fit, subsample_fraction="real",
                           seed="int")},
    "train": {
        **ds.required(kind="str", nnw_in="list of int", n_h="int",
                      nnw_out="list of int", n_batches="int"),
        **_defaults_of(sg.SurrogateBundle, q="int"),
        **_defaults_of(nn.TrainConfig, n_epoch="int", learning_rate="real",
                       clip_norm="real", seed="int"),
    },
    # the trial sizes the train section's surrogate; a null target_p is
    # resolved from the basis by hidden_size_trial
    "trial": _defaults_of(
        sg.hidden_size_trial, target_p="int|null", start_n_h="int",
        increment="int", epoch_budget="int", max_trials="int", threshold="real"),
    "eval": {"snapshot_steps": ("list of int", ()),
             "snapshot_sequences": ("list of int", (0,))},
}
# the config: each section a JSON object, every one of its keys optional
_SCHEMA = {section: (keys, {}) for section, keys in _SECTIONS.items()}

# constructor field -> config section of the key of the same name
_WALK_FIELDS = dict.fromkeys(("delta_r", "delta_r_min", "r_max", "max_steps"),
                             "paths")
_ARCH_FIELDS = dict.fromkeys(("nnw_in", "n_h", "nnw_out"), "train")
# width of the surrogates' input, pg.LoadingPath.strain_features
_STRAIN_FEATURES = 3
_TRAIN_FIELDS = {
    **dict.fromkeys(("learning_rate", "clip_norm", "n_epoch", "n_batches",
                     "seed"), "train"),
    "batch_size": "dataset",
}


class StageError(RuntimeError):
    """Configuration or dependency problem; carries an actionable message."""


# ---------------------------------------------------------------------------
# config handling


def load_config(path) -> dict:
    try:
        cfg = ds.read_json(path)
    except FileNotFoundError:
        raise StageError(f"config file not found: {path}") from None
    except ValueError as err:
        raise StageError(str(err)) from None
    return validate_config(cfg, source=path)


def validate_config(cfg: dict, source=None) -> dict:
    """``cfg`` resolved by ``datastore.check_json``: every section of
    ``_SCHEMA``, every missing key at its default, and a null ``pca.p`` at
    the surrogate's width (``_check_width``).  Unknown keys and
    violated invariants are rejected before any compute; a fault of a key
    names ``source``, the config file, when given."""
    try:
        cfg = ds.check_json(cfg, _SCHEMA, source)
    except ValueError as err:
        raise StageError(str(err)) from None
    for section in _SEED_SLOTS:
        if cfg[section]["seed"] < 0:
            raise StageError(f"{section}.seed must be >= 0, got "
                             f"{cfg[section]['seed']}")
    _from_config(pg.RandomWalkConfig, cfg, _WALK_FIELDS)
    p = cfg["paths"]
    if p["n_random"] < 1:
        raise StageError("paths.n_random must be >= 1")
    if p["n_cyclic"] < 0:
        raise StageError("paths.n_cyclic must be >= 0")
    e = cfg["ensemble"]
    if not 0.0 <= e["perturbation"] < 1.0:
        raise StageError("ensemble.perturbation must lie in [0, 1)")
    if e["d_gamma"] < 1:
        raise StageError("ensemble.d_gamma must be >= 1")
    if e["n_fiber"] < 0:
        raise StageError("ensemble.n_fiber must be >= 0")
    d = cfg["dataset"]
    lengths = d["lengths"]
    if not (lengths and min(lengths) >= 1
            and all(a < b for a, b in zip(lengths, lengths[1:]))):
        raise StageError("dataset.lengths must be a strictly ascending "
                         "non-empty list of positive integers, got "
                         f"{lengths}")
    if d["gamma_crit"] <= 0.0:
        raise StageError("dataset.gamma_crit must be positive")
    if cfg["pca"]["family"] not in ds.FAMILIES:
        raise StageError(f"pca.family must be one of {ds.FAMILIES}")
    if not 0.0 < cfg["pca"]["subsample_fraction"] <= 1.0:
        raise StageError("pca.subsample_fraction must lie in (0, 1]")
    t = cfg["train"]
    if t["kind"] not in sg.KINDS:
        raise StageError(f"train.kind must be one of {sg.KINDS}")
    if t["q"] < 1:
        raise StageError("train.q must be >= 1")
    # kinds I and II have one group whatever train.q says
    if t["kind"] != sg.KIND_BROKEN_DOWN:
        t["q"] = 1
    _from_config(sg.Architecture, cfg, _ARCH_FIELDS)
    _from_config(nn.TrainConfig, cfg, _TRAIN_FIELDS)
    if t["nnw_in"][0] != _STRAIN_FEATURES:
        raise StageError(
            f"train.nnw_in[0] must be {_STRAIN_FEATURES}, the width of the "
            f"strain features (E_xx, E_yy, E_xy), got {t['nnw_in'][0]}")
    _check_width(cfg)
    trial = cfg["trial"]
    for key in ("target_p", "start_n_h", "increment", "epoch_budget",
                "max_trials"):
        if trial[key] is not None and trial[key] < 1:
            raise StageError(f"trial.{key} must be >= 1")
    return cfg


def _check_width(cfg: dict) -> None:
    """The surrogate's output width against the field and ``pca.p``; a
    null ``pca.p`` is resolved to it.

    Kind I predicts the whole field of ``pca.family``, so its
    ``train.nnw_out[-1]`` is the field dimension d.  Kinds II and III
    predict ``pca.p = train.nnw_out[-1] * train.q`` coefficients.  Kind I's
    ``pca.p`` only sizes the basis that ``trial`` reads.
    """
    pca, t, e = cfg["pca"], cfg["train"], cfg["ensemble"]
    family = pca["family"]
    tau = family == ds.FAMILY_TAU
    d = e["d_gamma"] + (e["n_fiber"] if tau else 0)
    if d > pcalib.DEFAULT_DIMENSION_CAP:
        raise StageError(
            f"the {family!r} family's field dimension d = ensemble.d_gamma"
            f"{' + ensemble.n_fiber' if tau else ''} = {d} exceeds pca-fit's "
            f"cap of {pcalib.DEFAULT_DIMENSION_CAP}")
    width = t["nnw_out"][-1] * t["q"]
    if t["kind"] == sg.KIND_DIRECT and width != d:
        raise StageError(
            f"kind I predicts the whole field: train.nnw_out[-1] must be "
            f"d = {d}, the field dimension of the {family!r} family, got "
            f"{width}")
    if pca["p"] is not None and not 1 <= pca["p"] <= d:
        raise StageError(f"pca.p must lie in [1, {d}], the field dimension of "
                         f"the {family!r} family, got {pca['p']}")
    predicts = (f"kind {t['kind']} predicts train.nnw_out[-1] * train.q = "
                f"{t['nnw_out'][-1]} * {t['q']} = {width} PCA coefficients")
    if t["kind"] != sg.KIND_DIRECT and pca["p"] not in (None, width):
        raise StageError(f"{predicts}, but pca.p = {pca['p']}; leave pca.p "
                         f"out or set it to {width}")
    if width > d:
        raise StageError(f"{predicts}, more than the field dimension d = {d} "
                         f"of the {family!r} family")
    if pca["p"] is None:
        pca["p"] = width


def _from_config(cls, cfg: dict, fields: dict):
    """``cls`` built from the config keys named like its ``fields``.

    ``fields`` maps each field to the section of its key.  A ``ValueError``
    of ``cls`` becomes a ``StageError`` naming the ``section.key`` entries
    its message names.
    """
    try:
        return cls(**{name: cfg[section][name]
                      for name, section in fields.items()})
    except ValueError as err:
        keys = [f"{section}.{name}" for name, section in fields.items()
                if re.search(rf"\b{name}\b", str(err))]
        keys = keys or [f"{section}.{name}" for name, section in fields.items()]
        raise StageError(f"invalid {', '.join(keys)}: {err}") from None


def apply_seed_override(cfg: dict, override: int) -> dict:
    """``cfg`` resolved, with every stage seed replaced by a stream derived
    from one master seed, which must be >= 0."""
    if override < 0:
        raise StageError(f"--seed-override must be >= 0, got {override}")
    out = validate_config(cfg)
    for section, slot in _SEED_SLOTS.items():
        out[section]["seed"] = override + slot
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


def _data_files(directory) -> list[Path]:
    """The files below ``directory`` but its manifest, sorted."""
    return [f for f in sorted(Path(directory).glob("**/*"))
            if f.is_file() and f.name != "manifest.json"]


def _tree_digest(file_digests: dict) -> str:
    """``hash_tree``'s digest from the digests of the directory's data
    files, keyed by path in ``_data_files`` order."""
    h = hashlib.sha256()
    for f, digest in file_digests.items():
        h.update(f.name.encode())
        h.update(digest.encode())
    return "sha256:" + h.hexdigest()


def hash_tree(directory) -> str:
    """Order-independent digest over a directory's data files."""
    return _tree_digest({f: sha256_file(f) for f in _data_files(directory)})


def _digest(path: Path) -> str:
    return hash_tree(path) if path.is_dir() else sha256_file(path)


def write_manifest(stage_dir: Path, stage: str, cfg: dict, inputs: dict,
                   notes: dict | None = None) -> None:
    """``stage_dir/manifest.json``: the resolved ``cfg`` the stage ran with,
    every default filled in, the ``inputs`` digests of the artifacts it
    read, named below the root, and the hashes of its outputs."""
    manifest = {
        "stage": stage,
        "version": __version__,
        "rng": pg.RNG_ALGORITHM,
        "config": cfg,
        "inputs": inputs,
        "outputs": {f.name: _digest(f) for f in sorted(stage_dir.glob("*"))
                    if f.name != "manifest.json"},
    }
    if notes:
        manifest["notes"] = notes
    ds.write_json(stage_dir / "manifest.json", manifest)


def _fresh_stage_dir(root: Path, name: str) -> Path:
    """``root / name`` emptied of an earlier run's outputs; a stage calls
    this once it has read its inputs."""
    stage_dir = root / name
    shutil.rmtree(stage_dir, ignore_errors=True)
    stage_dir.mkdir(parents=True)
    return stage_dir


@dataclass
class _Inputs:
    """The artifacts one stage reads below ``root``, for a stage that runs
    with the resolved config ``cfg``, or with none (``None``): ``digests``
    holds the digest of each, read once, as its manifest's ``inputs``."""

    root: Path
    cfg: dict | None
    digests: dict = field(default_factory=dict)

    def read(self, name: str, reader, producer: str):
        """``reader(root / name)``, checked against the hashes and the
        config its producer's manifest lists.

        A missing artifact, or a file of it that ``reader`` misses, is a
        ``StageError`` that asks to run ``producer``; a malformed one, whose
        file the reader's ``ValueError`` names, and then a file whose hash
        differs from the one its producer's manifest lists, are ones that
        ask to re-run it.  So is an artifact that ``producer`` made with
        other values of the config keys its outputs depend on
        (``_check_config``)."""
        path = self.root / name
        try:
            if not path.exists():
                raise FileNotFoundError
            value = reader(path)
            self.digests[name] = _checked_digest(path, self.cfg, producer)
        except FileNotFoundError as err:
            missing = Path(err.filename or path)
            raise StageError(f"no {missing.name} under {missing.parent}; "
                             f"run the `{producer}` stage first") from None
        except ValueError as err:
            raise StageError(f"cannot read {err}; re-run `{producer}` to "
                             "rewrite it") from None
        return value


def _checked_digest(path: Path, cfg: dict | None, producer: str) -> str:
    """``write_manifest``'s digest of the artifact ``path``.

    The producer's manifest is the one in ``path``, a stage directory whose
    files it lists one by one, or else the one beside ``path``.  A file
    whose hash differs from the one listed raises a ``ValueError`` that
    names it; an artifact that no manifest lists is not checked.  Given a
    ``cfg``, the manifest's config must agree with it where the outputs of
    ``producer`` depend on it (``_check_config``).
    """
    manifest = path / "manifest.json"
    if manifest.exists():
        files = {f: sha256_file(f) for f in _data_files(path)}
        digest = _tree_digest(files)
    else:
        digest = _digest(path)
        manifest, files = path.parent / "manifest.json", {path: digest}
    if not manifest.exists():
        return digest
    tables = ds.read_json(manifest)
    listed, ran_with = ((tables.get("outputs"), tables.get("config"))
                        if isinstance(tables, dict) else (None, None))
    for key, table in (("outputs", listed), ("config", ran_with)):
        if not isinstance(table, dict):
            raise ValueError(f"{manifest}: no {key} table")
    for f, file_digest in files.items():
        if listed.get(f.name, file_digest) != file_digest:
            raise ValueError(f"{f}: its hash differs from the one {manifest} "
                             "lists")
    if cfg is not None:
        _check_config(cfg, ran_with, producer, path)
    return digest


# the stage that first reads each config section, in stage order; a
# stage's outputs depend on the sections of its own and of every stage
# before it
_SECTION_READER = {"paths": "gen-paths", "ensemble": "gen-data",
                   "dataset": "pca-fit", "pca": "pca-fit", "train": "train"}


def _check_config(cfg: dict, ran_with: dict, producer: str,
                  path: Path) -> None:
    """A ``StageError`` unless ``cfg`` and ``ran_with``, the config that
    ``producer`` ran with when it wrote ``path``, hold the same JSON values
    in every section that the producer's outputs depend on.  It names each
    differing key with both values and the stages to re-run."""
    stage = STAGE_ORDER.index
    differ = []
    for section, reader in _SECTION_READER.items():
        if stage(reader) > stage(producer):
            continue
        # a section's values are scalars and lists, which JSON stores as
        # lists when they are tuples
        now = {key: list(value) if isinstance(value, tuple) else value
               for key, value in cfg[section].items()}
        then = ran_with.get(section)
        then = then if isinstance(then, dict) else {}
        for key in sorted(now.keys() | then.keys()):
            # a key that one side lacks reads None there
            a, b = now.get(key), then.get(key)
            if a != b:
                differ.append((reader, f"{section}.{key} = {a!r} in this "
                                       f"config, {b!r} in that run"))
    if differ:
        first = differ[0][0]
        rerun = f"`{first}`" + (f" through `{producer}`"
                                if first != producer else "")
        raise StageError(
            f"{path} was made by `{producer}` under another config: "
            f"{'; '.join(text for _, text in differ)}; re-run {rerun}")


def _records(path: Path) -> list[ds.SequenceRecord]:
    """The records of ``path``, the ``records`` directory of a dataset."""
    return ds.read_dataset(path.parent)


def _pca_basis(cfg: dict) -> str:
    """Where ``pca-fit`` writes the basis of ``pca.family``, below the root."""
    return f"pca/pca_{cfg['pca']['family']}.bin"


# ---------------------------------------------------------------------------
# stage: gen-paths

# fewest and most load reversals of a cyclic path, drawn uniformly; its
# amplitudes stay within paths.r_max, in steps of paths.delta_r
_CYCLIC_REVERSALS = (2, 6)


def stage_gen_paths(cfg: dict, root: Path) -> None:
    p = cfg["paths"]
    walk = _from_config(pg.RandomWalkConfig, cfg, _WALK_FIELDS)
    paths = [pg.generate_random_path(replace(walk, seed=(p["seed"], i)))
             for i in range(p["n_random"])]
    for i in range(p["n_cyclic"]):
        rev_rng = pg.make_rng((p["seed"], i, 1))
        n_rev = int(rev_rng.integers(_CYCLIC_REVERSALS[0],
                                     _CYCLIC_REVERSALS[1] + 1))
        paths.append(pg.generate_cyclic_path(
            seed=(p["seed"], i, 2), n_reversals=n_rev,
            amplitude_max=p["r_max"], step_size=p["delta_r"]))

    stage_dir = _fresh_stage_dir(root, "paths")
    ds.write_pathset(stage_dir / "paths.bin", paths)
    write_manifest(
        stage_dir, "gen-paths", cfg, inputs={},
        notes={
            "termination": "random walks stop once any stretch eigenvalue "
                           "deviates from 1 by more than r_max (deviation "
                           "reading of the critical radius)",
            "steps": {"min": min(len(lp) for lp in paths),
                      "max": max(len(lp) for lp in paths)},
        },
    )
    # postcondition check: the re-read walks' increments are bounded
    for lp in ds.read_pathset(stage_dir / "paths.bin")[: p["n_random"]]:
        norms = pg.increment_eigen_norms(lp)
        if np.any(norms > p["delta_r"] + 1e-12) or np.any(norms <= p["delta_r_min"]):
            raise StageError("gen-paths postcondition failed: increment bounds")


# ---------------------------------------------------------------------------
# stage: gen-data

# what every gen-data worker reads; filled before the pool forks, then emptied
_WORKER = {}

# paths per lockstep batch of gen-data: a constant, so the batches do not
# depend on --jobs, and it bounds a batch's working set; the kernel cost
# per point-step barely falls past 16 paths
_LOCKSTEP_WIDTH = 16


def _run_paths(indices) -> tuple[list[ds.SequenceRecord], int, int]:
    """Records of the paths at ``indices``, stepped in lockstep, and the
    numbers of their macro steps that needed sub-stepping and that
    renormalized a plastic deformation gradient."""
    paths = [_WORKER["paths"][i] for i in indices]
    fields = mm.run_sequences(paths, _WORKER["ensemble"])
    records = [
        ds.SequenceRecord(
            inputs=path.strain_features()[:len(f)],
            outputs_gamma=f.gamma,
            outputs_tau=f.tau,
            truncated=f.truncated,
        )
        for path, f in zip(paths, fields)
    ]
    return (records, sum(f.substepped_steps for f in fields),
            sum(f.renormalized_steps for f in fields))


def stage_gen_data(cfg: dict, root: Path, jobs: int = 1) -> None:
    inputs = _Inputs(root, cfg)
    paths = inputs.read("paths/paths.bin", ds.read_pathset, "gen-paths")
    e = cfg["ensemble"]
    ensemble = mm.build_ensemble(
        d_gamma=e["d_gamma"], n_fiber=e["n_fiber"],
        perturbation_amplitude=e["perturbation"], seed=e["seed"],
    )
    n = len(paths)
    batches = [range(i, min(i + _LOCKSTEP_WIDTH, n))
               for i in range(0, n, _LOCKSTEP_WIDTH)]
    workers = min(jobs, len(batches))
    _WORKER.update(ensemble=ensemble, paths=paths)
    try:
        if workers > 1:
            with get_context("fork").Pool(workers) as pool:
                results = pool.map(_run_paths, batches, chunksize=1)
        else:
            results = [_run_paths(batch) for batch in batches]
    finally:
        _WORKER.clear()
    records = [rec for batch_records, _, _ in results for rec in batch_records]

    stage_dir = _fresh_stage_dir(root, "dataset")
    ds.write_dataset(stage_dir, records)
    write_manifest(
        stage_dir, "gen-data", cfg, inputs.digests,
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
            "substepped_steps": int(sum(count for _, count, _ in results)),
            "renormalized_steps": int(sum(count for _, _, count in results)),
        },
    )
    # postcondition: per-point monotonicity of the accumulated plastic strain
    for rec in records:
        if np.any(np.diff(rec.outputs_gamma, axis=0) < -1e-12):
            raise StageError("gen-data postcondition failed: gamma monotonicity")


def _pack(cfg: dict, records, what: str = "the dataset") -> ds.PackedDataset:
    d = cfg["dataset"]
    try:
        return ds.pack_records(records, lengths=d["lengths"],
                               gamma_crit=d["gamma_crit"])
    except ValueError as err:
        raise StageError(
            f"{what} packs empty ({err}); generate more paths "
            "(paths.n_random) or raise dataset.gamma_crit"
        ) from None


# ---------------------------------------------------------------------------
# stage: pca-fit


def stage_pca_fit(cfg: dict, root: Path) -> None:
    p = cfg["pca"]
    inputs = _Inputs(root, cfg)
    packed = _pack(cfg, inputs.read("dataset/records", _records, "gen-data"))
    family = p["family"]
    snaps = np.concatenate(
        [r.outputs(family) for r in packed.all_records()], axis=0
    )
    try:
        model = pcalib.fit(snaps, p["p"],
                           subsample_fraction=p["subsample_fraction"],
                           seed=p["seed"])
    except ValueError as err:
        raise StageError(
            f"pca-fit: {err}; generate more paths (paths.n_random), pack "
            "longer sequences (dataset.lengths) or raise "
            "pca.subsample_fraction") from None
    stage_dir = _fresh_stage_dir(root, "pca")
    pcalib.save(root / _pca_basis(cfg), model)
    ds.write_csv(stage_dir / f"residual_{family}.csv",
                 ["p", "residual_fraction"],
                 [(k, pcalib.residual_fraction(model, k))
                  for k in range(model.d + 1)], digits=16)
    write_manifest(
        stage_dir, "pca-fit", cfg, inputs.digests,
        notes={"snapshots_used": int(snaps.shape[0]),
               "retained_p": model.retained_p},
    )
    gram = model.components.T @ model.components
    if np.linalg.norm(gram - np.eye(model.retained_p)) > 1e-10:
        raise StageError("pca-fit postcondition failed: orthonormality")


# ---------------------------------------------------------------------------
# stage: train


def stage_train(cfg: dict, root: Path) -> None:
    inputs = _Inputs(root, cfg)
    packed = _pack(cfg, inputs.read("dataset/records", _records, "gen-data"))
    t = cfg["train"]
    kind = t["kind"]
    pca_model = None
    if kind != sg.KIND_DIRECT:
        pca_model = inputs.read(_pca_basis(cfg), pcalib.load, "pca-fit")
    arch = _from_config(sg.Architecture, cfg, _ARCH_FIELDS)
    try:
        bundle = sg.SurrogateBundle(kind, arch, q=t["q"], pca=pca_model,
                                    family=cfg["pca"]["family"],
                                    seed=t["seed"])
    except ValueError as err:
        # the validated config leaves only a basis narrower than pca.p,
        # which a basis without a manifest can be
        raise StageError(f"{root / _pca_basis(cfg)}: {err}; re-run `pca-fit` "
                         f"with pca.p = {cfg['pca']['p']}") from None
    history = bundle.train(packed,
                           _from_config(nn.TrainConfig, cfg, _TRAIN_FIELDS))
    stage_dir = _fresh_stage_dir(root, "bundle")
    # a diverged bundle keeps only its loss history and manifest, so that
    # eval cannot score it
    if not history.aborted:
        bundle.save(stage_dir)
    ds.write_csv(stage_dir / "loss_history.csv",
                 ["batch", "length",
                  *(f"loss_group_{gi:02d}" for gi in range(bundle.q))],
                 ([b, length, *losses] for b, (length, losses) in
                  enumerate(zip(history.batch_lengths, history.losses))))
    write_manifest(
        stage_dir, "train", cfg, inputs.digests,
        notes={"surrogate": bundle.describe(),
               "final_loss": history.final_loss(),
               "aborted": history.aborted,
               "gradients": [
                   {"group": gi, "clipped_steps": int(n_clipped),
                    "max_norm": float(norm)}
                   for gi, (n_clipped, norm) in enumerate(
                       zip(history.clipped_steps, history.max_grad_norm))]},
    )
    if history.aborted:
        where = ", ".join(f"group {gi} at batch {b}" for gi, b in history.aborted)
        raise StageError(
            f"train postcondition failed: loss diverged in {where}, each "
            "restored to before that batch; lower train.learning_rate"
        )
    probe = bundle.predict(np.zeros((1, 4, _STRAIN_FEATURES)))
    if not np.all(np.isfinite(probe)):
        raise StageError("train postcondition failed: non-finite predictions")


# ---------------------------------------------------------------------------
# stage: trial

# share of the paths the hidden-size trial holds out for its score
_TRIAL_HOLDOUT = 0.2


def _split_paths(n: int, seed: int) -> tuple[list[int], list[int]]:
    """Train and held-out record indices, each ascending.

    A seeded ``_TRIAL_HOLDOUT`` share of the paths, at least one and at most
    all but one, is held out whole, before packing copies a path into
    several length groups.
    """
    if n < 2:
        raise StageError(
            f"the trial holds out whole paths and needs at least 2 records, "
            f"got {n}; generate more paths (paths.n_random)"
        )
    n_val = min(n - 1, max(1, round(_TRIAL_HOLDOUT * n)))
    rng = pg.make_rng([seed, 1])
    held_out = np.zeros(n, dtype=bool)
    held_out[rng.permutation(n)[:n_val]] = True
    return np.flatnonzero(~held_out).tolist(), np.flatnonzero(held_out).tolist()


def stage_trial(cfg: dict, root: Path) -> None:
    inputs = _Inputs(root, cfg)
    records = inputs.read("dataset/records", _records, "gen-data")
    pca_model = inputs.read(_pca_basis(cfg), pcalib.load, "pca-fit")
    t = cfg["trial"]
    if t["target_p"] is not None and t["target_p"] > pca_model.retained_p:
        raise StageError(
            f"trial.target_p = {t['target_p']} exceeds the "
            f"{pca_model.retained_p} components that pca-fit retained"
        )
    config = _from_config(nn.TrainConfig, cfg, _TRAIN_FIELDS)
    train_idx, val_idx = _split_paths(len(records), config.seed)
    train_set = _pack(cfg, [records[i] for i in train_idx],
                      "the trial's training side")
    val_set = _pack(cfg, [records[i] for i in val_idx],
                    "the trial's validation side")
    # the trial section's keys are hidden_size_trial's parameters
    report = sg.hidden_size_trial(
        train_set, val_set, pca_model,
        _from_config(sg.Architecture, cfg, _ARCH_FIELDS), config,
        family=cfg["pca"]["family"], **t)
    stage_dir = _fresh_stage_dir(root, "trial")
    ds.write_json(stage_dir / "trial_report.json", report)
    write_manifest(stage_dir, "trial", cfg, inputs.digests)


# ---------------------------------------------------------------------------
# stage: eval


def stage_eval(cfg: dict, root: Path) -> None:
    inputs = _Inputs(root, cfg)
    packed = _pack(cfg, inputs.read("dataset/records", _records, "gen-data"))
    e = cfg["eval"]
    records = list(packed.all_records())
    for seq_idx in e["snapshot_sequences"]:
        if not 0 <= seq_idx < len(records):
            raise StageError(
                f"eval.snapshot_sequences holds {seq_idx}, outside the valid "
                f"range 0..{len(records) - 1} of the {len(records)} packed "
                "sequences"
            )
        length = records[seq_idx].length
        for step in e["snapshot_steps"]:
            if not 0 <= step < length:
                raise StageError(
                    f"eval.snapshot_steps holds {step}, outside the valid "
                    f"range 0..{length - 1} of packed sequence {seq_idx}, "
                    f"which has {length} steps"
                )

    def load(bundle_dir: Path) -> sg.SurrogateBundle:
        """The bundle in ``bundle_dir``, if it reads the records' widths."""
        bundle = sg.SurrogateBundle.load(bundle_dir)
        for entry, width, found in (
                ("arch.nnw_in[0]", bundle.arch.nnw_in[0],
                 {r.inputs.shape[1] for r in records}),
                (f"family {bundle.family!r}", bundle.field_dim,
                 {r.outputs(bundle.family).shape[1] for r in records})):
            if found != {width}:
                raise ValueError(
                    f"{bundle_dir / sg.BUNDLE_FILE}: {entry} reads {width} "
                    "values per step, but the records under "
                    f"{root / 'dataset' / 'records'} hold "
                    f"{', '.join(map(str, sorted(found)))}")
        return bundle

    bundle = inputs.read("bundle", load, "train")
    report = bundle.evaluate(packed)
    stage_dir = _fresh_stage_dir(root, "eval")
    ds.write_csv(stage_dir / "report.csv", ["sequence", "length", "mse"],
                 zip(range(len(report.lengths)), report.lengths,
                     report.per_sequence_mse))
    ds.write_csv(stage_dir / "max_traces.csv",
                 ["sequence", "step", "max_pred", "max_true"],
                 ((i, t, a, b) for i, (mp, mt) in
                  enumerate(zip(report.max_pred, report.max_true))
                  for t, (a, b) in enumerate(zip(mp, mt))))

    # a sequence is replayed only when it has steps to write
    for seq_idx in e["snapshot_sequences"] if e["snapshot_steps"] else ():
        rec = records[seq_idx]
        pred = np.maximum(bundle.predict(rec.inputs[None])[0], 0.0)
        for step in e["snapshot_steps"]:
            stem = stage_dir / f"snapshot_seq{seq_idx:03d}_step{step:04d}"
            for tag, fld in (("pred", pred[step]),
                             ("true", rec.outputs(bundle.family)[step])):
                ds.write_csv(f"{stem}_{tag}.csv", ["point_index", "value"],
                             enumerate(fld))

    summary = {
        "mse_full_dim": report.mse_full_dim,
        "pca_floor": report.pca_floor,
        "n_sequences": int(report.per_sequence_mse.shape[0]),
        "surrogate": bundle.describe(),
    }
    ds.write_json(stage_dir / "summary.json", summary)
    write_manifest(stage_dir, "eval", cfg, inputs.digests)
    if not np.isfinite(report.mse_full_dim):
        raise StageError("eval postcondition failed: non-finite error")


# ---------------------------------------------------------------------------
# dataset utility subcommands


def dataset_stats(directory) -> str:
    # no config: the records are not checked against one
    records = _Inputs(Path(directory), None).read("records", _records,
                                                  "gen-data")
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
    return parser


_STAGES = {"gen-paths": stage_gen_paths, "gen-data": stage_gen_data,
           "pca-fit": stage_pca_fit, "train": stage_train,
           "trial": stage_trial, "eval": stage_eval}


def run_stage(stage: str, cfg: dict, root: Path, jobs: int = 1) -> None:
    """Run ``stage`` on ``cfg`` resolved by ``validate_config``."""
    if jobs < 1:
        raise StageError(f"--jobs must be >= 1, got {jobs}")
    cfg = validate_config(cfg)
    if stage not in _STAGES:
        raise StageError(f"unknown stage {stage!r}")
    # only gen-data runs worker processes
    _STAGES[stage](cfg, root, **({"jobs": jobs} if stage == "gen-data" else {}))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "dataset":
            print(dataset_stats(args.directory))
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
