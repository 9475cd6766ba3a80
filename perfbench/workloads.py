"""The benchmark's three workloads: ``datagen``, ``train`` and ``query``.

Each workload pays one of the three costs a user of the surrogate pipeline
pays: generating the RVE dataset, training the surrogate, and querying it at
every macro increment of an FE2 computation.  Every workload is closed-loop
in a single process (``--jobs 1``): the next call is made only when the
previous one has returned.  Each repetition of a run repeats the same
seeded inputs, so counters are exact per repetition and differences between
repetitions are measurement noise.

The package is driven only through its public functions: ``cli.run_stage``,
``SurrogateBundle.load``/``predict_fields`` and the ``pathgen`` generators.
"""

from __future__ import annotations

import json
import shutil
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from rvesurrogate import cli
from rvesurrogate import datastore as ds
from rvesurrogate import pathgen as pg
from rvesurrogate import surrogate as sg

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Paths use the package's default increments (RandomWalkConfig: eigen-norm
# steps in (5e-4, 5e-3], r_max 0.1; gen-paths' cyclic defaults: 2-6
# reversals of amplitude up to r_max in steps of delta_r), as the ROADMAP
# baseline does.  Only the path counts and max_steps differ: a baseline
# walk runs until r_max (370-3000 steps), far too long and too
# seed-dependent for one repetition, so walks stop at max_steps, which
# they reach before r_max for nearly every seed.
WALK = pg.RandomWalkConfig()
PERTURBATION = 0.3
# slot of the held-out query paths; cli.apply_seed_override uses slots 0-4
HELD_OUT_SLOT = 7
SEED_STRIDE = 10

QUERY_RTOL = 1e-12


@dataclass(frozen=True)
class Ensemble:
    """An ensemble plus the loading paths it is driven along."""

    d_gamma: int
    n_fiber: int
    n_random: int
    n_cyclic: int
    max_steps: int

    @property
    def n_points(self) -> int:
        return self.d_gamma + self.n_fiber


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one benchmark run."""

    # datagen: the ROADMAP baseline ensemble, two 300-step walks and one
    # cyclic path (about 670 macro steps)
    datagen: Ensemble = Ensemble(400, 200, 2, 1, 300)
    # train/query set-up: the dataset the surrogate is trained on
    dataset: Ensemble = Ensemble(100, 50, 10, 4, 40)
    # the surrogate: kind III at paper width
    nnw_in: tuple = (3, 70)
    n_h: int = 400
    nnw_out: tuple = (100, 10)
    q: int = 4
    p: int = 40
    batch_size: int = 8
    n_epoch: int = 2
    train_batches: int = 3
    setup_batches: int = 1
    length: int = 32
    # query: Gauss points, each with its own held-out path of this many
    # increments
    gauss_points: int = 4
    increments: int = 30
    setup_repeats: int = 4


FULL = Sizes()


def pipeline_config(seed: int, ens: Ensemble, sizes: Sizes, n_batches: int) -> dict:
    """Stage config for one ensemble; every stage seed derives from ``seed``."""
    cfg = {
        "paths": {
            "n_random": ens.n_random, "n_cyclic": ens.n_cyclic,
            "delta_r": WALK.delta_r, "delta_r_min": WALK.delta_r_min,
            "r_max": WALK.r_max, "max_steps": ens.max_steps, "seed": 0,
        },
        "ensemble": {"d_gamma": ens.d_gamma, "n_fiber": ens.n_fiber,
                     "perturbation": PERTURBATION, "seed": 0},
        "dataset": {"lengths": [sizes.length], "gamma_crit": 10.0,
                    "batch_size": sizes.batch_size},
        "pca": {"family": ds.FAMILY_GAMMA, "p": sizes.p, "seed": 0},
        "train": {
            "kind": sg.KIND_BROKEN_DOWN, "nnw_in": list(sizes.nnw_in),
            "n_h": sizes.n_h, "nnw_out": list(sizes.nnw_out), "q": sizes.q,
            "n_batches": n_batches, "n_epoch": sizes.n_epoch,
            "learning_rate": 1e-3, "clip_norm": 1.0, "seed": 0,
        },
        "eval": {"snapshot_steps": [], "snapshot_sequences": []},
    }
    cli.validate_config(cfg)
    return cli.apply_seed_override(cfg, SEED_STRIDE * seed)


def held_out_seed(seed: int) -> int:
    return SEED_STRIDE * seed + HELD_OUT_SLOT


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def read_loss_history(bundle_dir: Path) -> np.ndarray:
    rows = (bundle_dir / "loss_history.csv").read_text().splitlines()[1:]
    return np.array([[float(v) for v in row.split(",")[2:]] for row in rows])


def fingerprints(records) -> np.ndarray:
    """Per record: sums of the final-step gamma and tau fields."""
    return np.array([[r.outputs_gamma[-1].sum(), r.outputs_tau[-1].sum()]
                     for r in records])


@dataclass
class Rep:
    """Timings and outcomes of one repetition of the timed section."""

    wall: float = 0.0
    timings: dict = field(default_factory=dict)   # name -> list of seconds
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    check_errors: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def call(self, key: str, fn, *args, **kwargs):
        """Time one operation; a raised exception counts as a failed op."""
        self.attempted += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as err:  # the benchmark records failures and goes on
            self.failed += 1
            self.errors.append(f"{key}: {err!r}")
            traceback.print_exc()
            return None
        finally:
            self.timings.setdefault(key, []).append(perf_counter() - start)


def timing(values) -> dict:
    return {"value": median(values), "unit": "s", "n": len(values)}


def percentile_ms(values, q: float) -> dict:
    return {"value": float(np.percentile(values, q)) * 1e3, "unit": "ms",
            "n": len(values)}


def collect(reps, key) -> list:
    return [t for r in reps for t in r.timings.get(key, [])]


class Workload:
    """Set-up, one timed repetition, and the checks around it."""

    name = ""
    # (span-name prefix of the key layer, span it is measured within; None
    # for the whole repetition), for trace.key_layer_share
    key_layer = ("", None)

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.reference = None  # first repetition's outputs, for determinism

    def setup(self) -> None:
        raise NotImplementedError

    def run_rep(self) -> Rep:
        raise NotImplementedError

    def check_rep(self, rep: Rep) -> list[str]:
        """Correctness of the repetition just run; returns failures."""
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        return []

    def metrics(self, reps, counts: dict) -> tuple[float, float, dict]:
        """``call_p50_ms``, ``rate_per_s`` and the metrics named per workload.

        ``reps`` are the untraced repetitions; ``counts`` the exact counters
        of one repetition.
        """
        raise NotImplementedError

    def build_dataset(self, root: Path) -> dict:
        """gen-paths and gen-data on the small set-up ensemble."""
        cfg = pipeline_config(self.seed, self.sizes.dataset, self.sizes,
                              self.sizes.train_batches)
        for stage in ("gen-paths", "gen-data"):
            cli.run_stage(stage, cfg, root, jobs=1)
        return cfg


class Datagen(Workload):
    """gen-paths + gen-data on the ROADMAP baseline ensemble.

    Why: dataset generation is over 90% of pipeline wall time.  Nearly all
    of it is in ``micromodel``/``tensorlab``; there is no ``neural`` or
    ``pca`` work.  Properties: a mix of random-walk and cyclic paths, whose
    reversals unload and reload through the return mapping; the per-step
    mix matches the baseline path configuration (no sub-stepping, about 7%
    of matrix point-steps plastic); no shared prefixes; Q does not apply.
    Set-up builds the small train/query dataset, as their set-up does.
    Run by hand only: on a shared machine this interpreter-bound code
    changes speed with other tenants' load for minutes at a time, more than
    the bounds allow between runs (README).
    """

    name = "datagen"
    key_layer = ("micromodel.run_sequence", "cli.stage.gen-data")

    def setup(self) -> None:
        self.build_dataset(fresh_dir(self.workdir / "setup"))
        self.cfg = pipeline_config(self.seed, self.sizes.datagen, self.sizes,
                                   self.sizes.train_batches)
        self.root = fresh_dir(self.workdir / "datagen")

    def run_rep(self) -> Rep:
        rep = Rep()
        start = perf_counter()
        rep.call("gen_paths", cli.run_stage, "gen-paths", self.cfg, self.root, jobs=1)
        rep.call("gen_data", cli.run_stage, "gen-data", self.cfg, self.root, jobs=1)
        rep.wall = perf_counter() - start
        return rep

    def check_rep(self, rep: Rep) -> list[str]:
        if rep.failed:
            return []
        records = ds.read_dataset(self.root / "dataset")
        ens = self.sizes.datagen
        errors = []
        if len(records) != ens.n_random + ens.n_cyclic:
            errors.append(f"datagen: {len(records)} records")
        for i, r in enumerate(records):
            if not (np.all(np.isfinite(r.outputs_gamma))
                    and np.all(np.isfinite(r.outputs_tau))):
                errors.append(f"datagen: record {i} has non-finite fields")
            if np.any(np.diff(r.outputs_gamma, axis=0) < -1e-12):
                errors.append(f"datagen: record {i} gamma not monotone")
        prints = fingerprints(records)
        if self.reference is None:
            self.reference = prints
        elif not np.array_equal(prints, self.reference):
            errors.append("datagen: outputs differ between repetitions")
        return errors

    def final_checks(self) -> list[str]:
        return check_reference("datagen", datagen_canary(self.workdir / "canary"))

    def metrics(self, reps, counts):
        gen_data = collect(reps, "gen_data")
        steps = counts.get("micromodel.converged_steps", 0)
        point_steps = steps * self.sizes.datagen.n_points
        detail = {
            "gen_paths_s": timing(collect(reps, "gen_paths")),
            "gen_data_s": timing(gen_data),
            "point_steps_per_s": {"value": point_steps / median(gen_data),
                                  "unit": "1/s", "n": len(gen_data)},
            "converged_macro_steps": {"value": steps,
                                      "unit": "count", "n": 1},
        }
        return (detail["gen_data_s"]["value"] * 1e3,
                detail["point_steps_per_s"]["value"], detail)


class Train(Workload):
    """pca-fit + train + eval of a kind III surrogate at paper width.

    Why: training is the second user cost; at paper scale a kind III
    mini-batch takes tens of seconds.  ``RnnModel.forward``/``backward`` and
    ``Adam.step`` take nearly all of the train stage; the timed section does
    no ``micromodel`` or ``tensorlab`` work.  Properties: Q=4 > 1, so the
    per-group sequential loop shows; one length group, so every mini-batch
    has the same shape; no shared prefixes between sequences.  Set-up makes
    the dataset through gen-paths and gen-data on a ~150-point ensemble.
    """

    name = "train"
    key_layer = ("neural.", "cli.stage.train")

    def setup(self) -> None:
        self.root = fresh_dir(self.workdir / "train")
        self.cfg = self.build_dataset(self.root)

    def run_rep(self) -> Rep:
        rep = Rep()
        start = perf_counter()
        for stage in ("pca-fit", "train", "eval"):
            rep.call(stage.replace("-", "_"), cli.run_stage, stage, self.cfg,
                     self.root, jobs=1)
        rep.wall = perf_counter() - start
        return rep

    def check_rep(self, rep: Rep) -> list[str]:
        if rep.failed:
            return []
        losses = read_loss_history(self.root / "bundle")
        summary = ds.read_json(self.root / "eval" / "summary.json")
        errors = []
        if losses.shape != (self.sizes.train_batches, self.sizes.q):
            errors.append(f"train: loss history has shape {losses.shape}")
        if not np.all(np.isfinite(losses)):
            errors.append("train: non-finite loss")
        if not np.isfinite(summary["mse_full_dim"]):
            errors.append("train: non-finite predictions in eval")
        if self.reference is None:
            self.reference = losses
        elif not np.array_equal(losses, self.reference):
            errors.append("train: loss history differs between repetitions")
        return errors

    def final_checks(self) -> list[str]:
        return check_reference("train", train_canary(self.workdir / "canary"))

    def metrics(self, reps, counts):
        s = self.sizes
        train = collect(reps, "train")
        row_steps = s.q * s.n_epoch * s.train_batches * s.batch_size * s.length
        detail = {
            "pca_fit_s": timing(collect(reps, "pca_fit")),
            "train_s": timing(train),
            "eval_s": timing(collect(reps, "eval")),
            "train_row_steps_per_s": {"value": row_steps / median(train),
                                      "unit": "1/s", "n": len(train)},
        }
        return (detail["train_s"]["value"] * 1e3,
                detail["train_row_steps_per_s"]["value"], detail)


class Query(Workload):
    """FE2 use: Gauss points query a trained bundle at every increment.

    Why: in FE2 the surrogate replaces the RVE at each Gauss point and
    macro increment.  Each point follows its own held-out path (seeded apart
    from the training paths) and at every increment calls
    ``predict_fields`` on its history so far, keeping the last step.  All
    time is in ``neural`` forward at batch 1, ``pca.reconstruct`` and
    ``surrogate``.  Properties: every query shares its whole prefix with
    the previous one, so this is where history reuse shows; Q=4 > 1.
    Set-up builds the dataset, then pca-fit and train make the bundle.
    """

    name = "query"
    key_layer = ("surrogate.predict_fields", None)

    def setup(self) -> None:
        root = fresh_dir(self.workdir / "query")
        cfg = self.build_dataset(root)
        cfg["train"]["n_batches"] = self.sizes.setup_batches
        for stage in ("pca-fit", "train"):
            cli.run_stage(stage, cfg, root, jobs=1)
        self.bundle = sg.SurrogateBundle.load(root / "bundle")
        self.features = [held_out_path(held_out_seed(self.seed), g,
                                       self.sizes.increments).strain_features()
                         for g in range(self.sizes.gauss_points)]

    def run_rep(self) -> Rep:
        rep = Rep()
        self.kept = [np.empty((self.sizes.increments, self.bundle.field_dim))
                     for _ in self.features]
        start = perf_counter()
        for k in range(1, self.sizes.increments + 1):
            for g, feats in enumerate(self.features):
                pred = rep.call("query", self.bundle.predict_fields, feats[: k + 1])
                if pred is not None:
                    self.kept[g][k - 1] = pred.fields[-1]
        rep.wall = perf_counter() - start
        return rep

    def check_rep(self, rep: Rep) -> list[str]:
        if rep.failed:
            return []
        errors = []
        for g, feats in enumerate(self.features):
            full = self.bundle.predict_fields(feats).fields[1:]
            scale = max(float(np.max(np.abs(full))), 1e-300)
            if not np.all(np.isfinite(self.kept[g])):
                errors.append(f"query: non-finite prediction at point {g}")
            elif np.max(np.abs(self.kept[g] - full)) > QUERY_RTOL * scale:
                errors.append(f"query: point {g} step-wise output differs "
                              "from the full-sequence prediction")
        if self.reference is None:
            self.reference = [k.copy() for k in self.kept]
        elif not all(np.array_equal(a, b) for a, b in zip(self.kept, self.reference)):
            errors.append("query: outputs differ between repetitions")
        return errors

    def metrics(self, reps, counts):
        lat = collect(reps, "query")
        walls = [r.wall for r in reps]
        per_rep = self.sizes.gauss_points * self.sizes.increments
        detail = {
            "query_p50_ms": percentile_ms(lat, 50),
            "query_p90_ms": percentile_ms(lat, 90),
            "queries_per_s": {"value": per_rep / median(walls), "unit": "1/s",
                              "n": len(walls)},
        }
        return (detail["query_p50_ms"]["value"],
                detail["queries_per_s"]["value"], detail)


WORKLOADS = {w.name: w for w in (Datagen, Train, Query)}


def held_out_path(seed: int, index: int, increments: int) -> pg.LoadingPath:
    """Held-out path of exactly ``increments`` increments; every other one cyclic."""
    if index % 2 == 0:
        return pg.generate_random_path(replace(
            WALK, max_steps=increments, seed=(seed, index)))
    reversals = 4
    while True:
        path = pg.generate_cyclic_path(
            seed=(seed, index), n_reversals=reversals,
            amplitude_max=WALK.r_max, step_size=WALK.delta_r)
        if len(path) > increments:
            return pg.LoadingPath(path.stretches[: increments + 1], path.kind)
        reversals *= 2


# ---------------------------------------------------------------------------
# reference checks: a fixed-seed canary run whose outputs are stored in
# reference.json and compared within REFERENCE_RTOL, so they hold across
# changes of numerics far below it (not bit for bit).

REFERENCE_SEED = 20211223
REFERENCE_RTOL = 1e-6
CANARY = replace(
    FULL,
    datagen=Ensemble(400, 200, 1, 1, 300),
    dataset=Ensemble(50, 10, 6, 2, 24),
    train_batches=2,
    length=16,
)


def datagen_canary(workdir: Path) -> list:
    """Final-step gamma/tau sums per record of a fixed-seed gen-data run."""
    root = fresh_dir(workdir)
    cfg = pipeline_config(REFERENCE_SEED, CANARY.datagen, CANARY,
                          CANARY.train_batches)
    for stage in ("gen-paths", "gen-data"):
        cli.run_stage(stage, cfg, root, jobs=1)
    return fingerprints(ds.read_dataset(root / "dataset")).tolist()


def train_canary(workdir: Path) -> list:
    """Loss history of a fixed-seed kind III training at the workload's width."""
    root = fresh_dir(workdir)
    cfg = pipeline_config(REFERENCE_SEED, CANARY.dataset, CANARY,
                          CANARY.train_batches)
    for stage in cli.STAGE_ORDER[:4]:
        cli.run_stage(stage, cfg, root, jobs=1)
    return read_loss_history(root / "bundle").tolist()


def check_reference(name: str, values: list) -> list[str]:
    stored = json.loads(REFERENCE_FILE.read_text())[name]
    got = np.asarray(values)
    want = np.asarray(stored)
    if got.shape != want.shape:
        return [f"{name} reference: shape {got.shape} != stored {want.shape}"]
    if not np.allclose(got, want, rtol=REFERENCE_RTOL, atol=0.0):
        worst = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))
        return [f"{name} reference: relative deviation {worst:.3e} exceeds "
                f"{REFERENCE_RTOL:g}"]
    return []
