"""Surrogate assembly, training and evaluation.

Three surrogate kinds map macro strain histories to state-variable fields:

* kind I:   one RNN predicts the normalized fields directly,
* kind II:  one RNN predicts normalized principal-component coefficients,
* kind III: the coefficient vector is broken into Q contiguous groups in
  descending-eigenvalue order and each group gets its own independent RNN.

All kinds run through one training engine that treats a surrogate as a list
of (model, output-slice) pairs, so kind II is numerically identical to kind
III with a single group.  Training and the hidden-size trial draw their
mini-batches with ``datastore.draw_minibatches`` and update each RNN with
``neural.train_step``.  Evaluation always maps predictions back to the
normalized full-dimensional field space, which makes the three kinds (and
the PCA reconstruction floor from the same ``p`` coefficients) directly
comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import datastore as ds
from . import neural as nn
from . import pca as pcalib

KIND_DIRECT = "I"
KIND_REDUCED = "II"
KIND_BROKEN_DOWN = "III"
KINDS = (KIND_DIRECT, KIND_REDUCED, KIND_BROKEN_DOWN)

BUNDLE_FILE = "bundle.json"
PCA_FILE = "pca.bin"


@dataclass(frozen=True)
class Architecture:
    """Layer-size signature: input net, hidden size, output net tail."""

    nnw_in: tuple
    n_h: int
    nnw_out: tuple

    def __post_init__(self):
        object.__setattr__(self, "nnw_in", tuple(int(x) for x in self.nnw_in))
        object.__setattr__(self, "nnw_out", tuple(int(x) for x in self.nnw_out))
        if len(self.nnw_in) < 2 or len(self.nnw_out) < 1 or self.n_h < 1:
            raise ValueError("invalid architecture signature")

    @property
    def output_dim(self) -> int:
        return self.nnw_out[-1]


def group_slices(p: int, q: int) -> list[tuple[int, int]]:
    """Q contiguous blocks of size p/Q covering 0..p in spectral order."""
    if q < 1 or p % q != 0:
        raise ValueError(f"output dimension {p} is not divisible into {q} groups")
    k = p // q
    return [(i * k, (i + 1) * k) for i in range(q)]


@dataclass
class FieldPrediction:
    """Raw predicted fields plus the clamped rendering view."""

    fields: np.ndarray  # (steps, d)

    def clamped(self) -> np.ndarray:
        return np.maximum(self.fields, 0.0)


@dataclass
class TrainingHistory:
    losses: np.ndarray          # (n_batches_run, n_trained_groups), output-space MSE
    batch_lengths: np.ndarray   # (n_batches_run,), sequence length per batch
    aborted: bool = False

    @property
    def n_batches_run(self) -> int:
        return self.losses.shape[0]

    def final_loss(self) -> float:
        return float(self.losses[-1].mean()) if self.n_batches_run else float("nan")


@dataclass
class EvaluationReport:
    """Full-dimensional normalized-space errors plus plot-ready traces."""

    mse_full_dim: float
    per_sequence_mse: np.ndarray
    lengths: np.ndarray
    max_pred: list          # per sequence: (steps,) max predicted field value
    max_true: list          # per sequence: (steps,) max reference field value
    pca_floor: float | None = None


class SurrogateBundle:
    """Normalization specs, optional PCA and the RNN(s) of one surrogate."""

    def __init__(self, kind, family, arch: Architecture, q: int,
                 trained_group_count: int | None = None,
                 pca: pcalib.PcaModel | None = None, p: int | None = None,
                 seed: int = 0, h0: float = nn.DEFAULT_H0):
        if kind not in KINDS:
            raise ValueError(f"unknown surrogate kind {kind!r}")
        if kind == KIND_DIRECT:
            if pca is not None or p is not None:
                raise ValueError("kind I takes no PCA reduction")
            q = 1
            out_total = arch.output_dim
        else:
            if pca is None:
                raise ValueError(f"kind {kind} needs a fitted PCA model")
            if p is None:
                p = pca.retained_p
            if p > pca.retained_p:
                raise ValueError(
                    f"requested p={p} exceeds the {pca.retained_p} retained components"
                )
            if kind == KIND_REDUCED:
                q = 1
            out_total = p
            if arch.output_dim * q != out_total:
                raise ValueError(
                    f"output net ends in {arch.output_dim} but p/Q = {out_total}/{q}"
                )
        self.kind = kind
        self.family = family
        self.arch = arch
        self.q = int(q)
        self.p = p
        self.pca = pca
        self.seed = int(seed)
        self.h0 = float(h0)
        self.group_map = group_slices(out_total, self.q)
        n_trained = self.q if trained_group_count is None else int(trained_group_count)
        if not 0 <= n_trained <= self.q:
            raise ValueError("trained_group_count outside [0, Q]")
        self.trained_groups = list(range(n_trained))
        self.models = [
            nn.RnnModel.build(arch.nnw_in, arch.n_h, arch.nnw_out,
                              h0=h0, seed=[self.seed, gi])
            for gi in range(self.q)
        ]
        self.input_norm: ds.NormalizationSpec | None = None
        self.output_norm: ds.NormalizationSpec | None = None
        self.field_norm: ds.NormalizationSpec | None = None
        self.coeff_means: np.ndarray | None = None

    # -- bookkeeping ---------------------------------------------------------

    @property
    def reduced(self) -> bool:
        return self.kind != KIND_DIRECT

    @property
    def output_dim(self) -> int:
        return self.group_map[-1][1]

    @property
    def field_dim(self) -> int:
        return self.pca.d if self.reduced else self.output_dim

    @property
    def fitted(self) -> bool:
        return self.input_norm is not None

    def n_parameters(self) -> int:
        return sum(nn.count_parameters(m) for m in self.models)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "family": self.family,
            "n_h": self.arch.n_h,
            "groups": self.q,
            "trained_groups": len(self.trained_groups),
            "p": self.p,
            "parameters_per_rnn": nn.count_parameters(self.models[0]),
            "parameters_total": self.n_parameters(),
        }

    # -- data preparation ------------------------------------------------------

    def fit_normalization(self, dataset: ds.PackedDataset) -> None:
        """Fit input, output and reference-field normalizations on a dataset."""
        records = list(dataset.all_records())
        if not records:
            raise ValueError("empty dataset")
        self.input_norm = ds.fit_normalization([r.inputs for r in records])
        fields = [r.outputs(self.family) for r in records]
        self.field_norm = ds.fit_normalization(fields)
        if self.reduced:
            coeffs = [pcalib.project(f, self.pca)[:, : self.p] for f in fields]
            self.output_norm = ds.fit_normalization(coeffs)
            stacked = np.concatenate(coeffs, axis=0)
            self.coeff_means = stacked.mean(axis=0)
        else:
            self.output_norm = self.field_norm

    def _group_arrays(self, dataset: ds.PackedDataset):
        """Normalized input/target stacks per length group."""
        groups = {}
        for length in dataset.lengths:
            records = dataset.groups[length]
            x = np.stack([self.input_norm.normalize(r.inputs) for r in records])
            target = np.stack([r.outputs(self.family) for r in records])
            if self.reduced:
                target = pcalib.project(target, self.pca)[..., : self.p]
            groups[length] = (x, self.output_norm.normalize(target))
        return groups

    # -- training ----------------------------------------------------------------

    def train(self, dataset: ds.PackedDataset,
              config: nn.TrainConfig) -> TrainingHistory:
        """Mini-batch training per the shared schedule.

        Every mini-batch is drawn once and then trains each trained group's
        RNN in turn on its output slice for ``n_epoch`` epochs.  Groups
        beyond ``trained_group_count`` are never touched.  A NaN loss aborts
        with the parameters restored to the previous batch.
        """
        self.fit_normalization(dataset)
        groups = self._group_arrays(dataset)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([config.seed]))
        )
        draws = ds.draw_minibatches(
            {length: x.shape[0] for length, (x, _) in groups.items()},
            config.batch_size, config.n_batches, rng,
        )
        optimizers = {
            gi: nn.Adam(list(self.models[gi].parameters()), config)
            for gi in self.trained_groups
        }
        losses = np.zeros((config.n_batches, max(len(self.trained_groups), 1)))
        batch_lengths = np.zeros(config.n_batches, dtype=int)
        aborted = False
        n_run = 0
        for b, (length, idx) in enumerate(draws):
            x_all, y_all = groups[length]
            xb = x_all[idx]
            yb = y_all[idx]
            backup = [self.models[gi].copy_parameters() for gi in self.trained_groups]
            batch_losses = np.zeros(max(len(self.trained_groups), 1))
            for slot, gi in enumerate(self.trained_groups):
                model = self.models[gi]
                lo, hi = self.group_map[gi]
                target = yb[..., lo:hi]
                for _ in range(config.n_epoch):
                    last = nn.train_step(model, optimizers[gi], xb, target,
                                         config.clip_norm)
                    if not np.isfinite(last):
                        break
                batch_losses[slot] = last
            if not np.all(np.isfinite(batch_losses)):
                for gi, params in zip(self.trained_groups, backup):
                    self.models[gi].load_parameters(params)
                aborted = True
                break
            losses[b] = batch_losses
            batch_lengths[b] = length
            n_run = b + 1
        return TrainingHistory(
            losses=losses[:n_run],
            batch_lengths=batch_lengths[:n_run],
            aborted=aborted,
        )

    # -- prediction / evaluation ---------------------------------------------------

    def _predict_normalized(self, x_norm: np.ndarray) -> np.ndarray:
        """Stacked per-group RNN outputs, (batch, steps, output_dim)."""
        if not self.fitted:
            raise ValueError("surrogate has not been trained or loaded")
        n_b, n_t, _ = x_norm.shape
        out = np.zeros((n_b, n_t, self.output_dim))
        for gi in self.trained_groups:
            lo, hi = self.group_map[gi]
            y, _ = self.models[gi].forward(x_norm)
            out[..., lo:hi] = y
        return out

    def _to_fields(self, out_norm: np.ndarray) -> np.ndarray:
        """Map normalized RNN outputs back to raw state-variable fields."""
        if not self.reduced:
            return self.output_norm.denormalize(out_norm)
        coeffs = np.broadcast_to(
            self.coeff_means, out_norm.shape[:-1] + (self.p,)
        ).copy()
        denorm = self.output_norm.denormalize(out_norm)
        for gi in self.trained_groups:
            lo, hi = self.group_map[gi]
            coeffs[..., lo:hi] = denorm[..., lo:hi]
        padded = np.zeros(coeffs.shape[:-1] + (self.pca.retained_p,))
        padded[..., : self.p] = coeffs
        return pcalib.reconstruct(padded, self.pca)

    def predict_fields(self, strain_features) -> FieldPrediction:
        """Fields for one raw strain-feature sequence of shape (steps, 3)."""
        if not self.fitted:
            raise ValueError("surrogate has not been trained or loaded")
        x = np.asarray(strain_features, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("expected a (steps, 3) strain-feature sequence")
        out = self._predict_normalized(self.input_norm.normalize(x)[None])
        return FieldPrediction(fields=self._to_fields(out)[0])

    def evaluate(self, dataset: ds.PackedDataset) -> EvaluationReport:
        """Normalized full-dimensional MSE against the dataset's fields.

        Predictions of every kind are mapped to raw fields first and then
        into the normalized field space, so reduced and direct surrogates
        are compared on the same reference.  Reduced kinds also report the
        PCA floor: the error of reconstructing the same data from its exact
        first ``p`` coefficients, the ones the surrogate predicts.
        """
        per_mse = []
        lengths = []
        max_pred = []
        max_true = []
        floor_acc = 0.0
        floor_steps = 0
        for length in dataset.lengths:
            records = dataset.groups[length]
            x = np.stack([self.input_norm.normalize(r.inputs) for r in records])
            truth = np.stack([r.outputs(self.family) for r in records])
            pred = self._to_fields(self._predict_normalized(x))
            t_norm = self.field_norm.normalize(truth)
            p_norm = self.field_norm.normalize(pred)
            err = (p_norm - t_norm) ** 2
            per_mse.extend(np.mean(err, axis=(1, 2)).tolist())
            lengths.extend([length] * len(records))
            max_pred.extend(list(pred.max(axis=2)))
            max_true.extend(list(truth.max(axis=2)))
            if self.reduced:
                coeffs = pcalib.project(truth, self.pca)
                coeffs[..., self.p:] = 0.0
                recon = pcalib.reconstruct(coeffs, self.pca)
                r_norm = self.field_norm.normalize(recon)
                floor_acc += np.sum(np.mean((r_norm - t_norm) ** 2, axis=2))
                floor_steps += truth.shape[0] * truth.shape[1]
        per_mse = np.asarray(per_mse)
        lengths = np.asarray(lengths)
        mse = float(np.sum(per_mse * lengths) / np.sum(lengths))
        floor = float(floor_acc / floor_steps) if self.reduced else None
        return EvaluationReport(
            mse_full_dim=mse,
            per_sequence_mse=per_mse,
            lengths=lengths,
            max_pred=max_pred,
            max_true=max_true,
            pca_floor=floor,
        )

    # -- serialization ------------------------------------------------------------

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        meta = {
            "kind": self.kind,
            "family": self.family,
            "arch": {
                "nnw_in": list(self.arch.nnw_in),
                "n_h": self.arch.n_h,
                "nnw_out": list(self.arch.nnw_out),
            },
            "q": self.q,
            "p": self.p,
            "seed": self.seed,
            "h0": self.h0,
            "trained_groups": self.trained_groups,
            "group_map": [list(g) for g in self.group_map],
            "input_norm": self.input_norm.to_dict() if self.fitted else None,
            "output_norm": self.output_norm.to_dict() if self.fitted else None,
            "field_norm": self.field_norm.to_dict() if self.fitted else None,
            "coeff_means": (
                self.coeff_means.tolist() if self.coeff_means is not None else None
            ),
        }
        ds.write_json(directory / BUNDLE_FILE, meta)
        if self.pca is not None:
            pcalib.save(directory / PCA_FILE, self.pca)
        for gi, model in enumerate(self.models):
            nn.save_model(directory / f"rnn_{gi:02d}.bin", model)

    @classmethod
    def load(cls, directory) -> "SurrogateBundle":
        directory = Path(directory)
        meta = ds.read_json(directory / BUNDLE_FILE)
        pca_model = None
        if (directory / PCA_FILE).exists():
            pca_model = pcalib.load(directory / PCA_FILE)
        arch = Architecture(
            nnw_in=meta["arch"]["nnw_in"],
            n_h=meta["arch"]["n_h"],
            nnw_out=meta["arch"]["nnw_out"],
        )
        bundle = cls(
            kind=meta["kind"],
            family=meta["family"],
            arch=arch,
            q=meta["q"],
            trained_group_count=len(meta["trained_groups"]),
            pca=pca_model,
            p=meta["p"],
            seed=meta["seed"],
            h0=meta["h0"],
        )
        for gi in range(bundle.q):
            bundle.models[gi] = nn.load_model(directory / f"rnn_{gi:02d}.bin")
        if meta["input_norm"] is not None:
            bundle.input_norm = ds.NormalizationSpec.from_dict(meta["input_norm"])
            bundle.output_norm = ds.NormalizationSpec.from_dict(meta["output_norm"])
            bundle.field_norm = ds.NormalizationSpec.from_dict(meta["field_norm"])
        if meta["coeff_means"] is not None:
            bundle.coeff_means = np.asarray(meta["coeff_means"])
        return bundle


def build_surrogate(kind, arch: Architecture, q: int = 1,
                    trained_group_count: int | None = None,
                    pca: pcalib.PcaModel | None = None, p: int | None = None,
                    family: str = ds.FAMILY_GAMMA, seed: int = 0) -> SurrogateBundle:
    """Construct an initialized surrogate bundle (not yet trained)."""
    return SurrogateBundle(
        kind=kind, family=family, arch=arch, q=q,
        trained_group_count=trained_group_count, pca=pca, p=p, seed=seed,
    )


@dataclass
class TrialResult:
    n_h: int
    score: float
    final_loss: float


@dataclass
class TrialReport:
    target_p: int
    threshold: float
    trials: list
    recommended: int | None

    def best(self) -> TrialResult:
        return max(self.trials, key=lambda t: t.score)

    def to_dict(self) -> dict:
        return {
            "target_p": self.target_p,
            "threshold": self.threshold,
            "recommended": self.recommended,
            "trials": [
                {"n_h": t.n_h, "score": t.score, "final_loss": t.final_loss}
                for t in self.trials
            ],
        }


def hidden_size_trial(
    dataset: ds.PackedDataset,
    pca_model: pcalib.PcaModel,
    target_p: int,
    start_n_h: int = 100,
    increment: int = 100,
    epoch_budget: int = 200,
    max_trials: int = 4,
    threshold: float = 0.9,
    family: str = ds.FAMILY_GAMMA,
    nnw_in=(3, 70),
    nnw_out=(30,),
    batch_size: int = 8,
    learning_rate: float = 1e-3,
    validation_fraction: float = 0.2,
    seed: int = 0,
) -> TrialReport:
    """Hidden-size search on a single-coefficient RNN.

    Trains one RNN whose unique output is the normalized coefficient of
    principal component ``target_p`` (1-indexed, spectral order) for
    ``epoch_budget`` mini-batches, scores how well the predicted coefficient
    traces track the reference on held-out sequences (Pearson correlation),
    and grows the hidden size until the score passes the threshold.
    """
    if target_p < 1 or target_p > pca_model.retained_p:
        raise ValueError(
            f"target_p={target_p} outside the retained range 1..{pca_model.retained_p}"
        )
    records = list(dataset.all_records())
    input_norm = ds.fit_normalization([r.inputs for r in records])
    coeff_col = target_p - 1

    def coefficient_trace(record):
        return pcalib.project(record.outputs(family), pca_model)[:, coeff_col:coeff_col + 1]

    coeff_norm = ds.fit_normalization([coefficient_trace(r) for r in records])

    # held-out validation split, seeded, at least two sequences
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1])))
    arrays = {}
    val_arrays = []
    for length in dataset.lengths:
        recs = dataset.groups[length]
        x = np.stack([input_norm.normalize(r.inputs) for r in recs])
        y = np.stack([coeff_norm.normalize(coefficient_trace(r)) for r in recs])
        n_val = max(1, int(round(validation_fraction * len(recs))))
        perm = rng.permutation(len(recs))
        val_idx, train_idx = perm[:n_val], perm[n_val:]
        if train_idx.size == 0:
            raise ValueError(f"length group {length} too small to split")
        arrays[length] = (x[train_idx], y[train_idx])
        val_arrays.append((x[val_idx], y[val_idx]))

    train_sizes = {length: x.shape[0] for length, (x, _) in arrays.items()}
    trials = []
    recommended = None
    for trial_index in range(max_trials):
        n_h = start_n_h + trial_index * increment
        model = nn.RnnModel.build(nnw_in, n_h, tuple(nnw_out) + (1,),
                                  seed=[seed, 2, n_h])
        cfg = nn.TrainConfig(learning_rate=learning_rate, n_epoch=1,
                             n_batches=epoch_budget, batch_size=batch_size,
                             seed=seed)
        opt = nn.Adam(list(model.parameters()), cfg)
        batch_rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, 3, n_h]))
        )
        last = float("nan")
        for length, idx in ds.draw_minibatches(train_sizes, batch_size,
                                               epoch_budget, batch_rng):
            x_all, y_all = arrays[length]
            last = nn.train_step(model, opt, x_all[idx], y_all[idx],
                                 cfg.clip_norm)

        preds = []
        truths = []
        for x_val, y_val in val_arrays:
            if x_val.shape[0] == 0:
                continue
            out, _ = model.forward(x_val)
            preds.append(out.ravel())
            truths.append(y_val.ravel())
        pred = np.concatenate(preds)
        true = np.concatenate(truths)
        if pred.std() < 1e-12 or true.std() < 1e-12:
            score = 0.0
        else:
            score = float(np.corrcoef(pred, true)[0, 1])
        trials.append(TrialResult(n_h=n_h, score=score, final_loss=float(last)))
        if score >= threshold:
            recommended = n_h
            break
    return TrialReport(
        target_p=target_p, threshold=threshold, trials=trials,
        recommended=recommended,
    )
