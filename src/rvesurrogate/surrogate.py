"""Surrogate assembly, training and evaluation.

Three surrogate kinds map macro strain histories to state-variable fields:

* kind I:   one RNN predicts the normalized fields directly,
* kind II:  one RNN predicts normalized principal-component coefficients,
* kind III: the coefficient vector is broken into Q contiguous groups in
  descending-eigenvalue order and each group gets its own independent RNN.

All kinds run through one training loop, ``SurrogateBundle.train``, that
treats a surrogate as a list of (model, output-slice) pairs, so kind II is
numerically identical to kind III with a single group.  It draws the
mini-batch list once with ``datastore.draw_minibatches`` and then trains
the groups one after another, each over every batch, updating each RNN
with ``neural.train_step``.  The groups share nothing but the draws, so
this sequential order gives the bytes of training every group on a batch
before drawing the next, while only one optimizer state and one step
workspace are alive; it projects each record once.
The hidden-size trial trains one-coefficient kind II bundles of the
surrogate's architecture, optimizer and seed by the same loop.  Evaluation
always maps predictions back to the normalized full-dimensional field
space, which makes the three kinds (and the PCA reconstruction floor from
the same ``p`` coefficients) directly comparable.

Storage: a bundle trains and predicts every one of its Q groups, and a
reduced bundle's PCA holds exactly the ``p`` components it predicts.  Its
kind, architecture, Q and basis fix the rest: ``p`` is Q times the output
net's width, group ``g`` predicts coefficients ``g p/Q`` to ``(g+1) p/Q - 1``
(its ``group_map`` entry), and every RNN starts from ``neural.H0``.  So
``bundle.json`` holds the kind, family, architecture, Q and the three
normalizations, and nothing that could disagree with them.  A bundle
holds one ``(Q, n)`` parameter block and no gradients; group ``g``'s RNN
is built over row ``g``, which training, ``Adam`` and ``rnn_XX.bin`` see
as the group's one vector.  Prediction runs consecutive
groups as one stacked model over their rows of the block (see ``neural``'s
module notes): each pass over ``batch x steps`` rows stacks
``max(1, _STACK_ROWS // (batch x steps))`` groups, all of them in an FE2
query, as two half-stacks (below), and one at a time in an evaluation.

History reuse: in FE2 use every Gauss point queries ``predict_fields`` at
each macro increment with its strain history so far, one row longer than
its previous query.  A bundle therefore keeps, for its last
``HISTORY_CACHE_ENTRIES`` queried histories (least recently used out
first), the groups' hidden states after the last row, as one
``(Q, 1, n_h)`` array, and the fields predicted so far.  A
query whose history without its last row is byte-for-byte one of them
resumes from it: only its new row is checked for finite entries, and it
runs one recurrence step of every group, as two half-stacks on two
threads (below); any other query is checked whole and replays its whole
history from ``neural.H0``.  The resumed history stays kept beside the
new one, for a Newton re-query of the same increment, so each Gauss point
holds 2 entries and the map serves ``HISTORY_CACHE_ENTRIES // 2`` points
stepping in turn.
Every prediction (these queries, the batch passes of ``predict``, which
``evaluate``, ``eval``'s snapshots and the ``train`` stage's probe run, and
the trial's scoring) runs ``RnnModel.forward`` without a workspace, so
it keeps no training cache: what stays alive after a query is its answer
and the kept states.  ``train`` and ``fit_normalization`` empty the map,
and ``load`` builds a bundle with an empty one.

Two threads: a pass of one row and two groups or more, which every warm
query is, runs as two half-stacks at the same time, groups ``0..Q//2-1``
on the calling thread and the others on one daemon helper thread per
process, started on first use and again in a forked child.  Each group's
outputs and final state are those of its own pass (``neural``'s stacking
property), so the answer is the serial one to the byte.  Such a pass
reads every group's weights once, 19 MB at Q=4 and paper width, and one
core's memory bandwidth bounds it, so a second core is what makes it
faster.  Only one-row passes split: splitting ``eval``'s 448-row passes as
well made them faster, but the helper's large temporaries come from a
malloc arena of its own, and the ``train`` benchmark's peak RSS rose from
93-97 MB to 128 MB.  The caller builds both half-stack models and alone
touches the history map, which changes only once both halves have run.
The helper puts the exception it caught, or ``None``, into the job's own
reply slot; the caller waits for it even when its own half raised, then
re-raises.  A process that may use one CPU only (``_SPLIT``) runs every
pass on the calling thread.
"""

from __future__ import annotations

import os
import queue
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import datastore as ds
from . import neural as nn
from . import pca as pcalib
from .pathgen import make_rng

KIND_DIRECT = "I"
KIND_REDUCED = "II"
KIND_BROKEN_DOWN = "III"
KINDS = (KIND_DIRECT, KIND_REDUCED, KIND_BROKEN_DOWN)

BUNDLE_FILE = "bundle.json"
PCA_FILE = "pca.bin"
# a normalization entry of a bundle file, as ``NormalizationSpec.to_dict``
# writes it
_NORM_TABLE = ds.required(minimum="list of real", maximum="list of real",
                          degenerate_features="list of int")
# the keys of every bundle file and their JSON types, as
# ``SurrogateBundle.save`` writes them
_BUNDLE_TABLE = ds.required(
    kind="str", family="str",
    arch=ds.required(nnw_in="list of int", n_h="int", nnw_out="list of int"),
    q="int",
    input_norm=_NORM_TABLE, output_norm=_NORM_TABLE, field_norm=_NORM_TABLE)

# queried histories whose final hidden states a bundle keeps.  A hit keeps
# the history it resumed, for Newton re-queries of the same increment, next
# to the new one, so each Gauss point holds 2 entries: 64 serve 32 points
# stepping in turn, each resuming its own
HISTORY_CACHE_ENTRIES = 64

# rows (batch x steps) up to which a prediction stacks groups: they run in
# passes of max(1, _STACK_ROWS // rows) groups.  Stacking saves a pass's
# per-group dispatch, which is comparable to a group's products only on a
# pass of a few rows, while a pass holds its groups' gate pre-activations at
# once, 3 n_h floats per row and group: under 256 x 3 x 400 x 8 B = 2.5 MB
# at paper width, unless one group alone holds more.  So an FE2 query (1
# row), the train stage's probe (4 rows) and any pass of up to 64 rows stack
# every group of Q = 4, and eval's passes (14 x 32 rows) run one group at a
# time, as fast as stacked and with a quarter of the memory.  An FE2 query
# runs in one pass without _SPLIT, else in two half-stacks on two threads.
_STACK_ROWS = 256

# whether a one-row pass of two groups or more runs as two half-stacks on
# two threads: only where this process may use two CPUs or more
_SPLIT = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1) > 1

# this process's helper thread's job queue, made with the thread on first
# use; a forked child forgets its parent's, whose thread it has not got
_jobs: queue.SimpleQueue | None = None
_jobs_lock = threading.Lock()


def _forget_helper() -> None:
    global _jobs, _jobs_lock
    _jobs, _jobs_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _serve(jobs: queue.SimpleQueue) -> None:
    """The helper thread: runs each posted job and puts the exception it
    raised, or ``None``, into the job's own reply slot."""
    while True:
        job, reply = jobs.get()
        try:
            job()
        except BaseException as err:  # the caller re-raises it
            reply.put(err)
        else:
            reply.put(None)
        # hold no job's arrays while waiting for the next one
        del job, reply


def _post(job) -> queue.SimpleQueue:
    """Runs ``job()`` on the helper thread, started on first use; returns
    the reply slot that receives its exception or ``None``.  Each job has
    its own slot, so callers on different threads never swap replies."""
    global _jobs
    with _jobs_lock:
        if _jobs is None:
            _jobs = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(_jobs,), daemon=True,
                             name="surrogate-half-stack").start()
        jobs = _jobs
    reply = queue.SimpleQueue()
    jobs.put((job, reply))
    return reply


@dataclass(frozen=True)
class Architecture:
    """Layer-size signature: input net, hidden size, output net tail."""

    nnw_in: tuple
    n_h: int
    nnw_out: tuple

    def __post_init__(self):
        object.__setattr__(self, "nnw_in", tuple(int(x) for x in self.nnw_in))
        object.__setattr__(self, "nnw_out", tuple(int(x) for x in self.nnw_out))
        if len(self.nnw_in) < 2 or len(self.nnw_out) < 1 \
                or min(self.nnw_in + (self.n_h,) + self.nnw_out) < 1:
            raise ValueError("invalid architecture signature: nnw_in needs 2 "
                             "widths or more, nnw_out 1 or more, and every "
                             "width, n_h included, must be >= 1")

    @property
    def output_dim(self) -> int:
        return self.nnw_out[-1]


def _history_key(x: np.ndarray) -> tuple:
    """Map key of a raw float64 history: its shape and its bytes."""
    return x.shape, x.tobytes()


@dataclass
class FieldPrediction:
    """Raw predicted fields of one strain history."""

    fields: np.ndarray  # (steps, d)


@dataclass
class TrainingHistory:
    losses: np.ndarray          # (batches run, Q), output-space MSE
    batch_lengths: np.ndarray   # (batches run,), sequence length per batch
    # per group: steps whose gradient norm exceeded the clip norm, and the
    # largest norm before clipping
    clipped_steps: np.ndarray
    max_grad_norm: np.ndarray
    # (group, batch) of each group stopped by a non-finite loss, in group order
    aborted: list = field(default_factory=list)

    def final_loss(self) -> float | None:
        """Mean loss over the groups on the last batch run; ``None`` when no
        batch ran."""
        return float(self.losses[-1].mean()) if self.losses.size else None


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

    def __init__(self, kind, arch: Architecture, q: int = 1,
                 pca: pcalib.PcaModel | None = None,
                 family: str = ds.FAMILY_GAMMA, seed: int | None = 0):
        # seed=None draws nothing: the RNN parameters stay zero, for ``load``
        # to fill
        if kind not in KINDS:
            raise ValueError(f"unknown surrogate kind {kind!r}")
        if family not in ds.FAMILIES:
            raise ValueError(f"unknown state-variable family {family!r}")
        if kind != KIND_BROKEN_DOWN:
            q = 1
        elif q < 1:
            raise ValueError(f"kind III needs q >= 1 groups, got {q}")
        self.kind = kind
        self.family = family
        self.arch = arch
        self.q = q
        # what ``train`` redraws a group's parameters from
        self._seed = seed
        if kind == KIND_DIRECT:
            if pca is not None:
                raise ValueError("kind I takes no PCA reduction")
        else:
            if pca is None:
                raise ValueError(f"kind {kind} needs a fitted PCA model")
            if self.p > pca.retained_p:
                raise ValueError(
                    f"an output net of {arch.output_dim} in {q} groups "
                    f"predicts p = {self.p} coefficients, but the PCA retains "
                    f"{pca.retained_p}")
            # the bundle predicts the first p coefficients, and only those
            pca = pcalib.PcaModel(pca.mean, pca.eigenvalues,
                                  pca.components[:, :self.p])
        self.pca = pca
        # group g's output slice: Q contiguous blocks in spectral order
        k = arch.output_dim
        self.group_map = [(gi * k, (gi + 1) * k) for gi in range(q)]
        # one row per group; every model of the bundle is views of it
        size = nn.parameter_count(arch.nnw_in, arch.n_h, arch.nnw_out)
        self.params = np.zeros((q, size))
        self.models = [
            nn.RnnModel.build(arch.nnw_in, arch.n_h, arch.nnw_out,
                              seed=None if seed is None else [seed, gi],
                              params=self.params[gi])
            for gi in range(q)
        ]
        # (lo, hi) -> the model over the rows of groups lo..hi-1
        self._stacks = {}
        self.input_norm: ds.NormalizationSpec | None = None
        self.output_norm: ds.NormalizationSpec | None = None
        self.field_norm: ds.NormalizationSpec | None = None
        # (shape, raw input bytes) -> (final hidden states of the groups,
        # fields so far); see predict_fields
        self._history: OrderedDict = OrderedDict()

    # -- bookkeeping ---------------------------------------------------------

    @property
    def reduced(self) -> bool:
        return self.kind != KIND_DIRECT

    @property
    def output_dim(self) -> int:
        return self.arch.output_dim * self.q

    @property
    def p(self) -> int | None:
        """The PCA coefficients a reduced bundle predicts; ``None`` for
        kind I."""
        return self.output_dim if self.reduced else None

    @property
    def field_dim(self) -> int:
        return self.pca.d if self.reduced else self.output_dim

    @property
    def fitted(self) -> bool:
        return self.input_norm is not None

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "family": self.family,
            "n_h": self.arch.n_h,
            "groups": self.q,
            "p": self.p,
            "parameters_per_rnn": self.params.shape[1],
            "parameters_total": self.params.size,
        }

    # -- data preparation ------------------------------------------------------

    def fit_normalization(self, dataset: ds.PackedDataset) -> dict:
        """Fit input, output and field normalizations on a dataset; returns
        a reduced bundle's coefficients per length group, for training."""
        records = list(dataset.all_records())
        if not records:
            raise ValueError("empty dataset")
        self._history.clear()
        self.input_norm = ds.fit_normalization([r.inputs for r in records])
        self.field_norm = ds.fit_normalization(
            [r.outputs(self.family) for r in records])
        if not self.reduced:
            self.output_norm = self.field_norm
            return {}
        coefficients = {length: self._targets(dataset.groups[length])
                        for length in dataset.lengths}
        self.output_norm = ds.fit_normalization(
            [c.reshape(-1, self.output_dim) for c in coefficients.values()])
        return coefficients

    def _targets(self, records) -> np.ndarray:
        """Raw targets of records of one length: the fields, or a reduced
        bundle's coefficients of them."""
        fields = np.stack([r.outputs(self.family) for r in records])
        return pcalib.project(fields, self.pca) if self.reduced else fields

    def _group_arrays(self, dataset: ds.PackedDataset, fitted=None):
        """Normalized input/target stacks per length group; ``fitted`` is
        what ``fit_normalization`` returned on ``dataset``, if given."""
        groups = {}
        for length in dataset.lengths:
            records = dataset.groups[length]
            x = np.stack([self.input_norm.normalize(r.inputs) for r in records])
            target = fitted[length] if fitted else self._targets(records)
            groups[length] = (x, self.output_norm.normalize(target))
        return groups

    # -- training ----------------------------------------------------------------

    def train(self, dataset: ds.PackedDataset,
              config: nn.TrainConfig) -> TrainingHistory:
        """Mini-batch training per the shared schedule.

        The ``n_batches`` mini-batches are drawn once.  Then each group's
        RNN in turn, in group order, trains on its output slice over every
        batch, ``n_epoch`` epochs per batch, with an optimizer of its own;
        all steps share one workspace.  The groups share nothing but the
        draws, so the result is that of drawing each batch and training
        every group on it.  A non-finite loss stops only its own group,
        with its parameters as they were before that batch, and is listed
        in ``aborted``; the other groups train every batch.  ``losses``
        stops at the first aborted batch.

        No copy of the parameters is kept to restore them from.  A batch
        whose first epoch diverges has not moved them, as ``train_step``
        then skips the update.  A later epoch's divergence redraws the
        group's parameters from the bundle's seed and replays the batches
        before this one with a fresh optimizer, which gives their bytes
        before the batch; the replay counts toward neither
        ``clipped_steps`` nor ``max_grad_norm``.  So a bundle built with
        ``seed=None``, as ``load`` builds one, cannot train: it raises a
        ``ValueError``.
        """
        if self._seed is None:
            raise ValueError("a bundle built with seed=None cannot train: "
                             "its parameters cannot be redrawn")
        groups = self._group_arrays(dataset, self.fit_normalization(dataset))
        rng = make_rng([config.seed])
        draws = list(ds.draw_minibatches(
            {length: x.shape[0] for length, (x, _) in groups.items()},
            config.batch_size, config.n_batches, rng,
        ))
        losses = np.zeros((config.n_batches, self.q))
        clipped = np.zeros(self.q, dtype=int)
        max_norm = np.zeros(self.q)
        aborted = []
        workspace = {}
        for gi, (model, (lo, hi)) in enumerate(zip(self.models, self.group_map)):

            def batch(b):
                """Inputs and this group's targets of batch ``b``."""
                length, idx = draws[b]
                x_all, y_all = groups[length]
                return x_all[idx], y_all[idx, :, lo:hi]

            optimizer = nn.Adam(model.params, config)
            for b in range(len(draws)):
                xb, target = batch(b)
                for epoch in range(config.n_epoch):
                    loss, norm = nn.train_step(model, optimizer, xb, target,
                                               config.clip_norm, workspace)
                    if not np.isfinite(loss):
                        break
                    clipped[gi] += 0.0 < config.clip_norm < norm
                    max_norm[gi] = max(max_norm[gi], norm)
                if np.isfinite(loss):
                    losses[b, gi] = loss
                    continue
                if epoch:
                    # this batch's earlier epochs moved the parameters:
                    # draw them again and replay the batches before it
                    nn.RnnModel.build(self.arch.nnw_in, self.arch.n_h,
                                      self.arch.nnw_out, seed=[self._seed, gi],
                                      params=model.params)
                    optimizer = nn.Adam(model.params, config)
                    for r in range(b):
                        xr, target_r = batch(r)
                        for _ in range(config.n_epoch):
                            nn.train_step(model, optimizer, xr, target_r,
                                          config.clip_norm, workspace)
                aborted.append((gi, b))
                break
            # released before the next group's is built
            del optimizer
        n_run = min((b for _, b in aborted), default=config.n_batches)
        return TrainingHistory(
            losses=losses[:n_run],
            batch_lengths=np.array([length for length, _ in draws[:n_run]],
                                   dtype=int),
            clipped_steps=clipped,
            max_grad_norm=max_norm,
            aborted=aborted,
        )

    # -- prediction / evaluation ---------------------------------------------------

    def _stack(self, lo: int, hi: int) -> nn.RnnModel:
        """The model over the block rows of groups ``lo..hi-1``, which
        predicts them in one pass."""
        if (lo, hi) not in self._stacks:
            self._stacks[lo, hi] = self.models[0].over(self.params[lo:hi])
        return self._stacks[lo, hi]

    def _run_groups(self, x_norm: np.ndarray, states=None):
        """The groups' RNN outputs side by side, (batch, steps, output_dim).

        Also returns the groups' hidden states after the last step,
        (Q, batch, n_h); ``states`` of that shape resumes the groups from
        those states instead of ``neural.H0``.  A pass of one row and two
        groups or more runs groups ``0..Q//2-1`` here and the others at the
        same time on the helper thread, when ``_SPLIT`` allows; any other
        pass runs here, in stacked passes of ``_STACK_ROWS`` rows or one
        group.
        """
        n_b, n_t, _ = x_norm.shape
        out = np.empty((n_b, n_t, self.q, self.arch.output_dim))
        finals = np.empty((self.q, n_b, self.arch.n_h))

        def run(model, lo, hi):
            # a prediction forward: no workspace, no training cache
            y, finals[lo:hi] = model.forward(
                x_norm, h_init=None if states is None else states[lo:hi])
            out[:, :, lo:hi] = y.transpose(1, 2, 0, 3)

        if _SPLIT and n_b * n_t == 1 and self.q > 1:
            mid = self.q // 2
            # both models are built on this thread, which alone touches
            # ``_stacks``; the halves write disjoint slices of the results
            first, second = self._stack(0, mid), self._stack(mid, self.q)
            reply = _post(lambda: run(second, mid, self.q))
            try:
                run(first, 0, mid)
            finally:
                # the helper's half is collected even when this one raised
                error = reply.get()
            if error is not None:
                raise error
        else:
            chunk = max(1, _STACK_ROWS // (n_b * n_t))
            for lo in range(0, self.q, chunk):
                hi = min(lo + chunk, self.q)
                run(self._stack(lo, hi), lo, hi)
        return out.reshape(n_b, n_t, self.output_dim), finals

    def _to_fields(self, out_norm: np.ndarray) -> np.ndarray:
        """Map normalized RNN outputs back to raw state-variable fields."""
        out = self.output_norm.denormalize(out_norm)
        return pcalib.reconstruct(out, self.pca) if self.reduced else out

    def predict_fields(self, strain_features) -> FieldPrediction:
        """Fields for one raw strain-feature sequence of shape (steps, n_inputs).

        The sequence must have at least one step, the RNN's input width and
        finite entries; anything else raises a ``ValueError``.  When the
        sequence without its last row equals, byte for byte and in shape,
        one of the last ``HISTORY_CACHE_ENTRIES`` histories this bundle was
        queried with, only the last row is checked and runs, from the hidden
        states that history ended in; otherwise the whole sequence is
        checked and runs from ``neural.H0``.
        Either way the answer equals a full replay to roundoff, and this
        query's history is kept for the next one.  ``train`` and
        ``fit_normalization`` forget every kept history.  The returned
        fields are the caller's own array: changing it, or the input
        buffer, changes no later answer.
        """
        if not self.fitted:
            raise ValueError("surrogate has not been trained or loaded")
        x = np.asarray(strain_features, dtype=np.float64)
        n_in = self.models[0].n_inputs
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != n_in:
            raise ValueError(
                f"expected a (steps, {n_in}) strain-feature sequence with at "
                f"least one step, got shape {x.shape}"
            )
        prefix_key = _history_key(x[:-1])
        kept = self._history.get(prefix_key)
        # a kept history was checked when it was queried, so on a hit only
        # the new row is
        first = 0 if kept is None else x.shape[0] - 1
        finite = np.isfinite(x[first:]).all(axis=1)
        if not finite.all():
            raise ValueError(
                f"non-finite strain features at step "
                f"{first + np.argmin(finite)} of the (steps, {n_in}) sequence"
            )
        # a miss resumes from no history: no states, no fields so far
        states, fields = kept or (None, np.empty((0, self.field_dim)))
        out, states = self._run_groups(
            self.input_norm.normalize(x[first:])[None], states)
        fields = np.concatenate([fields, self._to_fields(out)[0]])
        # the map changes only once the pass has succeeded
        if kept is not None:
            self._history.move_to_end(prefix_key)
        key = _history_key(x)
        self._history[key] = (states, fields)
        self._history.move_to_end(key)
        if len(self._history) > HISTORY_CACHE_ENTRIES:
            self._history.popitem(last=False)
        return FieldPrediction(fields=fields.copy())

    def predict(self, strain_features) -> np.ndarray:
        """Raw fields (batch, steps, d) of raw strain-feature sequences
        (batch, steps, n_inputs), in one batch pass that keeps no history."""
        if not self.fitted:
            raise ValueError("surrogate has not been trained or loaded")
        out, _ = self._run_groups(self.input_norm.normalize(strain_features))
        return self._to_fields(out)

    def evaluate(self, dataset: ds.PackedDataset) -> EvaluationReport:
        """Normalized full-dimensional MSE against the dataset's fields.

        Predictions of every kind are mapped to raw fields first and then
        into the normalized field space, so reduced and direct surrogates
        are compared on the same reference.  Reduced kinds also report the
        PCA floor: the error of reconstructing the same data from its exact
        first ``p`` coefficients, the ones the surrogate predicts.  An
        untrained bundle raises the ``ValueError`` of :meth:`predict`.
        """
        per_mse = []
        lengths = []
        max_pred = []
        max_true = []
        floor_acc = 0.0
        floor_steps = 0
        for length in dataset.lengths:
            records = dataset.groups[length]
            pred = self.predict(np.stack([r.inputs for r in records]))
            truth = np.stack([r.outputs(self.family) for r in records])
            t_norm = self.field_norm.normalize(truth)
            p_norm = self.field_norm.normalize(pred)
            err = (p_norm - t_norm) ** 2
            per_mse.extend(np.mean(err, axis=(1, 2)).tolist())
            lengths.extend([length] * len(records))
            max_pred.extend(list(pred.max(axis=2)))
            max_true.extend(list(truth.max(axis=2)))
            if self.reduced:
                recon = pcalib.reconstruct(pcalib.project(truth, self.pca),
                                           self.pca)
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
        """Write the bundle to ``directory``; an untrained one raises a
        ``ValueError``."""
        if not self.fitted:
            raise ValueError("surrogate has not been trained: a saved bundle "
                             "holds its normalizations")
        directory = Path(directory)
        meta = {
            "kind": self.kind,
            "family": self.family,
            "arch": {
                "nnw_in": list(self.arch.nnw_in),
                "n_h": self.arch.n_h,
                "nnw_out": list(self.arch.nnw_out),
            },
            "q": self.q,
            "input_norm": self.input_norm.to_dict(),
            "output_norm": self.output_norm.to_dict(),
            "field_norm": self.field_norm.to_dict(),
        }
        ds.write_json(directory / BUNDLE_FILE, meta)
        if self.pca is not None:
            pcalib.save(directory / PCA_FILE, self.pca)
        for gi, model in enumerate(self.models):
            nn.save_model(directory / f"rnn_{gi:02d}.bin", model)

    @classmethod
    def load(cls, directory) -> "SurrogateBundle":
        """The bundle ``save`` wrote to ``directory``.

        ``_BUNDLE_TABLE`` checks every entry of its bundle file: the file
        must hold exactly the keys ``save`` writes, nested ones included,
        each of its JSON type.  Those are the kind, family, architecture, Q
        and normalizations, from which the bundle's ``p``, group map and
        start state follow; no seed is read, as nothing is drawn.  Each
        normalization must be as wide as what it maps.  Any other fault, or
        a model or PCA file that disagrees with the bundle, holds a
        non-finite value or is missing, raises a ``ValueError`` naming the
        file.  A loaded bundle is trained, and every one of its groups
        predicts.
        """
        directory = Path(directory)
        meta_file = directory / BUNDLE_FILE
        meta = ds.check_json(ds.read_json(meta_file), _BUNDLE_TABLE, meta_file)
        pca_model = (None if meta["kind"] == KIND_DIRECT
                     else pcalib.load(directory / PCA_FILE))
        try:
            bundle = cls(meta["kind"], Architecture(**meta["arch"]), meta["q"],
                         pca_model, meta["family"], seed=None)
            for name, width in (("input", bundle.arch.nnw_in[0]),
                                ("output", bundle.output_dim),
                                ("field", bundle.field_dim)):
                norm = ds.NormalizationSpec.from_dict(meta[f"{name}_norm"])
                if norm.minimum.size != width:
                    raise ValueError(
                        f"{name}_norm has {norm.minimum.size} features, but "
                        f"the bundle's {name} has {width}")
                setattr(bundle, f"{name}_norm", norm)
        except ValueError as err:
            raise ValueError(f"{meta_file}: {err}") from None
        for gi, model in enumerate(bundle.models):
            nn.load_model(directory / f"rnn_{gi:02d}.bin", model)
        return bundle


def _trial_score(bundle: SurrogateBundle, val_set: ds.PackedDataset) -> float:
    """Pearson correlation of a one-coefficient bundle's normalized
    predicted traces with the reference ones on ``val_set``; 0 when either
    is constant."""
    groups = bundle._group_arrays(val_set).values()
    pred = np.concatenate([bundle._run_groups(x)[0].ravel()
                           for x, _ in groups])
    true = np.concatenate([y.ravel() for _, y in groups])
    if pred.std() < 1e-12 or true.std() < 1e-12:
        return 0.0
    return float(np.corrcoef(pred, true)[0, 1])


def hidden_size_trial(
    train_set: ds.PackedDataset,
    val_set: ds.PackedDataset,
    pca_model: pcalib.PcaModel,
    arch: Architecture,
    config: nn.TrainConfig,
    target_p: int | None = None,
    start_n_h: int = 16,
    increment: int = 16,
    epoch_budget: int = 200,
    max_trials: int = 3,
    threshold: float = 0.9,
    family: str = ds.FAMILY_GAMMA,
) -> dict:
    """Hidden-size search for the surrogate of ``arch`` trained by ``config``.

    Each trial is a kind II bundle of ``arch`` and ``config``'s seed, with
    a hidden size of its own and one output: the coefficient of principal
    component ``target_p`` (1-indexed, spectral order; by default the 10th,
    or the last retained if fewer).  It trains on ``train_set`` by
    ``config`` for ``epoch_budget`` mini-batches, and is scored by the
    Pearson correlation of its normalized predicted coefficient traces with
    the reference ones on ``val_set``, which holds other paths; the hidden
    size grows until the score passes the threshold.  A trial whose
    training aborted lists its ``[group, batch]`` pairs in ``aborted`` and
    has no score, since ``train`` at that size diverges too, so it is never
    recommended.  Returns the report ``trial`` writes.
    """
    if target_p is None:
        target_p = min(pca_model.retained_p, 10)
    if target_p < 1 or target_p > pca_model.retained_p:
        raise ValueError(
            f"target_p={target_p} outside the retained range 1..{pca_model.retained_p}"
        )
    coefficient = pcalib.PcaModel(pca_model.mean, pca_model.eigenvalues,
                                  pca_model.components[:, target_p - 1:target_p])
    trials = []
    recommended = None
    for trial_index in range(max_trials):
        n_h = start_n_h + trial_index * increment
        bundle = SurrogateBundle(
            KIND_REDUCED, Architecture(arch.nnw_in, n_h, arch.nnw_out[:-1] + (1,)),
            pca=coefficient, family=family, seed=config.seed)
        history = bundle.train(train_set, replace(config, n_batches=epoch_budget))
        score = None if history.aborted else _trial_score(bundle, val_set)
        trials.append({"n_h": n_h, "score": score,
                       "final_loss": history.final_loss(),
                       "aborted": history.aborted})
        if score is not None and score >= threshold:
            recommended = n_h
            break
    return {"target_p": target_p, "threshold": threshold,
            "recommended": recommended, "trials": trials}
