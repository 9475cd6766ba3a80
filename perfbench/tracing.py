"""Outside-in call recording for the benchmark.

The package is not instrumented.  Instead, :func:`install` replaces the
attributes that the package's callers resolve at call time -- module
attributes such as ``tensorlab.sym_eig`` and class attributes such as
``neural.RnnModel.forward`` -- with wrappers that report to a
:class:`Recorder`, and :func:`uninstall` puts the originals back.

A repetition -- of the timed section or of the set-up -- runs in one of
three modes:

* ``off``: no wrapper is installed (untraced repetitions);
* ``count``: wrappers only bump deterministic counters (calls, points,
  row-steps, computed flop and bytes); every run makes one untimed
  set-up and one untimed repetition in this mode, so the untraced run
  reports exact counts too;
* ``span``: wrappers also record a span per call -- name, start, end,
  parent span and repetition -- kept in memory and written out at the end.
  Timed repetitions are numbered from 1, set-ups from -1 downwards.

Self time of a span is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from rvesurrogate import cli
from rvesurrogate import datastore as ds
from rvesurrogate import micromodel as mm
from rvesurrogate import neural as nn
from rvesurrogate import pathgen as pg
from rvesurrogate import pca as pcalib
from rvesurrogate import surrogate as sg
from rvesurrogate import tensorlab as tl

OFF, COUNT, SPAN = "off", "count", "span"


class Recorder:
    """Per-repetition counters plus, in span mode, the span list."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.mode = OFF
        self.rep = -1
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # (name, start, end, parent index, rep)
        self._stack: list[int] = []
        self.query_depth = 0

    def begin_rep(self, rep: int, mode: str) -> None:
        self.rep = rep
        self.mode = mode
        self.counts = Counter()

    def end_rep(self) -> dict:
        self.mode = OFF
        return dict(self.counts)

    def call(self, name: str, fn, args, kwargs, counter):
        self.counts[name + ".calls"] += 1
        if self.mode == COUNT:
            out = fn(*args, **kwargs)
        else:
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.rep)
        if counter is not None:
            counter(self, args, out)
        return out

    def spans_payload(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["name", "start_s", "end_s", "parent", "rep"],
            "spans": [list(s) for s in self.spans],
        }


# ---------------------------------------------------------------------------
# computed counters, evaluated on the wrapped call's arguments and result


def _count_points(name: str):
    """Counter of the material points in a batch of deformation gradients."""
    def counter(rec, args, out):
        rec.counts[name + ".points"] += int(np.prod(np.shape(args[0])[:-2]))
    return counter


def _count_run_sequence(rec, args, out):
    steps, d_gamma = out.gamma.shape
    increments = np.diff(out.gamma, axis=0, prepend=0.0)
    rec.counts["micromodel.converged_steps"] += steps
    rec.counts["micromodel.point_steps"] += steps * d_gamma
    rec.counts["micromodel.plastic_point_steps"] += int(np.count_nonzero(increments > 0.0))
    rec.counts["micromodel.truncated_paths"] += int(out.truncated)


def _count_path(rec, args, out):
    rec.counts["pathgen.macro_steps"] += len(out)


def _count_write_dataset(rec, args, out):
    directory = Path(args[0]) / "records"
    n_records = len(args[1])
    rec.counts["datastore.bytes_written"] += sum(
        (directory / f"record_{i:06d}.rveseq").stat().st_size
        for i in range(n_records)
    )


def forward_matmul_flop(model: nn.RnnModel, rows: int) -> int:
    """Multiply-add flop of one forward pass over ``rows`` (batch x steps)."""
    dense = sum(
        a * b
        for net in (model.nnw_in, model.nnw_out)
        for a, b in zip(net.sizes[:-1], net.sizes[1:])
    )
    gru = 3 * model.gru.n_h * (model.gru.n_in + model.gru.n_h)
    return 2 * rows * (dense + gru)


def _count_forward(rec, args, out):
    model, inputs = args[0], args[1]
    n_b, n_t = np.shape(inputs)[:2]
    rows = n_b * n_t
    rec.counts["neural.forward.row_steps"] += rows
    rec.counts["neural.forward.flop"] += forward_matmul_flop(model, rows)
    if rec.query_depth:
        rec.counts["neural.forward.query_calls"] += 1
        rec.counts["neural.forward.query_row_steps"] += rows


def _count_backward(rec, args, out):
    model, cache = args[0], args[1]
    n_b, n_t = cache[0][:2]
    rows = n_b * n_t
    rec.counts["neural.backward.row_steps"] += rows
    # every forward product has a weight-gradient and an input-gradient twin
    rec.counts["neural.backward.flop"] += 2 * forward_matmul_flop(model, rows)


# ---------------------------------------------------------------------------
# wrapped attributes

# (span name, owner, attribute, counter)
TARGETS = (
    ("tensorlab.sym_eig", tl, "sym_eig", None),
    ("tensorlab.inv", tl, "inv", None),
    ("tensorlab.det", tl, "det", None),
    ("micromodel.run_sequence", mm, "run_sequence", _count_run_sequence),
    ("micromodel.matrix_update", mm, "matrix_update",
     _count_points("micromodel.matrix_update")),
    ("micromodel.fiber_stress", mm, "fiber_stress",
     _count_points("micromodel.fiber_stress")),
    ("pathgen.generate_random_path", pg, "generate_random_path", _count_path),
    ("pathgen.generate_cyclic_path", pg, "generate_cyclic_path", _count_path),
    ("datastore.write_dataset", ds, "write_dataset", _count_write_dataset),
    ("datastore.read_dataset", ds, "read_dataset", None),
    ("datastore.pack_records", ds, "pack_records", None),
    ("datastore.fit_normalization", ds, "fit_normalization", None),
    ("cli.sha256_file", cli, "sha256_file", None),
    ("cli.hash_tree", cli, "hash_tree", None),
    ("pca.fit", pcalib, "fit", None),
    ("pca.project", pcalib, "project", None),
    ("pca.reconstruct", pcalib, "reconstruct", None),
    ("neural.forward", nn.RnnModel, "forward", _count_forward),
    ("neural.backward", nn.RnnModel, "backward", _count_backward),
    ("neural.adam", nn.Adam, "step", None),
    ("neural.clip", nn, "clip_gradient_norm", None),
    ("surrogate.train", sg.SurrogateBundle, "train", None),
    ("surrogate.evaluate", sg.SurrogateBundle, "evaluate", None),
    ("surrogate.fit_normalization", sg.SurrogateBundle, "fit_normalization", None),
)


def _wrap(rec: Recorder, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, counter)
    return wrapper


def _wrap_run_stage(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(stage, *args, **kwargs):
        return rec.call(f"cli.stage.{stage}", fn, (stage,) + args, kwargs, None)
    return wrapper


def _wrap_predict_fields(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.query_depth += 1
        try:
            return rec.call("surrogate.predict_fields", fn, args, kwargs, None)
        finally:
            rec.query_depth -= 1
    return wrapper


def install(rec: Recorder) -> list[tuple]:
    """Patch every target; returns what :func:`uninstall` needs."""
    saved = []
    for name, owner, attr, counter in TARGETS:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(rec, name, original, counter))
    for owner, attr, make in ((cli, "run_stage", _wrap_run_stage),
                              (sg.SurrogateBundle, "predict_fields",
                               _wrap_predict_fields)):
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, make(rec, original))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# span aggregation


class SpanTable:
    """Per-name totals, self times and ancestry queries over a span list.

    Only spans whose repetition satisfies ``keep`` are tabled; a span's
    parent belongs to the same repetition, so it is kept with it.
    """

    def __init__(self, spans: list[tuple], keep=lambda rep: True):
        self.spans = spans
        self.kept = [i for i, s in enumerate(spans) if keep(s[4])]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        for i in self.kept:
            name, start, end, parent, _rep = spans[i]
            self.total[name] += end - start
            self.self_time[name] += end - start
            if parent >= 0:
                self.self_time[spans[parent][0]] -= end - start

    def has_ancestor(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def time_under(self, prefix: str, ancestor: str) -> float:
        """Summed duration of ``prefix*`` spans that run inside ``ancestor``."""
        return sum(
            self.spans[i][2] - self.spans[i][1]
            for i in self.kept
            if self.spans[i][0].startswith(prefix) and self.has_ancestor(i, ancestor)
        )
