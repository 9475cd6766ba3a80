"""Sequence dataset management: normalization, trimming, packing, batching, IO.

A sequence record pairs the per-step macro strain features (E_xx, E_yy, E_xy)
with the per-step state-variable fields produced by the micro-model.  Records
are pre-trimmed against a critical state value, padded or trimmed to fixed
length groups so they can be batched, and stored in a little-endian binary
format that round-trips bit-exactly.  :func:`draw_minibatches` is the one
mini-batch sampler: it draws a length group, then positions inside it.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

RECORD_MAGIC = b"RVESEQ1"
PATHSET_MAGIC = b"RVEPTH1"
FORMAT_VERSION = 1

FLAG_TRUNCATED = 0x01
FLAG_CYCLIC = 0x02

FAMILY_GAMMA = "gamma"
FAMILY_TAU = "tau"


@dataclass
class SequenceRecord:
    """One loading sequence: strain features in, state-variable fields out."""

    inputs: np.ndarray         # (n_steps, 3)
    outputs_gamma: np.ndarray  # (n_steps, d_gamma)
    outputs_tau: np.ndarray    # (n_steps, d_tau), MPa
    truncated: bool = False

    def __post_init__(self):
        self.inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        self.outputs_gamma = np.ascontiguousarray(self.outputs_gamma, dtype=np.float64)
        self.outputs_tau = np.ascontiguousarray(self.outputs_tau, dtype=np.float64)
        n = self.inputs.shape[0]
        if self.outputs_gamma.shape[0] != n or self.outputs_tau.shape[0] != n:
            raise ValueError("inputs and outputs must share the step count")

    @property
    def length(self) -> int:
        return self.inputs.shape[0]

    def outputs(self, family: str) -> np.ndarray:
        if family == FAMILY_GAMMA:
            return self.outputs_gamma
        if family == FAMILY_TAU:
            return self.outputs_tau
        raise ValueError(f"unknown state-variable family {family!r}")


@dataclass(frozen=True)
class NormalizationSpec:
    """Per-feature affine map onto [-1, 1] from stored min/max bounds.

    Degenerate (constant) features keep a unit half-range so normalization
    reduces to a pure shift; they are flagged for audit.  Values outside the
    fitted range pass through the affine map without clamping.
    """

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "minimum", np.asarray(self.minimum, dtype=np.float64))
        object.__setattr__(self, "maximum", np.asarray(self.maximum, dtype=np.float64))
        if self.minimum.shape != self.maximum.shape or self.minimum.ndim != 1:
            raise ValueError("min/max must be 1-d arrays of equal length")
        if np.any(self.maximum < self.minimum):
            raise ValueError("maximum < minimum")

    @property
    def n_features(self) -> int:
        return self.minimum.shape[0]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.minimum + self.maximum)

    @property
    def half_range(self) -> np.ndarray:
        hr = 0.5 * (self.maximum - self.minimum)
        return np.where(hr > 0.0, hr, 1.0)

    @property
    def degenerate(self) -> np.ndarray:
        return self.maximum == self.minimum

    def normalize(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return (x - self.center) / self.half_range

    def denormalize(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return x * self.half_range + self.center

    def to_dict(self) -> dict:
        return {
            "minimum": self.minimum.tolist(),
            "maximum": self.maximum.tolist(),
            "degenerate_features": np.flatnonzero(self.degenerate).tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationSpec":
        return cls(np.asarray(d["minimum"]), np.asarray(d["maximum"]))


def fit_normalization(blocks) -> NormalizationSpec:
    """Per-feature min/max bounds over an iterable of (steps, n_feat) blocks."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("cannot fit normalization on an empty record set")
    lo = np.min([np.min(b, axis=0) for b in blocks], axis=0)
    hi = np.max([np.max(b, axis=0) for b in blocks], axis=0)
    return NormalizationSpec(lo, hi)


def pre_trim(record: SequenceRecord, y_crit: float,
             family: str = FAMILY_GAMMA) -> SequenceRecord:
    """Cut the record before the first step a monitored component exceeds y_crit.

    A record whose first step already exceeds comes back with zero length and
    is meant to be excluded by the caller.
    """
    if y_crit <= 0.0:
        raise ValueError("y_crit must be positive")
    monitored = record.outputs(family)
    exceed = np.any(monitored > y_crit, axis=1)
    if not np.any(exceed):
        return record
    k = int(np.argmax(exceed))
    return replace(
        record,
        inputs=record.inputs[:k],
        outputs_gamma=record.outputs_gamma[:k],
        outputs_tau=record.outputs_tau[:k],
    )


def pad_or_trim(record: SequenceRecord, target_len: int) -> SequenceRecord:
    """Bring the record to an exact length.

    Short records repeat entry 0 at the start and the last entry at the end,
    splitting the padding as evenly as possible (the end gets the odd copy);
    long records drop trailing entries.
    """
    if target_len < 1:
        raise ValueError("target_len must be >= 1")
    n = record.length
    if n == 0:
        raise ValueError("cannot pad an empty record")
    if n == target_len:
        return record

    def adjust(block: np.ndarray) -> np.ndarray:
        if n > target_len:
            return block[:target_len]
        m = target_len - n
        m_front = m // 2
        m_back = m - m_front
        return np.concatenate(
            [np.repeat(block[:1], m_front, axis=0), block,
             np.repeat(block[-1:], m_back, axis=0)],
            axis=0,
        )

    return replace(
        record,
        inputs=adjust(record.inputs),
        outputs_gamma=adjust(record.outputs_gamma),
        outputs_tau=adjust(record.outputs_tau),
    )


@dataclass
class PackedDataset:
    """Fixed-length groups of records ready for mini-batch sampling."""

    groups: dict[int, list[SequenceRecord]]

    def __post_init__(self):
        for length, records in self.groups.items():
            for r in records:
                if r.length != length:
                    raise ValueError(
                        f"record of length {r.length} in group {length}"
                    )

    @property
    def lengths(self) -> list[int]:
        return sorted(self.groups)

    @property
    def n_sequences(self) -> int:
        return sum(len(v) for v in self.groups.values())

    def all_records(self):
        for length in self.lengths:
            yield from self.groups[length]


def pack_records(records, lengths, gamma_crit: float | None = None) -> PackedDataset:
    """Pre-trim and assemble fixed-length groups.

    The first (shortest) group takes every surviving record; each longer
    group takes only the records whose trimmed length exceeds the previous
    group's length, so long histories are represented without truncating
    them all the way down.
    """
    lengths = sorted(int(x) for x in lengths)
    if not lengths:
        raise ValueError("need at least one target length")
    trimmed = []
    for rec in records:
        if gamma_crit is not None:
            rec = pre_trim(rec, gamma_crit, FAMILY_GAMMA)
        if rec.length > 0:
            trimmed.append(rec)
    if not trimmed:
        raise ValueError("no records survived pre-trimming")
    groups: dict[int, list[SequenceRecord]] = {}
    previous = 0
    for target in lengths:
        eligible = [r for r in trimmed if r.length > previous]
        groups[target] = [pad_or_trim(r, target) for r in eligible]
        previous = target
    return PackedDataset(groups={k: v for k, v in groups.items() if v})


def draw_minibatches(group_sizes: dict[int, int], batch_size: int,
                     n_batches: int, rng: np.random.Generator):
    """Yield ``n_batches`` mini-batch draws as ``(length, indices)``.

    Each draw first picks a length group with probability proportional to
    its size, then ``batch_size`` uniform with-replacement positions inside
    that group.
    """
    lengths = sorted(group_sizes)
    sizes = [group_sizes[length] for length in lengths]
    weights = np.array(sizes, dtype=float)
    weights /= weights.sum()
    for _ in range(n_batches):
        li = int(rng.choice(len(lengths), p=weights))
        yield lengths[li], rng.integers(0, sizes[li], size=batch_size)


# ---------------------------------------------------------------------------
# binary formats


def _write_record_stream(fh, record: SequenceRecord) -> None:
    d_in = record.inputs.shape[1]
    d_g = record.outputs_gamma.shape[1]
    d_t = record.outputs_tau.shape[1]
    flags = FLAG_TRUNCATED if record.truncated else 0
    fh.write(RECORD_MAGIC)
    fh.write(struct.pack("<IIIIIB", FORMAT_VERSION, d_in, d_g, d_t,
                         record.length, flags))
    fh.write(record.inputs.astype("<f8").tobytes())
    fh.write(record.outputs_gamma.astype("<f8").tobytes())
    fh.write(record.outputs_tau.astype("<f8").tobytes())


def _read_record_stream(fh) -> SequenceRecord:
    magic = fh.read(len(RECORD_MAGIC))
    if magic != RECORD_MAGIC:
        raise ValueError(f"bad record magic {magic!r}")
    version, d_in, d_g, d_t, length, flags = struct.unpack(
        "<IIIIIB", fh.read(struct.calcsize("<IIIIIB"))
    )
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported record format version {version}")

    def block(cols):
        raw = fh.read(8 * length * cols)
        return np.frombuffer(raw, dtype="<f8").reshape(length, cols).copy()

    return SequenceRecord(
        inputs=block(d_in),
        outputs_gamma=block(d_g),
        outputs_tau=block(d_t),
        truncated=bool(flags & FLAG_TRUNCATED),
    )


def write_record(path, record: SequenceRecord) -> None:
    with open(path, "wb") as fh:
        _write_record_stream(fh, record)


def read_record(path) -> SequenceRecord:
    with open(path, "rb") as fh:
        return _read_record_stream(fh)


def write_dataset(directory, records, manifest: dict | None = None) -> None:
    directory = Path(directory)
    (directory / "records").mkdir(parents=True, exist_ok=True)
    for i, rec in enumerate(records):
        write_record(directory / "records" / f"record_{i:06d}.rveseq", rec)
    if manifest is not None:
        write_json(directory / "manifest.json", manifest)


def read_dataset(directory) -> list[SequenceRecord]:
    directory = Path(directory)
    files = sorted((directory / "records").glob("record_*.rveseq"))
    if not files:
        raise FileNotFoundError(f"no .rveseq records under {directory}")
    return [read_record(f) for f in files]


def write_pathset(path, stretch_blocks, kinds) -> None:
    """Store loading paths as per-step in-plane stretch components."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(PATHSET_MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(stretch_blocks)))
        for u, kind in zip(stretch_blocks, kinds):
            u = np.asarray(u, dtype=np.float64)
            comps = np.stack([u[:, 0, 0], u[:, 1, 1], u[:, 0, 1]], axis=-1)
            flags = FLAG_CYCLIC if kind == "cyclic" else 0
            fh.write(struct.pack("<IB", comps.shape[0], flags))
            fh.write(comps.astype("<f8").tobytes())


def read_pathset(path):
    """Load loading paths; returns (list of (n,3,3) stretches, list of kinds)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(PATHSET_MAGIC))
        if magic != PATHSET_MAGIC:
            raise ValueError(f"bad path-set magic {magic!r}")
        version, count = struct.unpack("<II", fh.read(8))
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported path-set version {version}")
        blocks = []
        kinds = []
        for _ in range(count):
            length, flags = struct.unpack("<IB", fh.read(5))
            comps = np.frombuffer(fh.read(8 * 3 * length), dtype="<f8")
            comps = comps.reshape(length, 3)
            u = np.zeros((length, 3, 3))
            u[:, 0, 0] = comps[:, 0]
            u[:, 1, 1] = comps[:, 1]
            u[:, 0, 1] = comps[:, 2]
            u[:, 1, 0] = comps[:, 2]
            u[:, 2, 2] = 1.0
            blocks.append(u)
            kinds.append("cyclic" if flags & FLAG_CYCLIC else "random_walk")
    return blocks, kinds


def write_json(path, payload: dict) -> None:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_normspecs(path, specs: dict[str, NormalizationSpec]) -> None:
    write_json(path, {name: spec.to_dict() for name, spec in specs.items()})


def read_normspecs(path) -> dict[str, NormalizationSpec]:
    return {
        name: NormalizationSpec.from_dict(d)
        for name, d in read_json(path).items()
    }
