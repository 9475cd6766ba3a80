"""Sequence dataset management: normalization, trimming, packing, batching, IO.

A sequence record pairs the per-step macro strain features (E_xx, E_yy, E_xy)
with the per-step state-variable fields produced by the micro-model.  Records
are pre-trimmed against a critical state value, padded or trimmed to fixed
length groups so they can be batched, and stored in a little-endian binary
format that round-trips bit-exactly.  :func:`draw_minibatches` is the one
mini-batch sampler: it draws a length group, then positions inside it.

Binary layout: path sets, records, PCA bases and RNN model files are each a
7-byte magic, a ``<I`` version, then ``struct`` fields and C-ordered ``<f8``
blocks, and nothing more.  :func:`write_binary` is its one writer and
:class:`BinaryReader` its one reader, which names the file in every fault.

JSON: :func:`write_json` writes every JSON artifact and :func:`read_json`
reads the two JSON files the pipeline reads, the config and a bundle's
``bundle.json``.  The reader of each states its layout as one typed table,
``{key: (type, default)}``, and :func:`check_json` checks the file against
it and fills in the defaults.  So an unknown, missing or mistyped key of
either file is a ``ValueError`` that names the file and the dotted key.

CSV: :func:`write_csv` writes every CSV artifact; the pipeline reads none.
"""

from __future__ import annotations

import json
import shutil
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import pathgen as pg

RECORD_MAGIC = b"RVESEQ1"
PATHSET_MAGIC = b"RVEPTH1"
FORMAT_VERSION = 1

FLAG_TRUNCATED = 0x01
FLAG_CYCLIC = 0x02

FAMILY_GAMMA = "gamma"
FAMILY_TAU = "tau"
FAMILIES = (FAMILY_GAMMA, FAMILY_TAU)


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
    reduces to a pure shift.  Values outside the fitted range pass through
    the affine map without clamping.  The map's center and half-range are
    computed once, from the bounds as given.
    """

    minimum: np.ndarray
    maximum: np.ndarray
    center: np.ndarray = field(init=False, repr=False, compare=False)
    half_range: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "minimum", np.asarray(self.minimum, dtype=np.float64))
        object.__setattr__(self, "maximum", np.asarray(self.maximum, dtype=np.float64))
        if self.minimum.shape != self.maximum.shape or self.minimum.ndim != 1:
            raise ValueError("min/max must be 1-d arrays of equal length")
        if np.any(self.maximum < self.minimum):
            raise ValueError("maximum < minimum")
        object.__setattr__(self, "center", 0.5 * (self.minimum + self.maximum))
        hr = 0.5 * (self.maximum - self.minimum)
        object.__setattr__(self, "half_range", np.where(hr > 0.0, hr, 1.0))

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


def pre_trim(record: SequenceRecord, gamma_crit: float) -> SequenceRecord:
    """Cut the record before the first step a gamma component exceeds
    ``gamma_crit``.

    A record whose first step already exceeds comes back with zero length and
    is meant to be excluded by the caller.
    """
    if gamma_crit <= 0.0:
        raise ValueError("gamma_crit must be positive")
    exceed = np.any(record.outputs_gamma > gamma_crit, axis=1)
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

    def all_records(self):
        for length in self.lengths:
            yield from self.groups[length]


def pack_records(records, lengths, gamma_crit: float | None = None) -> PackedDataset:
    """Pre-trim and assemble fixed-length groups.

    The first (shortest) group takes every surviving record; each longer
    group takes only the records whose trimmed length exceeds the previous
    group's length, so long histories are represented without truncating
    them all the way down.  A repeated length raises a ``ValueError``: its
    second group would replace the first with only the longer records.
    """
    lengths = sorted(int(x) for x in lengths)
    if not lengths:
        raise ValueError("need at least one target length")
    repeated = sorted({a for a, b in zip(lengths, lengths[1:]) if a == b})
    if repeated:
        raise ValueError(f"target lengths repeat {repeated}")
    trimmed = []
    for rec in records:
        if gamma_crit is not None:
            rec = pre_trim(rec, gamma_crit)
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
# binary layout


def write_binary(path, magic: bytes, version: int, *parts) -> None:
    """Write ``magic``, ``version`` as ``<I`` and ``parts`` to ``path``, each
    a ``(struct format, *values)`` tuple or an array of ``<f8`` values."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<I", version))
        for part in parts:
            # a C-ordered float64 array is written from its own buffer
            fh.write(struct.pack(*part) if isinstance(part, tuple)
                     else np.ascontiguousarray(part, dtype="<f8"))


class BinaryReader:
    """Checked reads, in order, of the parts of a :func:`write_binary` file:
    each fault, a missing file too, raises a ``ValueError`` that names it."""

    def __init__(self, path, magic: bytes, version: int):
        self.path = path
        try:
            self._raw = Path(path).read_bytes()
        except OSError as err:
            raise self.error(err.strerror) from None
        self._at = len(magic)
        if self._raw[:self._at] != magic:
            raise self.error(f"bad magic {self._raw[:self._at]!r}, "
                             f"expected {magic!r}")
        (found,) = self.unpack("<I")
        if found != version:
            raise self.error(f"format version {found}, expected {version}")

    def error(self, message: str) -> ValueError:
        """The ``ValueError`` of a fault of this file, to raise."""
        return ValueError(f"{self.path}: {message}")

    def _take(self, size: int) -> int:
        """Offset of the next ``size`` bytes, which the reader steps over."""
        start, self._at = self._at, self._at + size
        if self._at > len(self._raw):
            raise self.error(f"the file ends {self._at - len(self._raw)} "
                             "bytes short of its next block")
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self._raw,
                                  self._take(struct.calcsize(fmt)))

    def floats(self, where: str, *shape) -> np.ndarray:
        """The next block, a read-only view of the file's bytes: a caller
        copies what it keeps, once.  Every value must be finite; ``where``
        names the block and, as ``{}``, an index of its first axis, for the
        first one that holds a fault."""
        count = int(np.prod(shape))
        block = np.frombuffer(self._raw, dtype="<f8", count=count,
                              offset=self._take(8 * count)).reshape(shape)
        finite = np.isfinite(block).all(axis=tuple(range(1, block.ndim)))
        if not finite.all():
            raise self.error("non-finite value in "
                             + where.format(np.argmin(finite)))
        return block

    def finish(self) -> None:
        if self._at < len(self._raw):
            raise self.error(f"{len(self._raw) - self._at} bytes remain after "
                             "the last block")


def write_record(path, record: SequenceRecord) -> None:
    blocks = (record.inputs, record.outputs_gamma, record.outputs_tau)
    write_binary(path, RECORD_MAGIC, FORMAT_VERSION,
                 ("<IIIIB", *(b.shape[1] for b in blocks), record.length,
                  FLAG_TRUNCATED if record.truncated else 0), *blocks)


def read_record(path) -> SequenceRecord:
    """One record; a malformed file, a non-finite value too, raises a
    ``ValueError`` naming it."""
    reader = BinaryReader(path, RECORD_MAGIC, FORMAT_VERSION)
    *widths, length, flags = reader.unpack("<IIIIB")
    blocks = [reader.floats(f"the {name} block at step {{}}", length, d).copy()
              for d, name in zip(widths, ("inputs", FAMILY_GAMMA, FAMILY_TAU))]
    reader.finish()
    return SequenceRecord(*blocks, truncated=bool(flags & FLAG_TRUNCATED))


def write_dataset(directory, records) -> None:
    """Write ``records`` under ``directory/records``, replacing the records
    of any earlier write there."""
    directory = Path(directory)
    shutil.rmtree(directory / "records", ignore_errors=True)
    (directory / "records").mkdir(parents=True)
    for i, rec in enumerate(records):
        write_record(directory / "records" / f"record_{i:06d}.rveseq", rec)


def read_dataset(directory) -> list[SequenceRecord]:
    directory = Path(directory)
    files = sorted((directory / "records").glob("record_*.rveseq"))
    if not files:
        raise FileNotFoundError(f"no .rveseq records under {directory}")
    return [read_record(f) for f in files]


def write_pathset(path, paths) -> None:
    """Store ``pathgen.LoadingPath``s as per-step (U_xx, U_yy, U_xy)
    stretch components and a cyclic flag."""
    parts = []
    for lp in paths:
        u = lp.stretches
        flags = FLAG_CYCLIC if lp.kind == pg.KIND_CYCLIC else 0
        parts += [("<IB", len(lp), flags),
                  np.stack([u[:, 0, 0], u[:, 1, 1], u[:, 0, 1]], axis=-1)]
    write_binary(path, PATHSET_MAGIC, FORMAT_VERSION, ("<I", len(paths)),
                 *parts)


def read_pathset(path) -> list[pg.LoadingPath]:
    """Load the ``pathgen.LoadingPath``s that ``write_pathset`` stored, with
    symmetric in-plane stretch blocks; a malformed file, one holding a path
    that is no finite ``LoadingPath`` too, raises a ``ValueError`` naming it."""
    reader = BinaryReader(path, PATHSET_MAGIC, FORMAT_VERSION)
    (count,) = reader.unpack("<I")
    paths = []
    for i in range(count):
        length, flags = reader.unpack("<IB")
        u = reader.floats(f"path {i} at step {{}}", length, 3)[:, [0, 2, 2, 1]]
        kind = pg.KIND_CYCLIC if flags & FLAG_CYCLIC else pg.KIND_RANDOM_WALK
        try:
            paths.append(pg.LoadingPath(u.reshape(length, 2, 2), kind))
        except ValueError as err:
            raise reader.error(str(err)) from None
    reader.finish()
    return paths


def write_json(path, payload: dict) -> None:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows, digits: int = 10) -> None:
    """The ``header`` line, then one line per row of ``rows``: an integer as
    it is, a real in ``.{digits}e`` notation."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, (int, np.integer))
                              else f"{v:.{digits}e}" for v in row) + "\n")


def read_json(path):
    """The JSON value in ``path``; text that is not JSON raises a
    ``ValueError`` that names the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as err:
            raise ValueError(f"{path}: not JSON ({err})") from None


# marks a key of a JSON table without a default
_REQUIRED = object()

# the Python types of each JSON type name a table may use
_TYPE_NAMES = {"int": (int,), "real": (int, float), "str": (str,),
               "list": (list, tuple), "null": (type(None),)}


def required(**types) -> dict:
    """Table entries of keys without a default, each of its type."""
    return {key: (kind, _REQUIRED) for key, kind in types.items()}


def _is_json(value, names: str) -> bool:
    """Whether ``value`` is of one of the ``|``-joined JSON type names."""
    types = sum((_TYPE_NAMES[name] for name in names.split("|")), ())
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, types) and not isinstance(value, bool)


def check_json(value, kind, source=None, key: str = ""):
    """``value`` checked against ``kind``, with defaults filled in.

    ``kind`` is a table, ``{key: (type, default)}``, for a JSON object, or
    the type of one entry: a nested table, or JSON type names (``"int"``,
    ``"real"``, ``"str"``, ``"list"``, ``"null"``) joined by ``|``, with a
    list's element type after `` of `` (``"real|null"``, ``"list of int"``).
    ``true`` and ``false`` are not numbers.  A key that :func:`required`
    made has no default.  An unknown, missing or mistyped key raises a
    ``ValueError`` that names ``source``, when given, and the key, dotted
    below ``key``.
    """
    def fault(message: str) -> ValueError:
        return ValueError(f"{source}: {message}" if source else message)

    if not isinstance(kind, dict):
        outer, _, element = kind.partition(" of ")
        if not _is_json(value, outer) or (element and not all(
                _is_json(v, element) for v in value)):
            raise fault(f"{key} must be {kind.replace('|', ' or ')}, "
                        f"got {value!r}")
        return value
    if not isinstance(value, dict):
        raise fault(f"{key or 'the top level'} must be a JSON object, "
                    f"got {value!r}")

    def dotted(name: str) -> str:
        return f"{key}.{name}" if key else name

    unknown = sorted(dotted(name) for name in value if name not in kind)
    missing = [dotted(name) for name, (_, default) in kind.items()
               if default is _REQUIRED and name not in value]
    for names, what in ((unknown, "unknown"), (missing, "missing")):
        if names:
            raise fault(f"{what} keys: {', '.join(names)}")
    out = {name: check_json(v, kind[name][0], source, dotted(name))
           for name, v in value.items()}
    for name, (sub, default) in kind.items():
        if name not in out:
            out[name] = check_json(default, sub, source, dotted(name))
    return out
