"""Principal-component reduction of state-variable field snapshots.

The covariance-style matrix ``M = A A^T`` is built from the column-centered
data matrix ``A`` of (optionally subsampled) snapshots and decomposed with a
dense symmetric eigensolver, and the leading ``p`` components are retained.
The model keeps the full spectrum, so :func:`residual_fraction` gives the
residual fractional eigenvalue ``1 - sum_{i<=p} L_i / sum_k L_k`` of any
``p``.

Storage: :func:`save` writes ``d``, ``p``, the mean, the spectrum and the
components in ``datastore``'s one binary layout (see its module notes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import datastore as ds
from .pathgen import make_rng

PCA_MAGIC = b"RVEPCA1"
PCA_VERSION = 1

DEFAULT_DIMENSION_CAP = 10_000
EIGENVALUE_FLOOR_REL = 1e-12


@dataclass
class PcaModel:
    """Mean, full eigenvalue spectrum and retained principal components."""

    mean: np.ndarray         # (d,)
    eigenvalues: np.ndarray  # (d,), descending, non-negative
    components: np.ndarray   # (d, p), orthonormal columns

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        self.components = np.asarray(self.components, dtype=np.float64)
        if self.components.shape[0] != self.mean.shape[0]:
            raise ValueError("component rows must match the field dimension")

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    @property
    def retained_p(self) -> int:
        return self.components.shape[1]


def fit(
    snapshots,
    p: int,
    subsample_fraction: float = 1.0,
    seed: int = 0,
) -> PcaModel:
    """Fit principal components on a (possibly subsampled) snapshot set.

    ``snapshots`` is an (n, d) array or a list of length-d vectors, and the
    leading ``p`` components, ``0 <= p <= d``, are retained.  Subsampling is
    uniform without replacement and seeded.  A field dimension above
    ``DEFAULT_DIMENSION_CAP`` is rejected before the d x d matrix is built.
    """
    x = np.asarray(snapshots, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("snapshots must form an (n, d) matrix")
    n, d = x.shape
    if d > DEFAULT_DIMENSION_CAP:
        raise ValueError(
            f"field dimension {d} exceeds the cap {DEFAULT_DIMENSION_CAP}; "
            "decompose in snapshot space (n x n) instead of assembling the "
            "d x d matrix"
        )
    if not 0.0 < subsample_fraction <= 1.0:
        raise ValueError("subsample_fraction must be in (0, 1]")

    if subsample_fraction < 1.0:
        keep = max(2, int(round(subsample_fraction * n)))
        rng = make_rng(seed)
        idx = np.sort(rng.choice(n, size=min(keep, n), replace=False))
        x = x[idx]
    if x.shape[0] < 2:
        raise ValueError("need at least 2 snapshots after subsampling")

    mean = x.mean(axis=0)
    centered = x - mean
    m = centered.T @ centered  # = A A^T with A the column-stacked data matrix

    vals, vecs = np.linalg.eigh(m)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    vals[vals < 0.0] = 0.0
    if vals[0] > 0.0:
        vals[vals < EIGENVALUE_FLOOR_REL * vals[0]] = 0.0
    # deterministic sign convention: largest-magnitude entry positive
    flip = np.take_along_axis(
        vecs, np.abs(vecs).argmax(axis=0)[None, :], axis=0
    )[0] < 0.0
    vecs[:, flip] *= -1.0

    if not 0 <= p <= d:
        raise ValueError(f"retained dimension p={p} outside [0, {d}]")
    return PcaModel(mean=mean, eigenvalues=vals, components=vecs[:, :p])


def residual_fraction(model: PcaModel, p: int) -> float:
    """Residual fractional eigenvalue after keeping the leading p components."""
    if not 0 <= p <= model.d:
        raise ValueError(f"p must lie in [0, {model.d}]")
    total = model.eigenvalues.sum()
    if total <= 0.0:
        return 0.0
    return float(1.0 - model.eigenvalues[:p].sum() / total)


def project(x, model: PcaModel) -> np.ndarray:
    """Coefficients of the retained components: V^T (x - mean)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.d:
        raise ValueError(f"expected trailing dimension {model.d}, got {x.shape}")
    return (x - model.mean) @ model.components


def reconstruct(xi, model: PcaModel) -> np.ndarray:
    """Field reconstruction V xi + mean."""
    xi = np.asarray(xi, dtype=np.float64)
    if xi.shape[-1] != model.retained_p:
        raise ValueError(
            f"expected trailing dimension {model.retained_p}, got {xi.shape}"
        )
    return xi @ model.components.T + model.mean


def save(path, model: PcaModel) -> None:
    ds.write_binary(path, PCA_MAGIC, PCA_VERSION,
                    ("<II", model.d, model.retained_p),
                    model.mean, model.eigenvalues, model.components)


def load(path) -> PcaModel:
    """The basis ``save`` wrote; a malformed file, a non-finite value too,
    raises a ``ValueError`` naming it."""
    reader = ds.BinaryReader(path, PCA_MAGIC, PCA_VERSION)
    d, p = reader.unpack("<II")
    model = PcaModel(reader.floats("the mean at entry {}", d).copy(),
                     reader.floats("the eigenvalues at entry {}", d).copy(),
                     reader.floats("the components at entry {}", d, p).copy())
    reader.finish()
    return model

