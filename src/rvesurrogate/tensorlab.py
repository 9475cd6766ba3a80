"""Plane-strain tensor algebra for finite-strain kinematics.

Tensors are numpy arrays of shape ``(..., 3, 3)`` (an arbitrary batch of
second-order tensors) in 64-bit floats.  In plane strain every tensor is
block-diagonal: an in-plane 2x2 block in the first two rows and columns, an
out-of-plane entry ``[2, 2]``, and zero couplings between the two.
``blocks`` splits a tensor into these parts and ``from_blocks`` joins them,
so callers do 2x2 algebra on the in-plane blocks and scalar algebra on the
out-of-plane entries; ``det``, ``inv`` and ``sym_eig`` work the same way.
Each of them raises ``ValueError`` on a tensor with a non-zero coupling.

The symmetric eigendecomposition is closed form: the in-plane block is
diagonalized by one symmetric Schur (Jacobi) rotation, whose tangent comes
from the quadratic ``t^2 + 2 theta t - 1 = 0`` with
``theta = (yy - xx) / (2 xy)``; the out-of-plane entry is the third
eigenvalue.  A second rotation runs only where the first leaves an
off-diagonal entry above 1e-15 of the Frobenius norm.  The kernel uses only
correctly rounded operations (``+ - * / sqrt``), selections and numpy's
matmul, so a tensor decomposes bit-identically alone or inside a batch.

Every routine performs exactly the floating-point operations of its general
3x3 counterpart (cofactor expansion, adjugate inverse, cyclic Jacobi sweeps
over the three index pairs), minus the terms that the zero couplings make
exact no-ops.  Results are therefore bit-identical to the general 3x3
algebra, and so are the micro-model fields built on them
(``tests/test_micromodel.py`` checks this against a 3x3 oracle).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_COUPLINGS = np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=bool)
_ROTATION_REL_TOL = 1e-15
_MAX_ROTATIONS = 30


class SpectralDecomp(NamedTuple):
    """Eigenvalues (descending) and orthonormal eigenvector columns."""

    values: np.ndarray   # (..., 3)
    vectors: np.ndarray  # (..., 3, 3), column i pairs with values[..., i]


def _as_tensor(t) -> np.ndarray:
    a = np.asarray(t, dtype=np.float64)
    if a.shape[-2:] != (3, 3):
        raise ValueError(f"expected trailing shape (3, 3), got {a.shape}")
    return a


def blocks(t):
    """In-plane 2x2 blocks ``(..., 2, 2)`` and out-of-plane entries ``(...)``.

    Both are views of the input.  Raises ``ValueError`` when an out-of-plane
    coupling is non-zero.
    """
    a = _as_tensor(t)
    if np.count_nonzero(a[..., _COUPLINGS]):
        raise ValueError("tensor has non-zero out-of-plane couplings; "
                         "expected a plane-strain tensor")
    return a[..., :2, :2], a[..., 2, 2]


def from_blocks(in_plane, out_of_plane) -> np.ndarray:
    """Plane-strain tensors from in-plane blocks and out-of-plane entries."""
    in_plane = np.asarray(in_plane, dtype=np.float64)
    out = np.zeros(in_plane.shape[:-2] + (3, 3))
    out[..., :2, :2] = in_plane
    out[..., 2, 2] = out_of_plane
    return out


def _det(b, z) -> np.ndarray:
    # cofactor expansion along the first row
    return b[..., 0, 0] * (b[..., 1, 1] * z) - b[..., 0, 1] * (b[..., 1, 0] * z)


def det(t) -> np.ndarray:
    """Determinant of plane-strain tensors."""
    return _det(*blocks(t))


def inv(t) -> np.ndarray:
    """Inverse of plane-strain tensors, via the adjugate."""
    b, z = blocks(t)
    d = _det(b, z)
    if (np.abs(d) < 1e-300).any():
        raise ValueError("singular tensor passed to inv")
    adj = np.empty_like(b)
    adj[..., 0, 0] = b[..., 1, 1] * z
    adj[..., 0, 1] = -(b[..., 0, 1] * z)
    adj[..., 1, 0] = -(b[..., 1, 0] * z)
    adj[..., 1, 1] = b[..., 0, 0] * z
    return from_blocks(adj / d[..., None, None], (
        b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0]) / d)


def sym_eig(s) -> SpectralDecomp:
    """Closed-form eigendecomposition of symmetric plane-strain tensors.

    Returns eigenvalues in descending order with matching orthonormal
    eigenvector columns; the out-of-plane eigenvector is ``e_3``.  Raises
    ``ValueError`` on non-finite or non-symmetric input and on a non-zero
    out-of-plane coupling.
    """
    a = _as_tensor(s)
    if not np.isfinite(a).all():
        raise ValueError("non-finite entries in sym_eig input")
    b, z = blocks(a)
    # only the in-plane shear pair can be asymmetric; the bound is
    # 1e-9 max(|a|, 1), so |a| is needed only past 1e-9
    asym = np.abs(b[..., 0, 1] - b[..., 1, 0]).max()
    if asym > 1e-9 and asym > 1e-9 * np.abs(a).max():
        raise ValueError(f"sym_eig input not symmetric (max asymmetry {asym:g})")
    batch = a.shape[:-2]
    a = b.reshape(-1, 2, 2).copy()
    z = z.reshape(-1)
    a[:, 0, 1] = a[:, 1, 0] = 0.5 * (a[:, 0, 1] + a[:, 1, 0])

    sq = a * a
    norm = np.sqrt((((sq[:, 0, 0] + sq[:, 0, 1]) + sq[:, 1, 0]) + sq[:, 1, 1])
                   + z * z)
    tol = _ROTATION_REL_TOL * np.maximum(norm, np.finfo(np.float64).tiny)
    v = None
    for _ in range(_MAX_ROTATIONS):
        apq = a[:, 0, 1]
        if (np.sqrt(apq * apq) <= tol).all():
            break
        # entries already diagonal rotate by exactly zero, so a tensor's
        # result does not depend on the rest of the batch
        active = np.abs(apq) > tol
        # the tangent of the rotation angle is the root of t^2 + 2 theta t - 1
        # of smaller magnitude, t = 1 for theta = 0
        theta = (a[:, 1, 1] - a[:, 0, 0]) / (2.0 * np.where(active, apq, 1.0))
        tval = np.where(theta < 0.0, -1.0, 1.0) / (
            np.abs(theta) + np.sqrt(theta * theta + 1.0))
        c = 1.0 / np.sqrt(tval * tval + 1.0)
        sn = np.where(active, tval * c, 0.0)
        c = np.where(active, c, 1.0)
        g = np.empty_like(a)
        gt = np.empty_like(a)
        g[:, 0, 0] = g[:, 1, 1] = gt[:, 0, 0] = gt[:, 1, 1] = c
        g[:, 0, 1] = gt[:, 1, 0] = sn
        g[:, 1, 0] = gt[:, 0, 1] = -sn
        a = gt @ a @ g
        # the first rotation of the identity is the rotation itself
        v = g if v is None else v @ g
    if v is None:
        v = np.broadcast_to(np.eye(2), a.shape)

    # descending, stable: ties keep the in-plane values first; the 0/1
    # permutation matrix reorders exactly
    vals = np.empty((z.shape[0], 1, 3))
    vals[:, 0, 0] = a[:, 0, 0]
    vals[:, 0, 1] = a[:, 1, 1]
    vals[:, 0, 2] = z
    order = np.argsort(-vals, axis=-1, kind="stable")
    perm = (order == np.arange(3)[:, None]).astype(np.float64)
    return SpectralDecomp((vals @ perm).reshape(batch + (3,)),
                          (from_blocks(v, 1.0) @ perm).reshape(batch + (3, 3)))


def reassemble(values, vectors) -> np.ndarray:
    """Rebuild ``sum_i values[i] * n_i (x) n_i`` from eigenpairs.

    Works for any matching ``(..., k)`` values and ``(..., m, k)`` vector
    rows; the rows ``vectors[..., :2, :]`` of a plane-strain decomposition
    give the in-plane block alone.
    """
    vals = np.asarray(values, dtype=np.float64)
    vecs = np.asarray(vectors, dtype=np.float64)
    return (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
