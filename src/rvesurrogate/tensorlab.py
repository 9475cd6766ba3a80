"""Plane-strain tensor algebra for finite-strain kinematics.

A plane-strain tensor is block-diagonal: an in-plane 2x2 block, an
out-of-plane normal entry, and zero couplings between the two.  It is
carried as those two parts and never assembled: ``in_plane`` arrays of shape
``(..., 2, 2)`` and ``out_of_plane`` arrays of shape ``(...)`` (or anything
that broadcasts to it), in 64-bit floats.  ``det``, ``inv`` and ``sym_eig``
take the two parts; 2x2 algebra runs on the blocks and scalar algebra on the
out-of-plane entries.

The symmetric eigendecomposition is closed form: the in-plane block is
diagonalized by one symmetric Schur (Jacobi) rotation, whose tangent comes
from the quadratic ``t^2 + 2 theta t - 1 = 0`` with
``theta = (yy - xx) / (2 xy)``; the out-of-plane entry is the third
eigenvalue, with eigenvector ``e_3``.  A block whose off-diagonal entry is
at most 1e-15 of the Frobenius norm rotates by exactly zero.  The kernel
uses only correctly rounded operations (``+ - * / sqrt``), selections and
numpy's matmul, so a tensor decomposes bit-identically alone or inside a
batch.

``inplane_eigvals`` is the eigenvalues-only path: the quadratic formula
``m +- sqrt(((xx - yy)/2)^2 + xy^2)`` with ``m = (xx + yy)/2``, which agrees
with ``sym_eig``'s in-plane values to roundoff but not to the bit.  Only
``pathgen`` uses it; the micro-model's fields stay on ``sym_eig``.

Every other routine performs exactly the floating-point operations of its
general 3x3 counterpart (cofactor expansion, adjugate inverse, one
rotation, the first of the 3x3 oracle's sweep, spectral sums in descending
eigenvalue order), minus the terms that the zero couplings make exact
no-ops.  Results are therefore bit-identical to the general 3x3 algebra,
and so are the micro-model fields built on them.  The package holds no 3x3 tensor: the 3x3
form lives only in the tests' oracles, assembled by ``conftest.plane_strain``,
and ``tests/test_tensorlab.py`` and ``tests/test_micromodel.py`` check these
routines and the fields against them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_ROTATION_REL_TOL = 1e-15


class SpectralDecomp(NamedTuple):
    """Eigenvalues (descending), in-plane eigenvectors and the value order.

    ``order[..., k]`` names the source of ``values[..., k]``: 0 and 1 are
    the in-plane values, 2 the out-of-plane entry, whose eigenvector is
    ``e_3``.  The columns of ``vectors`` are the in-plane eigenvectors in
    the order their values take in ``values``.
    """

    values: np.ndarray   # (..., 3)
    vectors: np.ndarray  # (..., 2, 2)
    order: np.ndarray    # (..., 3)


def det(in_plane, out_of_plane) -> np.ndarray:
    """Determinant of plane-strain tensors, by cofactors of the first row."""
    b, z = in_plane, out_of_plane
    return b[..., 0, 0] * (b[..., 1, 1] * z) - b[..., 0, 1] * (b[..., 1, 0] * z)


def inv(in_plane, out_of_plane):
    """In-plane blocks and out-of-plane entries of the inverse, via the
    adjugate."""
    b, z = np.asarray(in_plane, dtype=np.float64), out_of_plane
    adj = np.empty_like(b)
    adj[..., 0, 0] = b[..., 1, 1] * z
    adj[..., 0, 1] = -(b[..., 0, 1] * z)
    adj[..., 1, 0] = -(b[..., 1, 0] * z)
    adj[..., 1, 1] = b[..., 0, 0] * z
    # det's expansion along the first row, term for term
    d = b[..., 0, 0] * adj[..., 0, 0] + b[..., 0, 1] * adj[..., 1, 0]
    if (np.abs(d) < 1e-300).any():
        raise ValueError("singular tensor passed to inv")
    return adj / d[..., None, None], (
        b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0]) / d


def sym_eig(in_plane, out_of_plane) -> SpectralDecomp:
    """Closed-form eigendecomposition of symmetric plane-strain tensors.

    Raises ``ValueError`` on non-finite input and on an asymmetric in-plane
    block.
    """
    b = np.asarray(in_plane, dtype=np.float64)
    batch = b.shape[:-2]
    z = np.broadcast_to(np.asarray(out_of_plane, dtype=np.float64), batch)
    if not (np.isfinite(b).all() and np.isfinite(z).all()):
        raise ValueError("non-finite entries in sym_eig input")
    # only the in-plane shear pair can be asymmetric; the bound is
    # 1e-9 max(|a|, 1), so |a| is needed only past 1e-9
    asym = np.abs(b[..., 0, 1] - b[..., 1, 0]).max()
    if asym > 1e-9 and asym > 1e-9 * max(np.abs(b).max(), np.abs(z).max()):
        raise ValueError(f"sym_eig input not symmetric (max asymmetry {asym:g})")
    a = b.reshape(-1, 2, 2).copy()
    z = z.reshape(-1)
    a[:, 0, 1] = a[:, 1, 0] = 0.5 * (a[:, 0, 1] + a[:, 1, 0])

    sq = a * a
    norm = np.sqrt((((sq[:, 0, 0] + sq[:, 0, 1]) + sq[:, 1, 0]) + sq[:, 1, 1])
                   + z * z)
    tol = _ROTATION_REL_TOL * np.maximum(norm, np.finfo(np.float64).tiny)
    apq = a[:, 0, 1]
    # entries already diagonal rotate by exactly zero, so a tensor's result
    # does not depend on the rest of the batch
    active = np.abs(apq) > tol
    # the tangent of the rotation angle is the root of t^2 + 2 theta t - 1
    # of smaller magnitude, t = 1 for theta = 0
    theta = (a[:, 1, 1] - a[:, 0, 0]) / (2.0 * np.where(active, apq, 1.0))
    tval = np.where(theta < 0.0, -1.0, 1.0) / (
        np.abs(theta) + np.sqrt(theta * theta + 1.0))
    c = 1.0 / np.sqrt(tval * tval + 1.0)
    sn = np.where(active, tval * c, 0.0)
    c = np.where(active, c, 1.0)
    # the rotation, the eigenvectors, and its transpose
    v = np.empty_like(a)
    vt = np.empty_like(a)
    v[:, 0, 0] = v[:, 1, 1] = vt[:, 0, 0] = vt[:, 1, 1] = c
    v[:, 0, 1] = vt[:, 1, 0] = sn
    v[:, 1, 0] = vt[:, 0, 1] = -sn
    a = vt @ a @ v

    # descending, stable: ties keep the in-plane values first, so the
    # second in-plane value leads only when it is strictly larger
    vals = np.stack([a[:, 0, 0], a[:, 1, 1], z], axis=-1)
    order = np.argsort(-vals, axis=-1, kind="stable")
    v = np.where((a[:, 1, 1] > a[:, 0, 0])[:, None, None], v[:, :, ::-1], v)
    return SpectralDecomp(
        np.take_along_axis(vals, order, axis=-1).reshape(batch + (3,)),
        v.reshape(batch + (2, 2)), order.reshape(batch + (3,)))


def inplane_eigvals(in_plane) -> np.ndarray:
    """Eigenvalues of symmetric in-plane blocks, larger first, (..., 2)."""
    a, b, c = in_plane[..., 0, 0], in_plane[..., 1, 1], in_plane[..., 0, 1]
    mean = 0.5 * (a + b)
    radius = np.sqrt((0.5 * (a - b)) ** 2 + c * c)
    return np.stack([mean + radius, mean - radius], axis=-1)


def reassemble(values, vectors) -> np.ndarray:
    """Rebuild ``sum_i values[i] * n_i (x) n_i`` from eigenpairs.

    Works for any matching ``(..., k)`` values and ``(..., m, k)`` vector
    columns; the terms are summed in the order of the columns.
    """
    vals = np.asarray(values, dtype=np.float64)
    vecs = np.asarray(vectors, dtype=np.float64)
    return (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
