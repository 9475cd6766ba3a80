import tracemalloc

import numpy as np
import pytest

from rvesurrogate import datastore as ds
from rvesurrogate import micromodel as mm


def synthetic_records(seed, n_records=30, d_gamma=16, d_tau=20,
                      min_steps=24, max_steps=48):
    """Deterministic nonlinear history-dependent records for engine tests.

    The gamma-like field accumulates a rectified drive (monotone per point);
    the tau-like field mixes an instantaneous and a cumulative response, so
    the mapping is learnable but not trivially linear.
    """
    rng = np.random.default_rng(seed)
    mix_a = rng.standard_normal((3, d_gamma)) * 0.6
    mix_b = rng.standard_normal((3, d_gamma)) * 0.3
    mix_t = rng.standard_normal((3, d_tau)) * 40.0
    records = []
    for _ in range(n_records):
        steps = int(rng.integers(min_steps, max_steps + 1))
        dx = rng.standard_normal((steps, 3)) * 0.01
        dx[0] = 0.0
        x = np.cumsum(dx, axis=0)
        gamma = np.cumsum(np.maximum(x @ mix_a, 0.0) + 0.2 * np.abs(x @ mix_b),
                          axis=0) * 0.05
        tau = np.abs(x @ mix_t) + 0.01 * np.cumsum(np.abs(x @ mix_t), axis=0)
        records.append(ds.SequenceRecord(x, gamma, tau))
    return records


def traced_peak(call) -> int:
    """Peak bytes that ``call()`` holds allocated at once, per tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def plane_blocks(t):
    """In-plane blocks and out-of-plane entries of plane-strain 3x3 tensors."""
    return t[..., :2, :2], t[..., 2, 2]


def plane_strain(in_plane, out_of_plane):
    """Plane-strain 3x3 tensors assembled from their blocks."""
    in_plane = np.asarray(in_plane, dtype=np.float64)
    t = np.zeros(in_plane.shape[:-2] + (3, 3))
    t[..., :2, :2] = in_plane
    t[..., 2, 2] = out_of_plane
    return t


@pytest.fixture(scope="session")
def synthetic_packed():
    records = synthetic_records(seed=1234, n_records=36)
    return ds.pack_records(records, lengths=(24, 36))


@pytest.fixture
def plastic_increment_cap(monkeypatch):
    """Install a matrix update that fails on large plastic increments.

    ``install(cap)`` makes ``micromodel.matrix_update`` raise a
    ``RuntimeError``, as a return mapping that does not converge, whenever a
    point's plastic strain grows by more than ``cap`` in one call.  The
    failure depends only on each point's own step, and splitting a macro
    step into sub-steps cures it, so the steppers' sub-stepping runs.
    """
    def install(cap):
        update = mm.matrix_update

        def capped(f_in, f_out, state, params=mm.MATRIX_DEFAULTS):
            tau, new_state, renormalized = update(f_in, f_out, state, params)
            if np.any(new_state.gamma - state.gamma > cap):
                raise RuntimeError("plastic increment above the cap")
            return tau, new_state, renormalized

        monkeypatch.setattr(mm, "matrix_update", capped)
    return install
