"""Random-walk and proportional cyclic macro loading paths.

A loading path is a sequence of in-plane right stretch tensors ``U``, each a
2x2 block, starting at the identity.  Random-walk paths accumulate spectral
increments with a random in-plane orientation and bounded eigenvalue norm
until the stretch deviates from the identity by more than a critical
radius.  Cyclic paths ramp a fixed random direction up and down through
random reversal amplitudes.

Only 2D (plane-strain) loading is generated: increments act in the x-y plane
and the out-of-plane stretch stays exactly 1, so it is not stored.

The walks' stop check and ``increment_eigen_norms`` take their eigenvalues
from ``tensorlab.inplane_eigvals``; this module computes none itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensorlab as tl

RNG_ALGORITHM = "numpy.random.PCG64"

KIND_RANDOM_WALK = "random_walk"
KIND_CYCLIC = "cyclic"


def make_rng(seed) -> np.random.Generator:
    """The package's one seeded generator, of the algorithm manifests record.

    ``seed`` may be an int or a sequence of ints (stream-splitting)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


@dataclass(frozen=True)
class RandomWalkConfig:
    delta_r: float = 5.0e-3
    delta_r_min: float = 5.0e-4
    r_max: float = 0.1
    max_steps: int = 5000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.delta_r_min < self.delta_r < self.r_max:
            raise ValueError(
                "require 0 <= delta_r_min < delta_r < r_max, got "
                f"{self.delta_r_min}, {self.delta_r}, {self.r_max}"
            )
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


@dataclass
class LoadingPath:
    """In-plane stretch-tensor history of a plane-strain loading."""

    stretches: np.ndarray  # (n_steps, 2, 2), stretches[0] = I
    kind: str

    def __post_init__(self):
        self.stretches = np.asarray(self.stretches, dtype=np.float64)
        if self.stretches.shape[1:] != (2, 2) or not self.stretches.shape[0]:
            raise ValueError("stretches must have shape (n, 2, 2), n >= 1")
        if not np.allclose(self.stretches[0], np.eye(2), atol=1e-12):
            raise ValueError("loading paths must start at the identity stretch")

    def __len__(self) -> int:
        return self.stretches.shape[0]

    def strain_features(self) -> np.ndarray:
        """Per-step Green-Lagrange strains E = (U^2 - I) / 2 as
        (E_xx, E_yy, E_xy) features, shape (n_steps, 3)."""
        u = self.stretches
        e = 0.5 * (u @ u - np.eye(2))
        return np.stack([e[:, 0, 0], e[:, 1, 1], e[:, 0, 1]], axis=-1)


def _inplane_direction(rng, eig_norm: float) -> np.ndarray:
    """Symmetric 2x2 tensor with eigenvalue vector of given norm.

    The principal directions sit at a uniformly random in-plane angle and the
    squared eigenvalues split the squared norm at a uniformly random ratio,
    with independent random signs.
    """
    phi = rng.uniform(0.0, np.pi)
    n1 = np.array([np.cos(phi), np.sin(phi)])
    n2 = np.array([-np.sin(phi), np.cos(phi)])
    split = rng.uniform(0.0, 1.0)
    lam1 = np.sqrt(split) * eig_norm
    lam2 = np.sqrt(1.0 - split) * eig_norm
    signs = rng.choice([-1.0, 1.0], size=2)
    return signs[0] * lam1 * np.outer(n1, n1) + signs[1] * lam2 * np.outer(n2, n2)


def random_increment(rng: np.random.Generator, cfg: RandomWalkConfig) -> np.ndarray:
    """One spectral stretch increment with eigen-norm in (delta_r_min, delta_r]."""
    lo = cfg.delta_r_min**2
    hi = cfg.delta_r**2
    # uniform on the half-open interval (lo, hi]
    r_squared = hi - rng.uniform(0.0, hi - lo)
    return _inplane_direction(rng, np.sqrt(r_squared))


def generate_random_path(cfg: RandomWalkConfig) -> LoadingPath:
    """Accumulate random increments until the stretch leaves the trust radius.

    Termination fires at the first step where any eigenvalue of U deviates
    from 1 by more than ``r_max`` (the crossing step is kept), or at
    ``max_steps``.  Deterministic for a fixed seed.
    """
    rng = make_rng(cfg.seed)
    u = np.eye(2)
    steps = [u]
    for _ in range(cfg.max_steps):
        u = u + random_increment(rng, cfg)
        steps.append(u)
        if np.max(np.abs(tl.inplane_eigvals(u) - 1.0)) > cfg.r_max:
            break
    return LoadingPath(np.array(steps), KIND_RANDOM_WALK)


def generate_cyclic_path(
    seed,
    n_reversals: int,
    amplitude_max: float,
    step_size: float,
) -> LoadingPath:
    """Proportional path U(t) = I + s(t) D through random reversal amplitudes.

    ``D`` is a fixed random symmetric in-plane direction with unit eigen-norm
    and ``s(t)`` ramps piecewise linearly 0 -> a_1 -> ... -> a_n -> 0 in steps
    of at most ``step_size``, landing exactly on every reversal point.
    ``D`` is drawn first, then the ``n_reversals`` amplitudes, uniform in
    (-amplitude_max, amplitude_max).
    """
    if n_reversals < 1:
        raise ValueError("n_reversals must be >= 1")
    if not 0.0 < step_size < amplitude_max:
        raise ValueError("require 0 < step_size < amplitude_max")
    rng = make_rng(seed)
    direction = _inplane_direction(rng, 1.0)
    amplitudes = rng.uniform(-amplitude_max, amplitude_max, size=n_reversals)
    targets = list(amplitudes) + [0.0]

    s_values = [0.0]
    s = 0.0
    for target in targets:
        while abs(target - s) > 1e-15:
            if abs(target - s) <= step_size:
                s = target  # land exactly on every reversal point
            else:
                s += np.sign(target - s) * step_size
            s_values.append(s)

    scalars = np.asarray(s_values)
    stretches = np.eye(2) + scalars[:, None, None] * direction
    return LoadingPath(stretches, KIND_CYCLIC)


def increment_eigen_norms(path: LoadingPath) -> np.ndarray:
    """Eigenvalue-vector norms of the stretch increments, shape (n_steps-1,)."""
    du = np.diff(path.stretches, axis=0)
    lams = tl.inplane_eigvals(du)
    return np.sqrt(np.sum(lams * lams, axis=-1))
