"""Point-ensemble micro-model: constitutive laws and field generation.

The mesh-based volume element is replaced by an ensemble of constitutive
material points.  Each point sees a perturbed copy of the macro deformation
through a fixed random linear concentration map acting on ``F - I`` (in-plane
components, plane strain).  Elastic fiber points follow a logarithmic
hyperelastic law; matrix points follow finite-strain J2 elasto-plasticity
with saturating isotropic hardening, integrated with an exponential plastic
flow update that keeps det(F^p) = 1 exactly up to roundoff.

Plane strain: every deformation and plastic deformation gradient is
carried as its in-plane 2x2 block ``(..., 2, 2)`` and its out-of-plane
normal entry ``(...)`` (see ``tensorlab``); the couplings are zero and are
never stored.  The energies, the stresses and the return mapping take the
two parts as separate arguments.  The paths stretch in plane only and carry
their 2x2 blocks alone, and the concentration maps act on the in-plane
components only, so every local deformation has the out-of-plane entry 1;
the flow update stays in the trial eigenframe, so ``F^p`` keeps the block
form while its out-of-plane entry evolves.  The return mapping works in
principal logarithmic stretches (Simo, CMAME 99 (1992) 61-112) with 2x2
algebra on the in-plane blocks and scalar algebra on the out-of-plane
entries, on the closed-form ``tensorlab.sym_eig``.  The gamma and tau
fields are bit-identical to the same update in general 3x3 algebra; the 3x3
oracle in ``tests/test_micromodel.py`` checks this.

Per loading step the ensemble emits the equivalent-plastic-strain field over
the matrix points and the von Mises equivalent Kirchhoff stress field over
all points.

Stepping: ``run_sequences`` is the one stepper.  It advances a batch of
paths through one ``_step_fields`` call per increment; when that call
fails, each path takes the increment alone, split into sub-steps as it
needs, and steps on in the batch from its new state.  ``matrix_update`` and
``fiber_stress`` do the same floating-point operations on a point whatever
batch it sits in: the return mapping's Newton iteration freezes converged
points and the closed-form Jacobi rotation turns the blocks that are
already diagonal by exactly zero.  So a path's fields do not depend, bit for
bit, on which paths share its batch or on whether it stepped alone, given
two rules:

* the trial F of a macro step is ``f_prev + 1 * (f_target - f_prev)``, the
  expression the sub-steps are built with; it is not ``f_target`` in
  floating point and moves tau by about 1e-12;
* the local deformations of a step come from one ``local_deformations``
  call on the stacked macro blocks of all paths, a stack of
  ``concentrations @ v`` products whose slices are the single-path
  products to the bit, and ``_step_alone`` passes one block to the same
  function; never from one product of the concentrations with all paths'
  ``v`` as the columns of one matrix, which sums in another order and
  differs by about 1e-15.

Stresses are carried in MPa internally; moduli are declared in GPa and
converted on access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import tensorlab as tl
from .pathgen import LoadingPath, make_rng

_SQRT_3_2 = np.sqrt(1.5)
_NEWTON_TOL_FACTOR = 1e-12   # on |residual| relative to the initial yield stress
_NEWTON_MAX_ITER = 50
_DET_FP_DRIFT_TOL = 1e-6
_MAX_HALVINGS = 8           # a failed macro step takes up to 2**8 sub-steps


class InvalidDeformationError(ValueError):
    """Deformation state with non-positive Jacobian (det F <= 0)."""


@dataclass(frozen=True)
class FiberParams:
    """Hyperelastic fiber constants, moduli in GPa."""

    k: float = 16.67
    mu: float = 12.50

    def __post_init__(self):
        if self.k <= 0 or self.mu <= 0:
            raise ValueError("fiber moduli must be positive")

    @property
    def k_mpa(self) -> float:
        return self.k * 1e3

    @property
    def mu_mpa(self) -> float:
        return self.mu * 1e3


@dataclass(frozen=True)
class MatrixParams:
    """J2 elasto-plastic matrix constants.

    ``k``/``mu`` in GPa; ``tau_y0`` (initial yield) and ``y_hard``
    (hardening saturation) in MPa; ``k_hard`` dimensionless exponent of the
    saturating hardening stress y_hard * (1 - exp(-k_hard * gamma)).
    """

    k: float = 2.50
    mu: float = 1.15
    tau_y0: float = 100.0
    y_hard: float = 20.0
    k_hard: float = 30.0

    def __post_init__(self):
        if min(self.k, self.mu, self.tau_y0, self.y_hard, self.k_hard) <= 0:
            raise ValueError("matrix constants must be positive")

    @property
    def k_mpa(self) -> float:
        return self.k * 1e3

    @property
    def mu_mpa(self) -> float:
        return self.mu * 1e3

    def hardening(self, gamma) -> np.ndarray:
        return self.y_hard * (1.0 - np.exp(-self.k_hard * np.asarray(gamma)))

    def hardening_slope(self, gamma) -> np.ndarray:
        return self.y_hard * self.k_hard * np.exp(-self.k_hard * np.asarray(gamma))


FIBER_DEFAULTS = FiberParams()
MATRIX_DEFAULTS = MatrixParams()


class PlasticState(NamedTuple):
    """Plastic deformation gradient, in blocks, and accumulated equivalent
    plastic strain."""

    fp_in: np.ndarray   # (..., 2, 2)
    fp_out: np.ndarray  # (...)
    gamma: np.ndarray   # (...)

    @classmethod
    def initial(cls, batch_shape=()) -> "PlasticState":
        batch_shape = tuple(batch_shape)
        fp_in = np.broadcast_to(np.eye(2), batch_shape + (2, 2)).copy()
        return cls(fp_in, np.ones(batch_shape), np.zeros(batch_shape))


def _log_strain_deviator(f_in, f_out):
    """``tl.sym_eig``'s vectors and order for ``C = F^T F``, and the
    deviator of its log eigenvalues, in their descending order.

    Raises ``InvalidDeformationError`` when an eigenvalue of ``C`` is not
    positive.
    """
    vals, vecs, order = tl.sym_eig(np.swapaxes(f_in, -1, -2) @ f_in, f_out * f_out)
    if (vals <= 0.0).any():
        raise InvalidDeformationError("degenerate elastic stretch")
    log_vals = np.log(vals)
    return vecs, order, log_vals - log_vals.sum(axis=-1, keepdims=True) / 3.0


def _spectral_blocks(values, vecs, order):
    """In-plane block and out-of-plane entry of ``sum_i values_i n_i (x) n_i``
    for ``values`` in the order of the decomposition ``vecs, order``."""
    out_of_plane = order == 2
    batch = values.shape[:-1]
    return (tl.reassemble(values[~out_of_plane].reshape(batch + (2,)), vecs),
            values[out_of_plane].reshape(batch))


def _norm_sq(v) -> np.ndarray:
    return (v * v).sum(axis=-1)


def _checked_det(f_in, f_out, label: str) -> np.ndarray:
    det_f = tl.det(f_in, f_out)
    if (det_f <= 0.0).any():
        raise InvalidDeformationError(f"det F <= 0 in {label}")
    return det_f


def _energy(det_f, dev_log, k, mu) -> np.ndarray:
    return 0.5 * k * np.log(det_f) ** 2 + 0.25 * mu * _norm_sq(dev_log)


def fiber_energy(f_in, f_out,
                 params: FiberParams = FIBER_DEFAULTS) -> np.ndarray:
    """Elastic potential of the fiber law, MPa."""
    det_f = _checked_det(f_in, f_out, "fiber_energy")
    return _energy(det_f, _log_strain_deviator(f_in, f_out)[2],
                   params.k_mpa, params.mu_mpa)


def fiber_stress(f_in, f_out, params: FiberParams = FIBER_DEFAULTS):
    """Von Mises equivalent Kirchhoff stress of the fiber law, MPa.

    The Kirchhoff stress of ``fiber_energy`` is ``K ln J 1 + mu dev ln b``,
    so ``tau_eq = sqrt(3/2) mu |dev ln C|``.
    """
    _checked_det(f_in, f_out, "fiber_stress")
    dev_log = _log_strain_deviator(f_in, f_out)[2]
    return _SQRT_3_2 * params.mu_mpa * np.sqrt(_norm_sq(dev_log))


def matrix_energy(f_in, f_out, state: PlasticState,
                  params: MatrixParams = MATRIX_DEFAULTS) -> np.ndarray:
    """Elastic potential of the matrix law at the frozen plastic state
    ``state``, MPa."""
    det_f = _checked_det(f_in, f_out, "matrix_energy")
    fp_inv_in, fp_inv_out = tl.inv(state.fp_in, state.fp_out)
    dev_log = _log_strain_deviator(f_in @ fp_inv_in, f_out * fp_inv_out)[2]
    return _energy(det_f, dev_log, params.k_mpa, params.mu_mpa)


def _solve_return_scalar(tau_tr, gamma0, params: MatrixParams):
    """Plastic multiplier from the scalar yield-consistency equation.

    Solves ``r(x) = tau_tr - 3 mu x - tau_y0 - R(gamma0 + x) = 0`` per entry
    with Newton's method from ``x = 0``, freezing each entry once it has
    converged, so an entry's result does not depend on the rest of the
    batch.  The saturating hardening ``R`` is concave, so ``r`` is convex
    and decreasing, and ``r(0)``, the trial yield function, is positive at
    every plastic point: each Newton iterate then stays left of the root,
    inside ``[0, tau_tr / 3 mu]``, and the iteration converges monotonically.
    The residual is evaluated once per iterate, ``_NEWTON_MAX_ITER + 1``
    times at most, and the last evaluation decides convergence.  An entry
    still off its tolerance after ``_NEWTON_MAX_ITER`` steps, which roundoff
    alone brings about (at trial overstresses from about 1e6 MPa), raises
    ``RuntimeError``; ``run_sequences`` then splits the step.
    """
    mu3 = 3.0 * params.mu_mpa
    tol = _NEWTON_TOL_FACTOR * params.tau_y0
    hi = tau_tr / mu3
    x = np.zeros_like(tau_tr)
    for iteration in range(_NEWTON_MAX_ITER + 1):
        res = tau_tr - mu3 * x - params.tau_y0 - params.hardening(gamma0 + x)
        converged = np.abs(res) <= tol
        if np.all(converged):
            return x
        if iteration == _NEWTON_MAX_ITER:
            raise RuntimeError("plastic return mapping failed to converge")
        slope = -mu3 - params.hardening_slope(gamma0 + x)
        x_new = x - res / slope
        x_new = np.clip(x_new, 0.0, hi)
        x = np.where(converged, x, x_new)


def matrix_update(f_in, f_out, state: PlasticState,
                  params: MatrixParams = MATRIX_DEFAULTS):
    """Elastic-predictor / plastic-corrector update of the matrix points.

    ``f_in``/``f_out`` are the in-plane blocks and out-of-plane entries of
    F.  Returns ``(tau_eq, new_state, renormalized)``: the von Mises
    equivalent Kirchhoff stress (MPa) on the updated yield surface, the
    updated plastic state, and where the updated ``det F^p`` drifted from 1
    by more than ``_DET_FP_DRIFT_TOL`` and ``F^p`` was scaled back to it.
    The trial elastic state is built from the frozen plastic deformation;
    at the points where the trial von Mises stress exceeds the current
    yield stress the plastic multiplier solves the scalar consistency
    equation and the plastic flow is integrated with the tensor exponential
    of the trial-frame flow normal, which shares the trial eigenvectors and
    keeps the update exactly isochoric.  The flow is computed for those
    points only and written into a copy of ``state``, so every elastic
    point keeps its ``F^p`` bit for bit.
    """
    _checked_det(f_in, f_out, "matrix_update")

    mu = params.mu_mpa
    fp_inv_in, fp_inv_out = tl.inv(state.fp_in, state.fp_out)
    vecs, order, dev_log = _log_strain_deviator(f_in @ fp_inv_in,
                                                f_out * fp_inv_out)

    tau_tr = _SQRT_3_2 * mu * np.sqrt(_norm_sq(dev_log))
    f_trial = tau_tr - params.tau_y0 - params.hardening(state.gamma)
    plastic = f_trial > 0.0

    dgamma = np.zeros_like(tau_tr)
    # elastic points keep their plastic state bit-identical
    fp_in, fp_out = state.fp_in.copy(), state.fp_out.copy()
    if plastic.any():
        dgamma[plastic] = _solve_return_scalar(
            tau_tr[plastic], state.gamma[plastic], params
        )
        # 3 mu dgamma / tau_tr scales the deviatoric log strain back to the
        # updated yield surface
        shrink = 3.0 * mu * dgamma[plastic] / tau_tr[plastic]
        flow_in, flow_out = _spectral_blocks(
            np.exp(0.5 * shrink[:, None] * dev_log[plastic]), vecs[plastic],
            order[plastic])
        fp_in[plastic] = flow_in @ fp_in[plastic]
        fp_out[plastic] = flow_out * fp_out[plastic]
    det_fp = tl.det(fp_in, fp_out)
    drift = np.abs(det_fp - 1.0)
    bad = drift > _DET_FP_DRIFT_TOL
    if bad.any():
        # the unit scale leaves the other entries bit-identical
        scale = np.where(bad, det_fp ** (-1.0 / 3.0), 1.0)
        fp_in, fp_out = fp_in * scale[..., None, None], fp_out * scale

    tau_eq = tau_tr - 3.0 * mu * dgamma
    return tau_eq, PlasticState(fp_in, fp_out, state.gamma + dgamma), bad


@dataclass
class RveEnsemble:
    """Fixed random concentration maps plus material parameters.

    ``concentrations`` maps the in-plane components of ``F_macro - I``
    (ordered xx, xy, yx, yy) to the local perturbation per point; matrix
    points come first, fiber points after.
    """

    concentrations: np.ndarray  # (n_points, 4, 4)
    n_matrix: int
    n_fiber: int
    fiber: FiberParams = field(default_factory=FiberParams)
    matrix: MatrixParams = field(default_factory=MatrixParams)

    @property
    def n_points(self) -> int:
        return self.n_matrix + self.n_fiber

    @property
    def d_gamma(self) -> int:
        return self.n_matrix

    @property
    def d_tau(self) -> int:
        return self.n_points

    def local_deformations(self, f_macro) -> np.ndarray:
        """Per-point in-plane deformation blocks, shape ``(..., n, 2, 2)``,
        for macro in-plane blocks of shape ``(..., 2, 2)``; every
        out-of-plane entry is 1."""
        # F - I in row-major order is (xx, xy, yx, yy); so are the local
        # perturbations, stacked point by point as the rows of one
        # (4 n, 4) matrix, which multiplies each macro block's column
        batch = np.shape(f_macro)[:-2]
        v = (f_macro - np.eye(2)).reshape(batch + (4, 1))
        local = self.concentrations.reshape(-1, 4) @ v
        return local.reshape(batch + (-1, 2, 2)) + np.eye(2)


def build_ensemble(
    d_gamma: int,
    n_fiber: int,
    perturbation_amplitude: float,
    seed: int,
) -> RveEnsemble:
    """Random ensemble of concentration maps with exact-identity mean.

    Each map is identity plus a zero-mean random linear perturbation with
    operator norm at most ``perturbation_amplitude``; the ensemble mean is
    re-centered to the exact identity after drawing.
    """
    if d_gamma < 1 or n_fiber < 0:
        raise ValueError("need at least one matrix point and n_fiber >= 0")
    if not 0.0 <= perturbation_amplitude < 1.0:
        raise ValueError("perturbation_amplitude must be in [0, 1)")
    n = d_gamma + n_fiber
    perturb = np.zeros((n, 4, 4))
    if perturbation_amplitude > 0.0:
        rng = make_rng(seed)
        g = rng.standard_normal((n, 4, 4))
        op_norm = np.linalg.svd(g, compute_uv=False)[:, 0]
        radius = perturbation_amplitude * rng.uniform(0.0, 1.0, size=n)
        perturb = g * (radius / op_norm)[:, None, None]
        perturb -= perturb.mean(axis=0)
    conc = np.broadcast_to(np.eye(4), (n, 4, 4)) + perturb
    return RveEnsemble(
        concentrations=np.ascontiguousarray(conc),
        n_matrix=d_gamma,
        n_fiber=n_fiber,
    )


@dataclass
class SequenceFields:
    """Full per-step field history of one loading path.

    ``substepped_steps`` counts the kept macro steps that converged only
    when split into sub-steps, ``renormalized_steps`` those in which
    ``matrix_update`` scaled some point's drifted ``F^p`` back to
    ``det F^p = 1``.
    """

    gamma: np.ndarray        # (n_steps, d_gamma)
    tau: np.ndarray          # (n_steps, d_tau)
    truncated: bool = False
    substepped_steps: int = 0
    renormalized_steps: int = 0

    def __len__(self) -> int:
        return self.gamma.shape[0]


def _step_fields(ensemble: RveEnsemble, local, state: PlasticState):
    """Advance the matrix points one increment and evaluate both fields.

    ``local`` holds per-point in-plane deformation blocks, shape
    ``(..., n_points, 2, 2)`` with the matrix points first; the leading axes
    are loading paths.  Returns ``(state, tau, renormalized)``, the last
    telling per path whether some matrix point's ``F^p`` was renormalized.
    """
    n_m = ensemble.n_matrix
    tau, new_state, renormalized = matrix_update(
        local[..., :n_m, :, :], 1.0, state, ensemble.matrix)
    if ensemble.n_fiber > 0:
        tau_fib = fiber_stress(local[..., n_m:, :, :], 1.0, ensemble.fiber)
        tau = np.concatenate([tau, tau_fib], axis=-1)
    return new_state, tau, renormalized.any(axis=-1)


def _interpolate(f_prev, f_target, fraction):
    """Macro in-plane F a ``fraction`` of the way from ``f_prev`` to ``f_target``.

    At ``fraction == 1`` this is not ``f_target`` in floating point; the
    batched step and the lone sub-steps build every trial F with it, so a
    path's fields do not depend on which of them advanced it.
    """
    return f_prev + fraction * (f_target - f_prev)


def _step_alone(ensemble: RveEnsemble, f_prev, f_target, state: PlasticState):
    """One path's macro step, split into 1, 2, ..., 2**_MAX_HALVINGS sub-steps.

    Returns ``(state, tau, halvings, renormalized)`` of the first split
    that converges, the last telling whether any of its sub-steps
    renormalized an ``F^p``, or ``None`` when none does.
    """
    for halving in range(_MAX_HALVINGS + 1):
        n_sub = 2**halving
        trial = state
        renormalized = False
        try:
            for j in range(1, n_sub + 1):
                local = ensemble.local_deformations(
                    _interpolate(f_prev, f_target, j / n_sub))
                trial, tau, sub_renormalized = _step_fields(ensemble, local,
                                                            trial)
                renormalized |= bool(sub_renormalized)
        except (InvalidDeformationError, RuntimeError):
            continue
        return trial, tau, halving, renormalized
    return None


def run_sequence(path: LoadingPath, ensemble: RveEnsemble) -> SequenceFields:
    """``run_sequences`` on one path."""
    return run_sequences([path], ensemble)[0]


def run_sequences(paths, ensemble: RveEnsemble) -> list[SequenceFields]:
    """Evolve the ensemble along each of ``paths`` and collect field histories.

    Every increment advances all paths that have not ended with one
    ``_step_fields`` call.  If that call fails, each of them takes the
    increment alone with ``_step_alone`` and steps on in the batch from its
    new state; a path whose step no split cures is truncated at its last
    converged step, flagged, and leaves the batch.
    """
    paths = list(paths)
    lengths = [len(path) for path in paths]
    gamma_out = [np.zeros((n, ensemble.d_gamma)) for n in lengths]
    tau_out = [np.zeros((n, ensemble.d_tau)) for n in lengths]
    kept = list(lengths)
    substepped = [0] * len(paths)
    renormalized = [0] * len(paths)

    active = list(range(len(paths)))
    state = PlasticState.initial((len(active), ensemble.n_matrix))
    # F = U: the macro deformation is the path's stretch
    f_prev = np.broadcast_to(np.eye(2), (len(active), 2, 2))
    t = 0
    while active:
        f_target = np.stack([paths[i].stretches[t] for i in active])
        local = ensemble.local_deformations(
            _interpolate(f_prev, f_target, 1.0))
        failed = set()
        try:
            state, tau, renormalized_rows = _step_fields(ensemble, local,
                                                         state)
        except (InvalidDeformationError, RuntimeError):
            state = PlasticState(*(a.copy() for a in state))
            tau = np.zeros((len(active), ensemble.d_tau))
            renormalized_rows = np.zeros(len(active), dtype=bool)
            for row, i in enumerate(active):
                alone = _step_alone(ensemble, f_prev[row], f_target[row],
                                    PlasticState(*(a[row] for a in state)))
                if alone is None:
                    failed.add(row)
                    kept[i] = t
                    continue
                new_state, tau[row], halvings, renormalized_rows[row] = alone
                for a, new in zip(state, new_state):
                    a[row] = new
                substepped[i] += halvings > 0
        for row, i in enumerate(active):
            gamma_out[i][t] = state.gamma[row]
            tau_out[i][t] = tau[row]
            renormalized[i] += bool(renormalized_rows[row])
        f_prev = f_target
        t += 1
        going = [row for row, i in enumerate(active)
                 if row not in failed and lengths[i] > t]
        if len(going) < len(active):
            active = [active[row] for row in going]
            state = PlasticState(*(a[going] for a in state))
            f_prev = f_prev[going]

    return [SequenceFields(gamma=gamma_out[i][:n], tau=tau_out[i][:n],
                           truncated=n < lengths[i],
                           substepped_steps=substepped[i],
                           renormalized_steps=renormalized[i])
            for i, n in enumerate(kept)]
