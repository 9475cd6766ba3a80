import numpy as np
import pytest

from conftest import plane_blocks, plane_strain
from rvesurrogate import micromodel as mm
from rvesurrogate import pathgen as pg
from rvesurrogate import tensorlab as tl

# the entries a plane-strain tensor may carry: the in-plane block and [2, 2]
IN_BLOCK = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))


def fd_gradient(func, f, h=1e-6):
    """Central finite differences of a scalar function of a plane-strain F."""
    g = np.zeros((3, 3))
    for i, j in IN_BLOCK:
        fp = f.copy()
        fm = f.copy()
        fp[i, j] += h
        fm[i, j] -= h
        g[i, j] = (func(fp) - func(fm)) / (2.0 * h)
    return g


def tau_eq_of_pk1(p, f):
    """Von Mises norm of the Kirchhoff stress ``P F^T`` (MPa)."""
    tau = p @ np.swapaxes(f, -1, -2)
    tr = np.trace(tau, axis1=-2, axis2=-1)[..., None, None]
    dev = tau - tr / 3.0 * np.eye(3)
    return np.sqrt(1.5) * np.sqrt(np.sum(dev * dev, axis=(-2, -1)))


def random_plane(rng, shape=()):
    """Standard-normal in-block entries, zero out-of-plane couplings."""
    g = np.zeros(shape + (3, 3))
    g[..., :2, :2] = rng.standard_normal(shape + (2, 2))
    g[..., 2, 2] = rng.standard_normal(shape)
    return g


def random_deformation(rng, scale=0.1):
    return np.eye(3) + scale * random_plane(rng)


def random_plastic_fp(rng, scale=0.2):
    # exact unimodular plastic deformation: exponential of a deviatoric
    # symmetric plane-strain tensor, block by block with LAPACK
    s = random_plane(rng)
    s = 0.5 * (s + s.T)
    d = scale * (s - np.trace(s) / 3.0 * np.eye(3))
    w, q = np.linalg.eigh(d[:2, :2])
    fp = np.zeros((3, 3))
    fp[:2, :2] = (q * np.exp(w)) @ q.T
    fp[2, 2] = np.exp(d[2, 2])
    return fp


def bisect_return(tau_tr, gamma0, params, iterations=120):
    """Plastic multiplier by plain bisection of the consistency residual."""
    lo = np.zeros_like(tau_tr)
    hi = tau_tr / (3.0 * params.mu_mpa)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        r = tau_tr - 3.0 * params.mu_mpa * mid - params.tau_y0 \
            - params.hardening(gamma0 + mid)
        lo = np.where(r > 0.0, mid, lo)
        hi = np.where(r > 0.0, hi, mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Oracles in general 3x3 algebra: cyclic Jacobi sweeps over all three index
# pairs, with either LAPACK inverses and a bisection return (independent of
# the package) or the cofactor/adjugate formulas and the package's scalar
# return solver (the same floating-point operations as the plane-strain
# kernel, which must reproduce them bit for bit)


def jacobi_sym_eig(s, max_sweeps=30, rel_tol=1e-15):
    """Eigenpairs of symmetric 3x3 tensors by cyclic Jacobi sweeps, descending."""
    a = 0.5 * (s + np.swapaxes(s, -1, -2))
    v = np.broadcast_to(np.eye(3), a.shape).copy()
    tol = rel_tol * np.maximum(np.sqrt(np.sum(a * a, axis=(-2, -1))),
                               np.finfo(np.float64).tiny)
    for _ in range(max_sweeps):
        off = np.sqrt(a[..., 0, 1] ** 2 + a[..., 0, 2] ** 2 + a[..., 1, 2] ** 2)
        if np.all(off <= tol):
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = a[..., p, q]
            active = np.abs(apq) > tol
            theta = (a[..., q, q] - a[..., p, p]) / (2.0 * np.where(active, apq, 1.0))
            t = np.where(theta >= 0.0, 1.0, -1.0) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            sn = np.where(active, t * c, 0.0)
            c = np.where(active, c, 1.0)
            g = np.broadcast_to(np.eye(3), a.shape).copy()
            g[..., p, p] = c
            g[..., q, q] = c
            g[..., p, q] = sn
            g[..., q, p] = -sn
            a = np.swapaxes(g, -1, -2) @ a @ g
            v = v @ g
    vals = np.stack([a[..., 0, 0], a[..., 1, 1], a[..., 2, 2]], axis=-1)
    order = np.argsort(-vals, axis=-1, kind="stable")
    return (np.take_along_axis(vals, order, axis=-1),
            np.take_along_axis(v, order[..., None, :], axis=-1))


def adjugate_inv(a):
    """3x3 inverse from the adjugate and the cofactor expansion."""
    cof = np.empty_like(a)
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != j]
            c = [k for k in range(3) if k != i]
            cof[..., i, j] = (a[..., r[0], c[0]] * a[..., r[1], c[1]]
                              - a[..., r[0], c[1]] * a[..., r[1], c[0]])
            if (i + j) % 2:
                cof[..., i, j] = -cof[..., i, j]
    # cof[i, j] is the (j, i) cofactor, so cof is the adjugate; expand
    # along the first row in the order a00 - a01 + a02
    d = (a[..., 0, 0] * cof[..., 0, 0] + a[..., 0, 1] * cof[..., 1, 0]
         + a[..., 0, 2] * cof[..., 2, 0])
    return cof / d[..., None, None]


def oracle_log_strains(f):
    vals, vecs = jacobi_sym_eig(np.swapaxes(f, -1, -2) @ f)
    log_vals = np.log(vals)
    return vecs, log_vals - log_vals.mean(axis=-1, keepdims=True)


def oracle_matrix_update(f, fp, gamma, params, inverse, solve):
    mu = params.mu_mpa
    vecs, dev_log = oracle_log_strains(f @ inverse(fp))
    tau_tr = np.sqrt(1.5) * mu * np.sqrt(np.sum(dev_log**2, axis=-1))
    plastic = tau_tr - params.tau_y0 - params.hardening(gamma) > 0.0
    dgamma = np.zeros_like(gamma)
    dgamma[plastic] = solve(tau_tr[plastic], gamma[plastic], params)
    shrink = 3.0 * mu * dgamma / np.where(plastic, tau_tr, 1.0)
    flow = np.exp(0.5 * shrink[..., None] * dev_log)
    exp_flow = (vecs * flow[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    fp_new = np.where(plastic[..., None, None], exp_flow @ fp, fp)
    return fp_new, gamma + dgamma, tau_tr - 3.0 * mu * dgamma


def oracle_fields(path, ens, inverse=np.linalg.inv, solve=bisect_return):
    """gamma and tau field histories of an ensemble, one step per increment."""
    fp = np.broadcast_to(np.eye(3), (ens.n_matrix, 3, 3)).copy()
    gamma = np.zeros(ens.n_matrix)
    gammas, taus = [], []
    f_prev = np.eye(3)
    for u in plane_strain(path.stretches, 1.0):
        # run_sequence's one-increment step: the target state (F = U), but
        # reached as f_prev + (f_target - f_prev)
        f = f_prev + 1.0 * (u - f_prev)
        f_prev = u
        v = np.array([f[0, 0] - 1.0, f[0, 1], f[1, 0], f[1, 1] - 1.0])
        local = np.broadcast_to(np.eye(3), (ens.n_points, 3, 3)).copy()
        local[:, :2, :2] += (ens.concentrations @ v).reshape(-1, 2, 2)
        fp, gamma, tau_m = oracle_matrix_update(local[: ens.n_matrix], fp,
                                                gamma, ens.matrix, inverse, solve)
        _, dev_f = oracle_log_strains(local[ens.n_matrix:])
        tau_f = np.sqrt(1.5) * ens.fiber.mu_mpa * np.sqrt(np.sum(dev_f**2, axis=-1))
        gammas.append(gamma)
        taus.append(np.concatenate([tau_m, tau_f]))
    return np.array(gammas), np.array(taus)


def oracle_path(kind):
    """A path on which a 20-point ensemble yields."""
    if kind == pg.KIND_RANDOM_WALK:
        return pg.generate_random_path(pg.RandomWalkConfig(
            delta_r=0.02, delta_r_min=0.002, r_max=0.1, max_steps=400, seed=21))
    return pg.generate_cyclic_path(seed=22, n_reversals=3, amplitude_max=0.08,
                                   step_size=0.008)


class TestFiber:
    def test_reference_state_stress_free(self):
        assert mm.fiber_stress(np.eye(2), 1.0) == 0.0

    def test_small_strain_linear_elasticity(self):
        # linearization oracle: dev tau ~ 2 mu dev(sym eps); the relative
        # linearization error is O(|eps|) = 1e-6 (5.6e-7 on these samples)
        rng = np.random.default_rng(1)
        params = mm.FIBER_DEFAULTS
        for _ in range(10):
            eps = random_plane(rng)
            eps *= 1e-6 / np.linalg.norm(eps)
            tau = mm.fiber_stress(*plane_blocks(np.eye(3) + eps), params)
            sym = 0.5 * (eps + eps.T)
            dev = sym - np.trace(sym) / 3.0 * np.eye(3)
            ref = np.sqrt(1.5) * 2.0 * params.mu_mpa * np.linalg.norm(dev)
            assert abs(tau - ref) <= 2e-6 * ref

    def test_stress_is_energy_gradient(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            f = random_deformation(rng)
            tau = mm.fiber_stress(*plane_blocks(f))
            p_fd = fd_gradient(lambda x: mm.fiber_energy(*plane_blocks(x)), f)
            ref = tau_eq_of_pk1(p_fd, f)
            assert abs(tau - ref) <= 1e-6 * max(ref, 1.0)

    def test_invalid_deformation(self):
        with pytest.raises(mm.InvalidDeformationError):
            mm.fiber_stress(np.diag([-1.0, 1.0]), 1.0)

    def test_tau_eq_nonnegative(self):
        rng = np.random.default_rng(3)
        f = np.eye(3) + 0.05 * random_plane(rng, (64,))
        tau = mm.fiber_stress(*plane_blocks(f))
        assert np.all(tau >= 0.0)


class TestMatrixUpdate:
    def test_elastic_below_yield(self):
        # trial stress of ~90 MPa stays inside the 100 MPa yield surface
        params = mm.MATRIX_DEFAULTS
        state = mm.PlasticState.initial()
        shear = 90.0 / (np.sqrt(3.0) * params.mu_mpa)
        f = np.eye(2)
        f[0, 1] = shear
        tau, new_state, _ = mm.matrix_update(f, 1.0, state, params)
        assert tau == pytest.approx(90.0, rel=1e-3)
        assert new_state.gamma == 0.0
        assert np.array_equal(new_state.fp_in, np.eye(2))
        assert new_state.fp_out == 1.0

    def test_elastic_stress_is_energy_gradient(self):
        rng = np.random.default_rng(5)
        params = mm.MATRIX_DEFAULTS
        for _ in range(20):
            fp = random_plastic_fp(rng)
            # small enough elastic stretch on top of fp to stay elastic
            f = (np.eye(3) + 0.002 * random_plane(rng)) @ fp
            state = mm.PlasticState(*plane_blocks(fp.copy()), np.array(0.3))
            tau, new_state, _ = mm.matrix_update(*plane_blocks(f), state,
                                                 params)
            assert new_state.gamma == state.gamma
            p_fd = fd_gradient(
                lambda x: mm.matrix_energy(*plane_blocks(x), state, params), f)
            ref = tau_eq_of_pk1(p_fd, f)
            assert abs(tau - ref) <= 1e-6 * max(ref, 1.0)

    def test_plastic_stress_is_elastic_stress_of_updated_state(self):
        # oracle: P = K ln J F^-T + F_e M F^p^-T at the updated plastic
        # state, M = mu C_e^-1 dev ln C_e, with LAPACK eigenpairs and
        # inverses; tau_eq is the von Mises norm of its P F^T
        rng = np.random.default_rng(10)
        params = mm.MATRIX_DEFAULTS
        f = np.eye(3) + 0.1 * random_plane(rng, (64,))
        tau, state, _ = mm.matrix_update(*plane_blocks(f),
                                         mm.PlasticState.initial((64,)),
                                         params)
        assert np.count_nonzero(state.gamma) > 32
        fp = plane_strain(state.fp_in, state.fp_out)
        fe = f @ np.linalg.inv(fp)
        w, q = np.linalg.eigh(np.swapaxes(fe, -1, -2) @ fe)
        log_w = np.log(w)
        dev_w = log_w - log_w.mean(axis=-1, keepdims=True)
        m = (q * (params.mu_mpa * dev_w / w)[..., None, :]) @ np.swapaxes(q, -1, -2)
        f_inv_t = np.swapaxes(np.linalg.inv(f), -1, -2)
        ref = (params.k_mpa * np.log(np.linalg.det(f))[..., None, None] * f_inv_t
               + fe @ m @ np.swapaxes(np.linalg.inv(fp), -1, -2))
        tau_ref = tau_eq_of_pk1(ref, f)
        assert np.max(np.abs(tau - tau_ref)) <= 1e-10 * np.max(np.abs(tau_ref))

    def test_return_matches_bisection_oracle(self):
        # independent oracle: trial stress from LAPACK eigensolver and a
        # plain bisection solve of the consistency residual
        rng = np.random.default_rng(6)
        params = mm.MATRIX_DEFAULTS
        n_checked = 0
        while n_checked < 1000:
            fp = random_plastic_fp(rng, scale=rng.uniform(0.0, 0.3))
            gamma0 = rng.uniform(0.0, 2.0)
            f = (np.eye(3) + rng.uniform(0.02, 0.2) * random_plane(rng)) @ fp
            if np.linalg.det(f) <= 0.05:
                continue
            fe = f @ np.linalg.inv(fp)
            w = np.linalg.eigvalsh(fe.T @ fe)
            log_w = np.log(w)
            dev_w = log_w - log_w.mean()
            tau_tr = np.sqrt(1.5) * params.mu_mpa * np.sqrt(np.sum(dev_w**2))
            if tau_tr <= params.tau_y0 + params.hardening(gamma0):
                continue
            dg_oracle = float(bisect_return(tau_tr, gamma0, params))

            state = mm.PlasticState(*plane_blocks(fp.copy()), np.array(gamma0))
            tau_eq, new_state, _ = mm.matrix_update(*plane_blocks(f), state,
                                                    params)
            dg = float(new_state.gamma - gamma0)
            assert abs(dg - dg_oracle) <= 1e-10
            # consistency: stress sits on the updated yield surface
            f_resid = tau_eq - params.tau_y0 - params.hardening(new_state.gamma)
            assert abs(f_resid) <= 1e-8 * params.tau_y0
            n_checked += 1

    def test_newton_return_converges_on_a_wide_grid(self):
        # overstresses from 1e-9 to 1e5 MPa over gamma0 in [0, 10]: Newton
        # alone meets the tolerance, inside [0, tau_tr / 3 mu]
        params = mm.MATRIX_DEFAULTS
        over, gamma0 = np.meshgrid(np.logspace(-9, 5, 141),
                                   np.linspace(0.0, 10.0, 41))
        gamma0 = gamma0.ravel()
        tau_tr = params.tau_y0 + params.hardening(gamma0) + over.ravel()
        x = mm._solve_return_scalar(tau_tr, gamma0, params)
        residual = (tau_tr - 3.0 * params.mu_mpa * x - params.tau_y0
                    - params.hardening(gamma0 + x))
        assert np.all(x >= 0.0)
        assert np.all(x <= tau_tr / (3.0 * params.mu_mpa))
        assert np.all(np.abs(residual) <= mm._NEWTON_TOL_FACTOR * params.tau_y0)

    def test_newton_evaluates_the_residual_once_per_iterate(self):
        # the residual reads the hardening, each Newton update its slope;
        # the last residual evaluated decides convergence
        calls = []

        class Counted(mm.MatrixParams):
            def hardening(self, gamma):
                calls.append("residual")
                return super().hardening(gamma)

            def hardening_slope(self, gamma):
                calls.append("slope")
                return super().hardening_slope(gamma)

        params = Counted()
        tau_tr = params.tau_y0 + np.array([1e-3, 1.0, 50.0, 1e3])
        mm._solve_return_scalar(tau_tr, np.zeros(4), params)
        assert calls.count("slope") > 0
        assert calls.count("residual") == calls.count("slope") + 1

    def test_unconverged_return_raises(self, monkeypatch):
        params = mm.MATRIX_DEFAULTS
        monkeypatch.setattr(mm, "_NEWTON_MAX_ITER", 0)
        with pytest.raises(RuntimeError, match="failed to converge"):
            mm._solve_return_scalar(np.array([params.tau_y0 + 1.0]),
                                    np.zeros(1), params)

    def test_hardening_saturation_under_monotonic_shear(self):
        # far into the plastic regime the stress approaches
        # tau_y0 + y_hard = 120 MPa
        params = mm.MATRIX_DEFAULTS
        state = mm.PlasticState.initial()
        tau = 0.0
        for s in np.linspace(0.0, 0.6, 240)[1:]:
            f = np.eye(2)
            f[0, 1] = s
            tau, state, _ = mm.matrix_update(f, 1.0, state, params)
        assert abs(tau - 120.0) <= 0.5

    def test_det_fp_unimodular(self):
        rng = np.random.default_rng(7)
        state = mm.PlasticState.initial()
        f = np.eye(3)
        for _ in range(60):
            f = f + 0.02 * random_plane(rng)
            if tl.det(*plane_blocks(f)) < 0.3:
                f = np.eye(3)
            _, state, _ = mm.matrix_update(*plane_blocks(f), state)
            assert abs(tl.det(state.fp_in, state.fp_out) - 1.0) <= 1e-8

    def test_gamma_never_decreases(self):
        rng = np.random.default_rng(8)
        state = mm.PlasticState.initial((16,))
        f = np.broadcast_to(np.eye(3), (16, 3, 3)).copy()
        last = state.gamma.copy()
        for _ in range(40):
            f = f + 0.01 * random_plane(rng, (16,))
            _, state, _ = mm.matrix_update(*plane_blocks(f), state)
            assert np.all(state.gamma >= last - 1e-15)
            last = state.gamma.copy()

    def test_drifted_plastic_state_renormalized(self):
        # an elastic step keeps F^p, but one with det F^p = 1.1^3 is scaled
        # back to det 1, its block and out-of-plane entry alike; the
        # unimodular neighbour is left bit-identical
        state = mm.PlasticState(np.stack([1.1 * np.eye(2), np.eye(2)]),
                                np.array([1.1, 1.0]), np.zeros(2))
        tau, new, renormalized = mm.matrix_update(np.stack([np.eye(2)] * 2),
                                                  1.0, state)
        assert np.all(new.gamma == 0.0) and np.allclose(tau, 0.0)
        assert renormalized.tolist() == [True, False]
        assert np.allclose(new.fp_in[0], np.eye(2), atol=1e-15)
        assert abs(new.fp_out[0] - 1.0) <= 1e-15
        assert np.array_equal(new.fp_in[1], np.eye(2)) and new.fp_out[1] == 1.0

    def test_flow_only_at_plastic_points(self):
        # elastic, plastic and drifted (renormalized) points in one batch:
        # the update equals the all-points formula, which computes the flow
        # everywhere and keeps it where the step is plastic, and leaves
        # each elastic point's F^p bit for bit
        rng = np.random.default_rng(21)
        n = 24
        odd = np.arange(n) % 2 == 1
        f = np.eye(2) + np.where(odd, 0.2, 0.002)[:, None, None] \
            * rng.standard_normal((n, 2, 2))
        fp = np.stack([random_plastic_fp(rng) if odd[i] else np.eye(3)
                       for i in range(n)])
        drift = np.where(np.arange(n) % 3 == 0, 1.001, 1.0)
        state = mm.PlasticState(fp[:, :2, :2] * drift[:, None, None],
                                fp[:, 2, 2] * drift, rng.uniform(0.0, 0.05, n))
        tau, new, renormalized = mm.matrix_update(f, 1.0, state)
        want_tau, want, want_renormalized = all_points_update(f, 1.0, state)
        assert np.array_equal(tau, want_tau)
        for got, expected in zip(new, want):
            assert got.tobytes() == expected.tobytes()
        assert np.array_equal(renormalized, want_renormalized)
        elastic = new.gamma == state.gamma
        for points in (elastic, ~elastic):
            assert (points & renormalized).any()
            assert (points & ~renormalized).any()
        kept = elastic & ~renormalized
        assert new.fp_in[kept].tobytes() == state.fp_in[kept].tobytes()
        assert new.fp_out[kept].tobytes() == state.fp_out[kept].tobytes()

    def test_plane_strain_structure_preserved(self):
        # plane-strain loading keeps F^p in block form, and its out-of-plane
        # normal stretch evolves: the flow is isochoric in 3D, not in plane
        rng = np.random.default_rng(9)
        state = mm.PlasticState.initial()
        for _ in range(40):
            f = np.eye(2) + 0.04 * rng.standard_normal((2, 2))
            _, state, _ = mm.matrix_update(f, 1.0, state)
        assert state.fp_in.shape == (2, 2) and state.fp_out.shape == ()
        assert abs(state.fp_out - 1.0) > 1e-3
        assert abs(tl.det(state.fp_in, state.fp_out) - 1.0) <= 1e-12
        assert state.gamma > 0.1


def all_points_update(f_in, f_out, state, params=mm.MATRIX_DEFAULTS):
    """``matrix_update`` by the formula that computes the plastic flow of
    every point and merges it with the old ``F^p`` where the step is
    plastic."""
    mu = params.mu_mpa
    fp_inv_in, fp_inv_out = tl.inv(state.fp_in, state.fp_out)
    vecs, order, dev_log = mm._log_strain_deviator(f_in @ fp_inv_in,
                                                   f_out * fp_inv_out)
    tau_tr = np.sqrt(1.5) * mu * np.sqrt((dev_log * dev_log).sum(axis=-1))
    plastic = tau_tr - params.tau_y0 - params.hardening(state.gamma) > 0.0
    dgamma = np.zeros_like(tau_tr)
    dgamma[plastic] = mm._solve_return_scalar(tau_tr[plastic],
                                              state.gamma[plastic], params)
    safe_tau = np.where(tau_tr > 0.0, tau_tr, 1.0)
    shrink = np.where(plastic, 3.0 * mu * dgamma / safe_tau, 0.0)
    flow_in, flow_out = mm._spectral_blocks(
        np.exp(0.5 * shrink[..., None] * dev_log), vecs, order)
    fp_in = np.where(plastic[..., None, None], flow_in @ state.fp_in,
                     state.fp_in)
    fp_out = np.where(plastic, flow_out * state.fp_out, state.fp_out)
    det_fp = tl.det(fp_in, fp_out)
    bad = np.abs(det_fp - 1.0) > mm._DET_FP_DRIFT_TOL
    scale = np.where(bad, det_fp ** (-1.0 / 3.0), 1.0)
    fp_in, fp_out = fp_in * scale[..., None, None], fp_out * scale
    return (tau_tr - 3.0 * mu * dgamma,
            mm.PlasticState(fp_in, fp_out, state.gamma + dgamma), bad)


class TestEnsemble:
    def test_zero_perturbation_is_uniform(self):
        ens = mm.build_ensemble(10, 4, 0.0, seed=1)
        f = np.eye(2) + np.array([[0.02, 0.01], [0.005, -0.01]])
        local = ens.local_deformations(f)
        assert local.shape == (14, 2, 2)
        assert np.allclose(local, f, atol=1e-15)

    @pytest.mark.parametrize("n_points", [1, 7, 150, 1807])
    def test_stacked_macro_blocks_equal_single_ones(self, n_points):
        # one product for a stack of macro blocks, whose slices are the
        # single-block products to the bit
        ens = mm.build_ensemble(n_points, 0, 0.3, seed=n_points)
        rng = np.random.default_rng(n_points)
        for n_paths in (1, 2, 5, 16):
            f = np.eye(2) + 0.05 * rng.standard_normal((n_paths, 2, 2))
            stacked = ens.local_deformations(f)
            assert stacked.shape == (n_paths, n_points, 2, 2)
            for k in range(n_paths):
                assert stacked[k].tobytes() \
                    == ens.local_deformations(f[k]).tobytes()

    def test_mean_map_is_identity(self):
        ens = mm.build_ensemble(50, 20, 0.3, seed=2)
        mean = ens.concentrations.mean(axis=0)
        assert np.linalg.norm(mean - np.eye(4)) <= 1e-10

    def test_operator_norm_bound(self):
        amp = 0.3
        ens = mm.build_ensemble(80, 30, amp, seed=3)
        perturb = ens.concentrations - np.eye(4)
        norms = np.linalg.svd(perturb, compute_uv=False)[:, 0]
        # re-centering can push the bound by at most the mean-map norm
        assert np.all(norms <= amp + 0.05)

    def test_deterministic_per_seed(self):
        a = mm.build_ensemble(30, 10, 0.25, seed=9)
        b = mm.build_ensemble(30, 10, 0.25, seed=9)
        assert a.concentrations.tobytes() == b.concentrations.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            mm.build_ensemble(0, 5, 0.1, seed=0)
        with pytest.raises(ValueError):
            mm.build_ensemble(5, 5, 1.0, seed=0)


def pathological_ensemble():
    # a hand-built map drives matrix point 0 to det F <= 0 once the
    # macro stretch exceeds 1/30
    ens = mm.build_ensemble(4, 2, 0.0, seed=8)
    ens.concentrations[0] = -30.0 * np.eye(4)
    return ens


def stretch_path(amplitude, n_steps=9):
    amps = np.linspace(0.0, amplitude, n_steps)
    u = np.stack([np.diag([1.0 + a, 1.0]) for a in amps])
    return pg.LoadingPath(u, pg.KIND_CYCLIC)


def capped_walks():
    # three 21-step walks; under a plastic increment cap of 0.005 the
    # second and third need sub-steps, the first does not
    return [pg.generate_random_path(pg.RandomWalkConfig(
                delta_r=0.02, delta_r_min=5e-3, r_max=0.3, max_steps=20,
                seed=(0, i)))
            for i in range(3)]


class TestRunSequence:
    def test_identity_path_gives_zero_fields(self):
        u = np.broadcast_to(np.eye(2), (10, 2, 2))
        path = pg.LoadingPath(u.copy(), pg.KIND_RANDOM_WALK)
        ens = mm.build_ensemble(12, 5, 0.3, seed=4)
        fields = mm.run_sequence(path, ens)
        assert not fields.truncated
        assert np.all(fields.gamma == 0.0)
        assert np.all(fields.tau == 0.0)

    def test_uniform_ensemble_matches_single_point_oracle(self):
        # with zero perturbation every matrix point must reproduce a direct
        # single-point integration of the same loading
        path = pg.generate_cyclic_path(seed=11, n_reversals=2,
                                       amplitude_max=0.08, step_size=0.008)
        ens = mm.build_ensemble(6, 3, 0.0, seed=5)
        fields = mm.run_sequence(path, ens)

        state = mm.PlasticState.initial()
        for t, u in enumerate(path.stretches):
            tau, state, _ = mm.matrix_update(u, 1.0, state, ens.matrix)
            tau_fiber = mm.fiber_stress(u, 1.0, ens.fiber)
            assert np.allclose(fields.gamma[t], state.gamma, atol=1e-12)
            assert np.allclose(fields.tau[t, :6], tau, atol=1e-9)
            assert np.allclose(fields.tau[t, 6:], tau_fiber, atol=1e-9)
        assert fields.gamma.max() > 0.0

    def test_gamma_fields_monotone(self):
        path = pg.generate_random_path(
            pg.RandomWalkConfig(delta_r=0.02, delta_r_min=0.002, r_max=0.1,
                                max_steps=400, seed=12))
        ens = mm.build_ensemble(20, 8, 0.3, seed=6)
        fields = mm.run_sequence(path, ens)
        assert not fields.truncated
        diffs = np.diff(fields.gamma, axis=0)
        assert np.all(diffs >= -1e-12)

    def test_truncation_on_invalid_local_state(self):
        ens = pathological_ensemble()
        path = stretch_path(0.08)
        fields = mm.run_sequence(path, ens)
        assert fields.truncated
        assert len(fields) < len(path)
        assert fields.substepped_steps == 0

    def test_substepping_counted(self, plastic_increment_cap):
        path = capped_walks()[1]
        ens = mm.build_ensemble(8, 2, 0.3, seed=0)
        plain = mm.run_sequence(path, ens)
        plastic_increment_cap(0.005)
        fields = mm.run_sequence(path, ens)
        assert plain.substepped_steps == 0
        assert fields.substepped_steps >= 2
        assert not fields.truncated and len(fields) == len(path)

    def test_field_dimensions(self):
        path = pg.generate_cyclic_path(seed=14, n_reversals=1,
                                       amplitude_max=0.05, step_size=0.02)
        ens = mm.build_ensemble(7, 3, 0.2, seed=9)
        fields = mm.run_sequence(path, ens)
        assert fields.gamma.shape == (len(path), 7)
        assert fields.tau.shape == (len(path), 10)
        assert np.all(fields.gamma[2] >= 0.0)
        assert np.all(fields.tau[2] >= 0.0)

    @pytest.mark.parametrize("kind", [pg.KIND_RANDOM_WALK, pg.KIND_CYCLIC])
    def test_matches_jacobi_oracle(self, kind):
        # the plane-strain kernel against general 3x3 algebra with Jacobi
        # sweeps, LAPACK inverses and a bisection return
        path = oracle_path(kind)
        ens = mm.build_ensemble(14, 6, 0.3, seed=10)
        fields = mm.run_sequence(path, ens)
        gamma, tau = oracle_fields(path, ens)
        assert not fields.truncated
        assert gamma.max() > 0.0
        for got, want in ((fields.gamma, gamma), (fields.tau, tau)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", [pg.KIND_RANDOM_WALK, pg.KIND_CYCLIC])
    def test_bit_identical_to_general_3x3_algebra(self, kind):
        # the fields do not move by one bit against the same operations in
        # 3x3 form, so datasets and stored reference outputs stay valid
        path = oracle_path(kind)
        ens = mm.build_ensemble(14, 6, 0.3, seed=10)
        fields = mm.run_sequence(path, ens)
        gamma, tau = oracle_fields(path, ens, inverse=adjugate_inv,
                                   solve=mm._solve_return_scalar)
        assert gamma.max() > 0.0
        assert np.array_equal(fields.gamma, gamma)
        assert np.array_equal(fields.tau, tau)


def reference_fields(path, ens):
    """Per-path stepping: each macro step in one increment, retried with 2,
    4, ..., 2**8 sub-steps on failure; truncated when none converges.
    Returns ``(gamma, tau, truncated, substepped_steps)``."""
    n_steps = len(path)
    gamma = np.zeros((n_steps, ens.d_gamma))
    tau = np.zeros((n_steps, ens.d_tau))
    state = mm.PlasticState.initial((ens.n_matrix,))
    f_prev = np.eye(2)
    substepped = 0
    for t in range(n_steps):
        f_target = path.stretches[t]
        for halving in range(9):
            n_sub = 2**halving
            trial = state
            try:
                for j in range(1, n_sub + 1):
                    local = ens.local_deformations(
                        mm._interpolate(f_prev, f_target, j / n_sub))
                    trial, tau_t, _ = mm._step_fields(ens, local, trial)
            except (mm.InvalidDeformationError, RuntimeError):
                continue
            break
        else:
            return gamma[:t], tau[:t], True, substepped
        state, tau[t], f_prev = trial, tau_t, f_target
        gamma[t] = state.gamma
        substepped += halving > 0
    return gamma, tau, False, substepped


class TestRunSequences:
    """Lockstep stepping equals per-path stepping bit for bit."""

    @staticmethod
    def assert_per_path(paths, ens):
        got = mm.run_sequences(paths, ens)
        assert len(got) == len(paths)
        for path, fields in zip(paths, got):
            gamma, tau, truncated, substepped = reference_fields(path, ens)
            for f in (fields, mm.run_sequence(path, ens)):
                assert np.array_equal(f.gamma, gamma)
                assert np.array_equal(f.tau, tau)
                assert f.truncated == truncated
                assert f.substepped_steps == substepped
        return got

    def test_paths_of_different_lengths(self):
        # the active set shrinks as the shorter paths end; on these cyclic
        # paths a trial F built as f_target, not f_prev + 1 * (f_target -
        # f_prev), moves tau by about 1e-12
        paths = [pg.generate_cyclic_path(seed=(0, i, 2), n_reversals=3,
                                         amplitude_max=0.08, step_size=0.005)
                 for i in range(3)]
        paths.append(pg.LoadingPath(np.eye(2)[None], pg.KIND_RANDOM_WALK))
        assert len({len(p) for p in paths}) == len(paths)
        got = self.assert_per_path(paths, mm.build_ensemble(20, 8, 0.3, seed=1))
        assert min(f.gamma.max() for f in got[:3]) > 0.0

    def test_truncating_path_in_a_mixed_batch(self):
        # the large stretch fails the batch at step 4, after the third
        # path has ended; it alone is truncated, the first steps on
        paths = [stretch_path(0.02), stretch_path(0.08), stretch_path(0.03, 3)]
        ens = pathological_ensemble()
        got = self.assert_per_path(paths, ens)
        assert [f.truncated for f in got] == [False, True, False]
        assert [len(f) for f in got] == [9, 4, 3]

    def test_substepping_in_a_batch(self, plastic_increment_cap):
        plastic_increment_cap(0.005)
        paths = capped_walks()
        ens = mm.build_ensemble(8, 2, 0.3, seed=0)
        got = self.assert_per_path(paths, ens)
        assert sum(f.substepped_steps for f in got) >= 2
        # some paths sub-step, others never need to
        needs = [i for i, f in enumerate(got) if f.substepped_steps]
        assert 0 < len(needs) < len(paths)

    def test_unconverged_return_truncates_at_first_plastic_step(
            self, monkeypatch):
        # a return mapping that cannot converge fails every split of the
        # first plastic step, so the path ends just before it
        path = oracle_path(pg.KIND_CYCLIC)
        ens = mm.build_ensemble(14, 6, 0.3, seed=10)
        plain = mm.run_sequence(path, ens)
        first_plastic = int(np.argmax(plain.gamma.max(axis=1) > 0.0))
        assert first_plastic > 0
        monkeypatch.setattr(mm, "_NEWTON_MAX_ITER", 0)
        (fields,) = mm.run_sequences([path], ens)
        assert fields.truncated
        assert len(fields) == first_plastic
        assert fields.substepped_steps == 0
        assert np.array_equal(fields.gamma, plain.gamma[:first_plastic])
        assert np.array_equal(fields.tau, plain.tau[:first_plastic])

    def test_empty_list(self):
        assert mm.run_sequences([], mm.build_ensemble(4, 2, 0.3, seed=0)) == []
