import numpy as np
import pytest

from rvesurrogate import pathgen as pg

# upper 1% quantile of chi-square with 15 degrees of freedom
CHI2_99_DOF15 = 30.5779


@pytest.fixture
def cfg():
    return pg.RandomWalkConfig(delta_r=5e-3, delta_r_min=5e-4, r_max=0.1,
                               max_steps=5000, seed=2024)


class TestRandomIncrement:
    def test_eigen_norm_within_bounds(self, cfg):
        rng = pg.make_rng(0)
        for _ in range(2000):
            du = pg.random_increment(rng, cfg)
            lams = np.linalg.eigvalsh(du)
            norm = np.sqrt(np.sum(lams**2))
            assert cfg.delta_r_min < norm <= cfg.delta_r + 1e-15

    def test_symmetric(self, cfg):
        rng = pg.make_rng(2)
        du = pg.random_increment(rng, cfg)
        assert np.allclose(du, du.T)

    def test_principal_angle_uniform(self, cfg):
        # Monte-Carlo histogram oracle: the principal direction of the
        # dominant eigenvalue must be uniform on [0, pi).
        rng = pg.make_rng(3)
        n_samples = 100_000
        angles = np.empty(n_samples)
        for i in range(n_samples):
            du = pg.random_increment(rng, cfg)
            w, v = np.linalg.eigh(du)
            dom = v[:, np.argmax(np.abs(w))]
            angles[i] = np.arctan2(dom[1], dom[0]) % np.pi
        counts, _ = np.histogram(angles, bins=16, range=(0.0, np.pi))
        expected = n_samples / 16
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < CHI2_99_DOF15


class TestRandomPath:
    def test_deterministic_for_seed(self, cfg):
        p1 = pg.generate_random_path(cfg)
        p2 = pg.generate_random_path(cfg)
        assert p1.stretches.tobytes() == p2.stretches.tobytes()
        assert p1.strain_features().tobytes() == p2.strain_features().tobytes()

    def test_starts_at_identity(self, cfg):
        path = pg.generate_random_path(cfg)
        assert np.array_equal(path.stretches[0], np.eye(2))
        assert np.all(path.strain_features()[0] == 0.0)

    def test_termination_criterion(self, cfg):
        path = pg.generate_random_path(cfg)
        # per-step max |lambda_i(U) - 1| over the in-plane eigenvalues
        lams = np.linalg.eigvalsh(path.stretches)
        dev = np.max(np.abs(lams - 1.0), axis=-1)
        assert len(path) < cfg.max_steps + 1
        assert dev[-1] > cfg.r_max
        assert np.all(dev[:-1] <= cfg.r_max)

    def test_increment_bounds_whole_path(self, cfg):
        for seed in range(5):
            path = pg.generate_random_path(
                pg.RandomWalkConfig(seed=seed, max_steps=5000))
            norms = pg.increment_eigen_norms(path)
            assert np.all(norms <= 5e-3 + 1e-15)
            assert np.all(norms > 5e-4)

    def test_stretches_stay_spd(self, cfg):
        path = pg.generate_random_path(cfg)
        for u in path.stretches[:: max(1, len(path) // 20)]:
            assert np.all(np.linalg.eigvalsh(u) > 0.0)

    def test_strain_features_derived_from_stretches(self, cfg):
        path = pg.generate_random_path(cfg)
        u = path.stretches
        e = 0.5 * (np.einsum("nki,nkj->nij", u, u) - np.eye(2))
        want = np.stack([e[:, 0, 0], e[:, 1, 1], e[:, 0, 1]], axis=-1)
        assert np.allclose(path.strain_features(), want, atol=1e-15)


class TestCyclicPath:
    def test_single_reversal_visits_identity_twice(self):
        path = pg.generate_cyclic_path(
            seed=5, n_reversals=1, amplitude_max=0.1, step_size=0.01)
        hits = [np.allclose(u, np.eye(2), atol=0.0) for u in path.stretches]
        assert sum(hits) == 2
        assert hits[0] and hits[-1]

    def test_proportionality(self):
        # U - I is exactly proportional to the fixed direction; the strain
        # direction E/|E| then inherits a quadratic term s^2 D^2 / 2 and is
        # only constant to second order in the amplitude.
        path = pg.generate_cyclic_path(
            seed=6, n_reversals=3, amplitude_max=0.1, step_size=0.008)
        ref = None
        for xx, yy, xy in path.strain_features():
            e = np.array([[xx, xy], [xy, yy]])
            norm = np.linalg.norm(e)
            if norm < 1e-12:
                continue
            d = (e / norm).ravel()
            if ref is None:
                ref = d
            else:
                assert abs(float(d @ ref)) > 0.995

    def test_shared_eigenvectors(self):
        path = pg.generate_cyclic_path(
            seed=7, n_reversals=2, amplitude_max=0.08, step_size=0.005)
        direction = path.stretches[1] - np.eye(2)
        for u in path.stretches:
            # U - I must be a scalar multiple of the fixed direction
            d = u - np.eye(2)
            coeff = np.sum(d * direction) / np.sum(direction * direction)
            assert np.allclose(d, coeff * direction, atol=1e-12)

    def test_scalar_ramp_oracle(self):
        # the function's draws, in its order: the direction, then the
        # reversal amplitudes, here of both signs
        rng = pg.make_rng(18)
        direction = pg._inplane_direction(rng, 1.0)
        amplitudes = list(rng.uniform(-0.1, 0.1, size=2))
        # independently scripted piecewise-linear ramp
        step = 0.01
        expected = [0.0]
        s = 0.0
        for target in amplitudes + [0.0]:
            n_full, rem = divmod(round(abs(target - s) / step, 12), 1.0)
            sgn = 1.0 if target > s else -1.0
            for _ in range(int(n_full)):
                s += sgn * step
                expected.append(s)
            if rem > 1e-9:
                s = target
                expected.append(s)
        path = pg.generate_cyclic_path(
            seed=18, n_reversals=2, amplitude_max=0.1, step_size=step)
        got = [np.sum((u - np.eye(2)) * direction) / np.sum(direction ** 2)
               for u in path.stretches]
        assert np.allclose(got, expected, atol=1e-12)

    def test_amplitude_bound_validation(self):
        with pytest.raises(ValueError):
            pg.generate_cyclic_path(seed=0, n_reversals=0, amplitude_max=0.1,
                                    step_size=0.01)
        with pytest.raises(ValueError):
            pg.generate_cyclic_path(seed=0, n_reversals=2, amplitude_max=0.1,
                                    step_size=0.2)


class TestKinematics:
    def test_polar_decomposition_recovers_u(self):
        # polar-decomposition oracle via the LAPACK symmetric square root
        rng = np.random.default_rng(31)
        for _ in range(20):
            s = 0.05 * rng.standard_normal((3, 3))
            u = np.eye(3) + 0.5 * (s + s.T)
            f = u  # rotation-free kinematics: F = U
            w, q = np.linalg.eigh(f.T @ f)
            u_rec = (q * np.sqrt(w)) @ q.T
            assert np.allclose(u_rec, u, atol=1e-10)
            assert np.allclose(f @ np.linalg.inv(u_rec), np.eye(3), atol=1e-10)

    @staticmethod
    def features_at(u):
        """Strain features of the one-step path from the identity to ``u``."""
        path = pg.LoadingPath(np.stack([np.eye(2), u]), pg.KIND_RANDOM_WALK)
        return path.strain_features()[1]

    def test_strain_features_identity(self):
        path = pg.LoadingPath(np.eye(2)[None], pg.KIND_RANDOM_WALK)
        assert np.all(path.strain_features() == 0.0)

    def test_strain_features_uniaxial(self):
        e_xx, e_yy, e_xy = self.features_at(np.diag([1.1, 1.0]))
        assert abs(e_xx - 0.105) < 1e-15
        assert e_yy == 0.0 and e_xy == 0.0

    def test_strain_features_consistent_with_f(self):
        rng = np.random.default_rng(32)
        s = 0.03 * rng.standard_normal((2, 2))
        u = np.eye(2) + 0.5 * (s + s.T)
        f = u  # rotation-free kinematics: F = U
        e = 0.5 * (f.T @ f - np.eye(2))
        assert np.allclose(self.features_at(u), [e[0, 0], e[1, 1], e[0, 1]],
                           atol=1e-14)

    def test_stretches_must_be_in_plane_blocks(self):
        for u in (np.eye(3)[None], np.eye(2), np.zeros((0, 2, 2))):
            with pytest.raises(ValueError, match="shape"):
                pg.LoadingPath(u, pg.KIND_RANDOM_WALK)
