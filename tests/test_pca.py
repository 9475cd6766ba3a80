import numpy as np
import pytest

from rvesurrogate import pca


def jacobi_eigensystem(m, sweeps=60):
    """Brute-force cyclic Jacobi sweeps for symmetric matrices (test oracle)."""
    a = np.array(m, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < 1e-14 * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-30:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t**2 + 1.0)
                s = t * c
                g = np.eye(n)
                g[p, p] = g[q, q] = c
                g[p, q] = s
                g[q, p] = -s
                a = g.T @ a @ g
                v = v @ g
    order = np.argsort(-np.diag(a))
    return np.diag(a)[order], v[:, order]


def reconstruction_mse(model, x):
    """Mean squared error of the rank-p reconstruction of ``x``."""
    return float(np.mean((x - pca.reconstruct(pca.project(x, model), model)) ** 2))


def random_snapshots(rng, n=50, d=30):
    return rng.standard_normal((n, d))


class TestFit:
    def test_constant_snapshots(self):
        x = np.tile(np.arange(6.0), (5, 1))
        model = pca.fit(x, p=0)
        assert model.retained_p == 0
        assert np.all(model.eigenvalues == 0.0)
        rec = pca.reconstruct(np.zeros(0), model)
        assert np.allclose(rec, x[0])

    def test_rank_one_data(self):
        rng = np.random.default_rng(1)
        direction = rng.standard_normal(12)
        coeffs = rng.standard_normal(40)
        x = np.outer(coeffs, direction) + 3.0
        model = pca.fit(x, p=1)
        assert model.retained_p == 1
        assert pca.residual_fraction(model, 1) <= 1e-12
        err = x - pca.reconstruct(pca.project(x, model), model)
        assert np.max(np.abs(err)) <= 1e-9

    def test_matches_independent_jacobi_oracle(self):
        rng = np.random.default_rng(2)
        x = random_snapshots(rng, n=50, d=30)
        model = pca.fit(x, p=30)
        centered = x - x.mean(axis=0)
        m = centered.T @ centered
        vals_o, vecs_o = jacobi_eigensystem(m)
        scale = max(vals_o.max(), 1.0)
        assert np.allclose(model.eigenvalues, vals_o, atol=1e-8 * scale)
        # eigenvectors match up to sign
        for j in range(30):
            dot = abs(model.components[:, j] @ vecs_o[:, j])
            assert dot == pytest.approx(1.0, abs=1e-8)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(3)
        model = pca.fit(random_snapshots(rng), p=10)
        gram = model.components.T @ model.components
        assert np.linalg.norm(gram - np.eye(10)) <= 1e-10

    def test_eigenvalues_descending_nonnegative(self):
        rng = np.random.default_rng(4)
        model = pca.fit(random_snapshots(rng), p=5)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)
        assert np.all(model.eigenvalues >= 0.0)

    def test_subsampling_seeded(self):
        rng = np.random.default_rng(5)
        x = random_snapshots(rng, n=200, d=10)
        a = pca.fit(x, subsample_fraction=0.25, p=4, seed=11)
        b = pca.fit(x, subsample_fraction=0.25, p=4, seed=11)
        c = pca.fit(x, subsample_fraction=0.25, p=4, seed=12)
        assert a.components.tobytes() == b.components.tobytes()
        assert a.components.tobytes() != c.components.tobytes()

    def test_dimension_cap(self):
        x = np.zeros((2, pca.DEFAULT_DIMENSION_CAP + 1))
        with pytest.raises(ValueError, match="snapshot space"):
            pca.fit(x, p=2)


class TestProjectReconstruct:
    def test_mean_projects_to_zero(self):
        rng = np.random.default_rng(7)
        x = random_snapshots(rng)
        model = pca.fit(x, p=6)
        assert np.allclose(pca.project(x.mean(axis=0), model), 0.0, atol=1e-12)

    def test_component_projects_to_unit(self):
        rng = np.random.default_rng(8)
        model = pca.fit(random_snapshots(rng), p=4)
        xi = pca.project(model.mean + model.components[:, 0], model)
        assert np.allclose(xi, [1.0, 0.0, 0.0, 0.0], atol=1e-10)

    def test_zero_coefficients_give_mean(self):
        rng = np.random.default_rng(9)
        model = pca.fit(random_snapshots(rng), p=4)
        assert np.allclose(pca.reconstruct(np.zeros(4), model), model.mean)

    def test_project_reconstruct_identity_on_subspace(self):
        rng = np.random.default_rng(10)
        model = pca.fit(random_snapshots(rng), p=7)
        xi = rng.standard_normal((20, 7))
        back = pca.project(pca.reconstruct(xi, model), model)
        assert np.max(np.abs(back - xi)) <= 1e-10

    def test_full_rank_exact_reconstruction(self):
        rng = np.random.default_rng(11)
        x = random_snapshots(rng, n=50, d=12)
        model = pca.fit(x, p=12)
        err = x - pca.reconstruct(pca.project(x, model), model)
        assert np.max(np.abs(err)) <= 1e-9

    def test_reconstruction_mse_identity(self):
        # direct residual-sum oracle: in-sample MSE at rank p equals the
        # trailing eigenvalue sum divided by n * d
        rng = np.random.default_rng(12)
        x = random_snapshots(rng, n=40, d=15)
        n, d = x.shape
        for p in (1, 4, 9, 15):
            model = pca.fit(x, p=p)
            mse = reconstruction_mse(model, x)
            expected = model.eigenvalues[p:].sum() / (n * d)
            assert mse == pytest.approx(expected, rel=1e-8, abs=1e-14)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(13)
        model = pca.fit(random_snapshots(rng), p=4)
        with pytest.raises(ValueError):
            pca.project(np.zeros(7), model)
        with pytest.raises(ValueError):
            pca.reconstruct(np.zeros(7), model)


class TestResidualFraction:
    def test_flat_spectrum(self):
        model = pca.PcaModel(np.zeros(10), np.ones(10), np.eye(10)[:, :5])
        assert pca.residual_fraction(model, 5) == pytest.approx(0.5)

    def test_full_rank_zero(self):
        rng = np.random.default_rng(14)
        model = pca.fit(random_snapshots(rng, d=9), p=9)
        assert pca.residual_fraction(model, 9) <= 1e-12

    def test_partial_sum_oracle(self):
        rng = np.random.default_rng(15)
        vals = np.sort(rng.uniform(0.0, 5.0, size=12))[::-1]
        model = pca.PcaModel(np.zeros(12), vals, np.eye(12)[:, :3])
        for p in range(13):
            expected = 1.0 - vals[:p].sum() / vals.sum()
            assert pca.residual_fraction(model, p) == pytest.approx(expected)

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(16)
        model = pca.fit(random_snapshots(rng, d=20), p=5)
        curve = [pca.residual_fraction(model, p) for p in range(21)]
        assert np.all(np.diff(curve) <= 1e-12)

    def test_reconstruction_mse_monotone_in_p(self):
        rng = np.random.default_rng(17)
        x = random_snapshots(rng, n=30, d=10)
        mses = []
        for p in range(1, 11):
            model = pca.fit(x, p=p)
            mses.append(reconstruction_mse(model, x))
        assert np.all(np.diff(mses) <= 1e-12)


class TestIO:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        model = pca.fit(random_snapshots(rng), p=6)
        f = tmp_path / "pca_gamma.bin"
        pca.save(f, model)
        back = pca.load(f)
        assert back.mean.tobytes() == model.mean.tobytes()
        assert back.eigenvalues.tobytes() == model.eigenvalues.tobytes()
        assert back.components.tobytes() == model.components.tobytes()
