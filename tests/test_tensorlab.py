import numpy as np
import pytest

from conftest import plane_blocks, plane_strain
from rvesurrogate import tensorlab as tl


def random_symmetric(rng, scale=1.0):
    g = rng.standard_normal((2, 2)) * scale
    return plane_strain(0.5 * (g + g.T), rng.standard_normal() * scale)


def random_spd(rng, spread=1.0):
    g = rng.standard_normal((2, 2)) * spread
    return plane_strain(g @ g.T + 0.1 * np.eye(2),
                        (rng.standard_normal() * spread) ** 2 + 0.1)


def random_plane_strain(rng, shape):
    return plane_strain(rng.standard_normal(shape + (2, 2)),
                        rng.standard_normal(shape))


def eigenvectors_3x3(decomp):
    """The 3x3 eigenvector matrices of a decomposition, one column per value."""
    vecs, order = decomp.vectors, decomp.order
    out = np.zeros(order.shape[:-1] + (3, 3))
    for idx in np.ndindex(order.shape[:-1]):
        in_plane = iter(vecs[idx].T)
        for k, source in enumerate(order[idx]):
            if source == 2:
                out[idx + (2, k)] = 1.0
            else:
                out[idx + (slice(0, 2), k)] = next(in_plane)
    return out


def sym_eig_3x3(s):
    """Eigenvalues and 3x3 eigenvector matrices of plane-strain tensors."""
    decomp = tl.sym_eig(*plane_blocks(s))
    return decomp.values, eigenvectors_3x3(decomp)


def spectral_map(s, func):
    """``func`` applied to the eigenvalues of ``s`` through sym_eig."""
    vals, vecs = sym_eig_3x3(s)
    return tl.reassemble(func(vals), vecs)


class TestSymEig:
    def test_identity(self):
        vals, vecs, order = tl.sym_eig(np.eye(2), 1.0)
        assert np.allclose(vals, [1.0, 1.0, 1.0])
        assert np.allclose(vecs.T @ vecs, np.eye(2), atol=1e-12)
        assert order.tolist() == [0, 1, 2]

    def test_diagonal(self):
        for diagonal, order in (([3.0, 2.0, 1.0], [0, 1, 2]),
                                ([1.0, 2.0, 3.0], [2, 1, 0]),
                                ([1.0, 3.0, 2.0], [1, 2, 0])):
            decomp = tl.sym_eig(np.diag(diagonal[:2]), diagonal[2])
            assert np.allclose(decomp.values, [3.0, 2.0, 1.0], atol=1e-14)
            assert decomp.order.tolist() == order
            # axis-aligned eigenvectors up to sign, in the order of their values
            vecs = eigenvectors_3x3(decomp)
            assert np.allclose(np.abs(vecs), np.eye(3)[:, order], atol=1e-12)

    def test_against_lapack_oracle(self):
        # independent oracle: LAPACK symmetric eigensolver
        rng = np.random.default_rng(42)
        for _ in range(200):
            s = random_symmetric(rng, scale=rng.uniform(0.1, 10.0))
            vals, vecs = sym_eig_3x3(s)
            ref = np.sort(np.linalg.eigvalsh(s))
            assert np.allclose(np.sort(vals), ref,
                               atol=1e-9 * max(1.0, np.abs(ref).max()))
            assert np.linalg.norm(vecs.T @ vecs - np.eye(3)) <= 1e-10
            rebuilt = tl.reassemble(vals, vecs)
            err = np.linalg.norm(rebuilt - s) / max(np.linalg.norm(s), 1e-30)
            assert err <= 1e-10

    def test_descending_order(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            vals, _ = sym_eig_3x3(random_symmetric(rng))
            assert vals[0] >= vals[1] >= vals[2]

    def test_batch_matches_single_bitwise(self):
        rng = np.random.default_rng(7)
        batch = np.stack([random_symmetric(rng) for _ in range(17)])
        # isotropic and diagonal blocks need no rotation
        batch[3, :2, :2] = 2.5 * np.eye(2)
        batch[4, :2, :2] = np.diag([-1.0, 4.0])
        batched = tl.sym_eig(*plane_blocks(batch))
        for i in range(batch.shape[0]):
            single = tl.sym_eig(*plane_blocks(batch[i]))
            for got, want in zip(batched, single):
                assert np.array_equal(got[i], want)

    def test_rejects_nonfinite(self):
        for entry in ((0, 0), (2, 2)):
            s = np.eye(3)
            s[entry] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                tl.sym_eig(*plane_blocks(s))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            tl.sym_eig(np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0)

    def test_degenerate_spectrum(self):
        s = np.diag([2.0, 2.0, 2.0])
        vals, vecs = sym_eig_3x3(s)
        assert np.allclose(vals, 2.0)
        assert np.allclose(tl.reassemble(vals, vecs), s, atol=1e-12)


class TestInplaneEigvals:
    """The eigenvalues-only path agrees with ``sym_eig`` to roundoff."""

    def test_matches_sym_eig(self):
        rng = np.random.default_rng(11)
        blocks = np.stack([plane_blocks(random_symmetric(
            rng, scale=rng.uniform(0.1, 10.0)))[0] for _ in range(200)])
        blocks[3] = 2.5 * np.eye(2)
        blocks[4] = np.diag([-1.0, 4.0])
        got = tl.inplane_eigvals(blocks)
        # sym_eig's in-plane values, in descending order
        decomp = tl.sym_eig(blocks, 0.0)
        want = decomp.values[decomp.order < 2].reshape(-1, 2)
        scale = np.abs(blocks).max(axis=(-2, -1), keepdims=True)[..., 0]
        assert np.all(np.abs(got - want) <= 1e-14 * scale)
        assert np.all(got[..., 0] >= got[..., 1])


class TestLogExp:
    """Tensor logarithm, exponential and square root built from sym_eig."""

    def test_log_identity_is_zero(self):
        assert np.allclose(spectral_map(np.eye(3), np.log), 0.0)

    def test_log_diagonal(self):
        s = np.diag([np.e**2, 1.0, 1.0])
        assert np.allclose(spectral_map(s, np.log), np.diag([2.0, 0.0, 0.0]),
                           atol=1e-12)

    def test_exp_zero_is_identity(self):
        assert np.allclose(spectral_map(np.zeros((3, 3)), np.exp), np.eye(3))

    def test_exp_diagonal(self):
        assert np.allclose(
            spectral_map(np.diag([1.0, 0.0, 0.0]), np.exp),
            np.diag([np.e, 1.0, 1.0]),
        )

    def test_round_trip_100_random_spd(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = random_spd(rng, spread=rng.uniform(0.2, 2.0))
            back = spectral_map(spectral_map(s, np.log), np.exp)
            rel = np.linalg.norm(back - s) / np.linalg.norm(s)
            assert rel <= 1e-9

    def test_log_matches_eigen_reassembly_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            s = random_spd(rng)
            w, q = np.linalg.eigh(s)
            ref = (q * np.log(w)) @ q.T
            assert np.allclose(spectral_map(s, np.log), ref, atol=1e-9)

    def test_exp_result_spd(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            e = spectral_map(random_symmetric(rng), np.exp)
            assert np.all(np.linalg.eigvalsh(e) > 0.0)

    def test_sqrt_spd(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            s = random_spd(rng)
            r = spectral_map(s, np.sqrt)
            assert np.allclose(r @ r, s, atol=1e-10 * np.linalg.norm(s))


class TestBasicOps:
    def test_det_identity(self):
        assert tl.det(np.eye(2), 1.0) == 1.0

    def test_det_against_numpy(self):
        rng = np.random.default_rng(22)
        t = random_plane_strain(rng, (40,))
        assert np.allclose(tl.det(*plane_blocks(t)), np.linalg.det(t), atol=1e-12)

    def test_inv(self):
        rng = np.random.default_rng(23)
        t = random_plane_strain(rng, (20,)) + 2.0 * np.eye(3)
        t_inv = plane_strain(*tl.inv(*plane_blocks(t)))
        assert np.allclose(t_inv @ t, np.broadcast_to(np.eye(3), t.shape), atol=1e-10)

    def test_inv_singular_raises(self):
        for in_plane, out_of_plane in ((np.zeros((2, 2)), 1.0), (np.eye(2), 0.0)):
            with pytest.raises(ValueError, match="singular"):
                tl.inv(in_plane, out_of_plane)
