import numpy as np
import pytest

from rvesurrogate import datastore as ds
from rvesurrogate import neural as nn


def small_model(seed=0):
    return nn.RnnModel.build((2, 4), 4, (4, 3), seed=seed)


def finite_difference_grads(model, inputs, targets, h=1e-6):
    grads = []
    for p in model.parameters():
        flat = p.ravel()
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            loss_p = nn.mse_loss(model.forward(inputs)[0], targets)
            flat[i] = orig - h
            loss_m = nn.mse_loss(model.forward(inputs)[0], targets)
            flat[i] = orig
            g[i] = (loss_p - loss_m) / (2.0 * h)
        grads.append(g.reshape(p.shape))
    return grads


class TestLeakyRelu:
    def test_positive(self):
        assert nn.leaky_relu(2.0) == 2.0

    def test_negative(self):
        assert nn.leaky_relu(-1.0) == -0.01

    def test_zero(self):
        assert nn.leaky_relu(0.0) == 0.0

    def test_array(self):
        x = np.array([-3.0, 0.5])
        assert np.allclose(nn.leaky_relu(x), [-0.03, 0.5])


def input_preactivation(cell, x):
    return x @ cell.wx + cell.bx


def hidden_trace(model, x):
    """Hidden states after every step; the forward cache keeps h0 first."""
    _, cache = model.forward(x)
    return cache[3][:, 1:]


class TestGruStep:
    def test_zero_weights_closed_form(self):
        rng = np.random.default_rng(0)
        cell = nn.GruCell(2, 3, rng)
        for arr in (cell.wx, cell.wh, cell.bx, cell.bh):
            arr[...] = 0.0
        h, *_ = nn.gru_step(cell, input_preactivation(cell, np.zeros(2)),
                            np.full(3, -1.0))
        # u = r = 0.5, candidate = tanh(0) = 0 so h = 0.5 * (-1)
        assert np.allclose(h, -0.5)

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(1)
        cell = nn.GruCell(3, 5, rng)
        for _ in range(50):
            h_prev = rng.uniform(-1.0, 1.0, 5)
            x = rng.standard_normal(3) * 3.0
            h, *_ = nn.gru_step(cell, input_preactivation(cell, x), h_prev)
            bound = max(np.max(np.abs(h_prev)), 1.0)
            assert np.all(np.abs(h) <= bound + 1e-12)

    def test_hand_scripted_gate_oracle(self):
        rng = np.random.default_rng(2)
        cell = nn.GruCell(2, 3, rng)
        x = rng.standard_normal(2)
        h_prev = rng.standard_normal(3)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        wx_u, wx_r, wx_c = cell.wx[:, 0:3], cell.wx[:, 3:6], cell.wx[:, 6:9]
        wh_u, wh_r, wh_c = cell.wh[:, 0:3], cell.wh[:, 3:6], cell.wh[:, 6:9]
        bx_u, bx_r, bx_c = cell.bx[0:3], cell.bx[3:6], cell.bx[6:9]
        bh_u, bh_r, bh_c = cell.bh[0:3], cell.bh[3:6], cell.bh[6:9]
        u = sig(x @ wx_u + bx_u + h_prev @ wh_u + bh_u)
        r = sig(x @ wx_r + bx_r + h_prev @ wh_r + bh_r)
        ghc = h_prev @ wh_c + bh_c
        c = np.tanh(x @ wx_c + bx_c + r * ghc)
        expected = u * h_prev + (1.0 - u) * c

        got = nn.gru_step(cell, input_preactivation(cell, x), h_prev)
        for g, e in zip(got, (expected, u, r, c, ghc)):
            assert np.max(np.abs(g - e)) <= 1e-12

    def test_gate_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(3)
        cell = nn.GruCell(2, 4, rng)
        x = rng.standard_normal((100, 2)) * 5
        _, u, r, _, _ = nn.gru_step(cell, input_preactivation(cell, x),
                                    np.zeros((100, 4)))
        assert np.all(u > 0.0) and np.all(u < 1.0)
        assert np.all(r > 0.0) and np.all(r < 1.0)


class TestForwardSequence:
    def test_step_count_preserved(self):
        model = small_model()
        x = np.zeros((1, 5, 2))
        y, _ = model.forward(x)
        assert y.shape == (1, 5, 3)
        assert hidden_trace(model, x).shape == (1, 5, 4)

    def test_constant_zero_input_deterministic(self):
        model = small_model(seed=4)
        x = np.zeros((1, 30, 2))
        y1 = model.forward(x)[0][0]
        y2 = model.forward(x)[0][0]
        assert np.array_equal(y1, y2)
        # hidden recurrence approaches a fixed point on constant input
        assert np.max(np.abs(y1[-1] - y1[-2])) < np.max(np.abs(y1[1] - y1[0]))

    def test_hidden_state_stays_in_unit_box(self):
        model = small_model(seed=5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 200, 2))
        assert np.all(np.abs(hidden_trace(model, x)) <= 1.0)

    def test_batch_matches_single(self):
        model = small_model(seed=7)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 11, 2))
        batched, _ = model.forward(x)
        for i in range(6):
            single, _ = model.forward(x[i:i + 1])
            assert np.allclose(single[0], batched[i], atol=1e-14, rtol=0.0)


class TestMseLoss:
    def test_exact_match(self):
        a = np.ones((3, 4))
        assert nn.mse_loss(a, a) == 0.0

    def test_all_ones_error(self):
        a = np.zeros((2, 5))
        assert nn.mse_loss(a + 1.0, a) == 1.0

    def test_summation_oracle(self):
        rng = np.random.default_rng(9)
        p = rng.standard_normal((4, 6, 3))
        t = rng.standard_normal((4, 6, 3))
        manual = 0.0
        for x, y in zip(p.ravel(), t.ravel()):
            manual += (x - y) ** 2
        manual /= p.size
        assert abs(nn.mse_loss(p, t) - manual) <= 1e-14

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nn.mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


def bptt(model, inputs, targets):
    """Loss and fresh exact parameter gradients for one batch."""
    model.zero_grad()
    outputs, cache = model.forward(inputs)
    model.backward(cache, nn.mse_loss_grad(outputs, targets))
    return nn.mse_loss(outputs, targets), [g.copy() for g in model.gradients()]


class TestBptt:
    def test_zero_error_gives_zero_gradients(self):
        model = small_model(seed=10)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 2))
        y, _ = model.forward(x)
        loss, grads = bptt(model, x, y)
        assert loss == 0.0
        for g in grads:
            assert np.all(g == 0.0)

    def test_gradients_match_finite_differences(self):
        model = small_model(seed=12)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 3, 2))
        t = rng.standard_normal((2, 3, 3))
        _, grads = bptt(model, x, t)
        fd = finite_difference_grads(model, x, t)
        for g, f in zip(grads, fd):
            err = np.abs(g - f)
            ok = (err <= 1e-8) | (err <= 1e-5 * np.abs(f))
            assert np.all(ok)

    def test_batch_gradient_is_mean_of_sequences(self):
        model = small_model(seed=14)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 4, 2))
        t = rng.standard_normal((2, 4, 3))
        _, g_batch = bptt(model, x, t)
        _, g0 = bptt(model, x[:1], t[:1])
        _, g1 = bptt(model, x[1:], t[1:])
        for gb, a, b in zip(g_batch, g0, g1):
            assert np.allclose(gb, 0.5 * (a + b), atol=1e-12)


class TestTrainStep:
    def test_returns_pre_update_loss_and_moves_parameters(self):
        model = small_model(seed=23)
        rng = np.random.default_rng(24)
        x = rng.standard_normal((2, 4, 2))
        t = rng.standard_normal((2, 4, 3))
        before = model.state_bytes()
        expected = nn.mse_loss(model.forward(x)[0], t)
        opt = nn.Adam(list(model.parameters()), nn.TrainConfig())
        assert nn.train_step(model, opt, x, t, 1.0) == expected
        assert model.state_bytes() != before
        assert opt.t == 1

    def test_non_finite_loss_skips_the_update(self):
        model = small_model(seed=25)
        rng = np.random.default_rng(26)
        x = rng.standard_normal((2, 4, 2))
        t = np.full((2, 4, 3), np.nan)
        before = model.state_bytes()
        opt = nn.Adam(list(model.parameters()), nn.TrainConfig())
        assert np.isnan(nn.train_step(model, opt, x, t, 1.0))
        assert model.state_bytes() == before
        assert opt.t == 0


class TestOptimizer:
    def test_zero_gradient_keeps_parameters(self):
        p = np.array([1.0, -2.0])
        opt = nn.Adam([p], nn.TrainConfig(weight_decay=0.0))
        opt.step([np.zeros(2)])
        assert np.array_equal(p, [1.0, -2.0])

    def test_first_step_moves_by_lr(self):
        p = np.array([0.5])
        cfg = nn.TrainConfig(learning_rate=1e-3)
        opt = nn.Adam([p], cfg)
        opt.step([np.array([4.0])])
        # bias-corrected first step is -lr * sign(g) up to epsilon
        assert p[0] == pytest.approx(0.5 - 1e-3, abs=1e-6)

    def test_quadratic_bowl_descent(self):
        p = np.array([5.0])
        cfg = nn.TrainConfig(learning_rate=0.01)
        opt = nn.Adam([p], cfg)
        losses = []
        for _ in range(100):
            g = 2.0 * (p - 3.0)
            losses.append(float((p[0] - 3.0) ** 2))
            opt.step([g])
        assert np.all(np.diff(losses[5:]) < 0.0)
        assert losses[-1] < 0.5 * losses[0]

    def test_clip_gradient_norm(self):
        g = [np.full(4, 3.0), np.full(9, 4.0)]
        norm = nn.clip_gradient_norm(g, 1.0)
        assert norm == pytest.approx(np.sqrt(4 * 9 + 9 * 16))
        clipped = np.sqrt(sum(np.sum(x * x) for x in g))
        assert clipped == pytest.approx(1.0)

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            nn.TrainConfig(n_epoch=11)
        with pytest.raises(ValueError):
            nn.TrainConfig(n_batches=0)


class TestParameterCount:
    def test_gru_count_example(self):
        rng = np.random.default_rng(16)
        cell = nn.GruCell(70, 100, rng)
        assert sum(p.size for p in cell.parameters()) == 51_600
        assert 3 * 100 * (100 + 70 + 2) == 51_600

    def test_layer_pair_example(self):
        rng = np.random.default_rng(17)
        net = nn.FeedForwardNet((3, 70), [nn.ACT_LINEAR], rng)
        assert sum(p.size for p in net.parameters()) == (3 + 1) * 70

    def test_formula_matches_allocation_audit(self):
        for arch in (((3, 70), 100, (800, 1607)),
                     ((3, 70), 400, (100, 10)),
                     ((2, 4), 4, (4, 3))):
            model = nn.RnnModel.build(*arch, seed=0)
            assert nn.count_parameters(model) == model.n_parameters


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        model = nn.RnnModel.build((3, 8), 6, (5, 4), h0=-1.0, seed=18)
        f = tmp_path / "model.bin"
        nn.save_model(f, model)
        back = nn.load_model(f)
        assert back.state_bytes() == model.state_bytes()
        assert back.h0 == model.h0
        rng = np.random.default_rng(19)
        x = rng.standard_normal((2, 7, 3))
        y0, _ = model.forward(x)
        y1, _ = back.forward(x)
        assert np.array_equal(y0, y1)

    def test_bad_magic(self, tmp_path):
        f = tmp_path / "junk.bin"
        f.write_bytes(b"NOPE" * 10)
        with pytest.raises(ValueError, match="magic"):
            nn.load_model(f)


class TestDeterminism:
    def test_training_is_bit_reproducible(self):
        data = np.random.default_rng(22)
        groups = {length: (data.standard_normal((3, length, 2)),
                           data.standard_normal((3, length, 2)))
                  for length in (4, 6)}
        sizes = {length: x.shape[0] for length, (x, _) in groups.items()}

        def run():
            model = nn.RnnModel.build((2, 4), 4, (4, 2), seed=21)
            cfg = nn.TrainConfig(learning_rate=1e-3)
            opt = nn.Adam(list(model.parameters()), cfg)
            draws = ds.draw_minibatches(sizes, 2, 20, np.random.default_rng(7))
            for length, idx in draws:
                x, t = groups[length]
                nn.train_step(model, opt, x[idx], t[idx], cfg.clip_norm)
            return model.state_bytes()

        assert run() == run()
