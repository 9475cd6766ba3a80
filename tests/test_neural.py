import hashlib
import tracemalloc

import numpy as np
import pytest

from rvesurrogate import datastore as ds
from rvesurrogate import neural as nn

from conftest import traced_peak


def small_model(seed=0):
    return nn.RnnModel.build((2, 4), 4, (4, 3), seed=seed)


def gru_cell(n_in, n_h, seed):
    """A seeded GRU layer of ``n_in`` inputs, as ``RnnModel.build`` makes it."""
    return nn.RnnModel.build((n_in, n_in), n_h, (1,), seed=seed).gru


def layout(model, grads=None):
    """(parameter, gradient) array pairs in the order of ``model.params``;
    the gradient arrays are the views of ``grads`` (a zero vector or block
    of the shape of ``model.params`` when ``None``) that ``backward``
    writes."""
    def arrays(m):
        dense = [[a for pair in zip(net.weights, net.biases) for a in pair]
                 for net in (m.nnw_in, m.nnw_out)]
        gru = m.gru
        return dense[0] + [gru.wx, gru.bx, gru.wh, gru.bh] + dense[1]
    if grads is None:
        grads = np.zeros_like(model.params)
    return list(zip(arrays(model), arrays(model.over(grads))))


def group_block(n_groups, nnw_in, n_h, nnw_out, seed):
    """Seeded models over the rows of one ``(n_groups, n)`` block, and the
    model over the whole block."""
    params = np.zeros((n_groups, nn.parameter_count(nnw_in, n_h, nnw_out)))
    models = [nn.RnnModel.build(nnw_in, n_h, nnw_out, seed=[seed, g],
                                params=params[g])
              for g in range(n_groups)]
    stack = nn.RnnModel.build(nnw_in, n_h, nnw_out, seed=None, params=params)
    return models, stack


def finite_difference_grads(model, inputs, targets, h=1e-6):
    flat = model.params
    g = np.zeros(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        loss_p = nn.mse_loss(model.forward(inputs)[0], targets)[0]
        flat[i] = orig - h
        loss_m = nn.mse_loss(model.forward(inputs)[0], targets)[0]
        flat[i] = orig
        g[i] = (loss_p - loss_m) / (2.0 * h)
    return g


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
    """Hidden states after every step, as the forward cache keeps them."""
    _, cache = model.forward(x, workspace={})
    return cache.h_out


class TestGruStep:
    def test_zero_weights_closed_form(self):
        cell = gru_cell(2, 3, seed=0)
        for arr in (cell.wx, cell.wh, cell.bx, cell.bh):
            arr[...] = 0.0
        h, *_ = nn.gru_step(cell, input_preactivation(cell, np.zeros(2)),
                            np.full(3, -1.0))
        # u = r = 0.5, candidate = tanh(0) = 0 so h = 0.5 * (-1)
        assert np.allclose(h, -0.5)

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(1)
        cell = gru_cell(3, 5, seed=1)
        for _ in range(50):
            h_prev = rng.uniform(-1.0, 1.0, 5)
            x = rng.standard_normal(3) * 3.0
            h, *_ = nn.gru_step(cell, input_preactivation(cell, x), h_prev)
            bound = max(np.max(np.abs(h_prev)), 1.0)
            assert np.all(np.abs(h) <= bound + 1e-12)

    def test_hand_scripted_gate_oracle(self):
        rng = np.random.default_rng(2)
        cell = gru_cell(2, 3, seed=2)
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
        cell = gru_cell(2, 4, seed=3)
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

    @pytest.mark.parametrize("split", ["first", "last"])
    def test_resume_from_final_state_matches_one_pass(self, split):
        model = small_model(seed=9)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 12, 2))
        k = 1 if split == "first" else x.shape[1] - 1
        whole, whole_final = model.forward(x)
        head, head_final = model.forward(x[:, :k])
        tail, tail_final = model.forward(x[:, k:], h_init=head_final)
        resumed = np.concatenate([head, tail], axis=1)
        assert np.allclose(resumed, whole, atol=1e-12, rtol=0.0)
        assert np.allclose(tail_final, whole_final, atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("shape", [(1, 4), (2, 5), (4,), (2, 4, 1)])
    def test_misshaped_initial_state_rejected(self, shape):
        model = small_model()
        with pytest.raises(ValueError, match=r"h_init must have shape.*\(2, 4\)"):
            model.forward(np.zeros((2, 3, 2)), h_init=np.zeros(shape))


class TestPredictionForward:
    """Without a workspace ``forward`` predicts: the training pass's bytes,
    no cache."""

    @pytest.fixture(scope="class")
    def paper_width(self):
        # a kind III group of the benchmark: (3, 70) / 400 / (100, 10)
        model = nn.RnnModel.build((3, 70), 400, (100, 10), seed=34)
        x = np.random.default_rng(35).standard_normal((8, 32, 3))
        return model, x

    @pytest.mark.parametrize("n_b", [1, 8])
    @pytest.mark.parametrize("resume", [False, True])
    def test_equals_the_training_forward(self, paper_width, n_b, resume):
        model, x = paper_width
        x = x[:n_b]
        h_init = None
        if resume:
            h_init = np.random.default_rng(36).uniform(-1.0, 1.0, (n_b, 400))
        y, final = model.forward(x, h_init=h_init)
        y_train, cache = model.forward(x, h_init=h_init, workspace={})
        assert np.array_equal(y, y_train)
        assert np.array_equal(final, cache.h_out[:, -1])

    @pytest.mark.parametrize("width", ["odd", "paper"])
    @pytest.mark.parametrize("n_groups", [1, 3])
    @pytest.mark.parametrize("n_b", [1, 3])
    @pytest.mark.parametrize("resume", [False, True])
    def test_stacked_pass_equals_each_groups_training_forward(
            self, width, n_groups, n_b, resume):
        # odd widths everywhere, so that every elementwise loop runs a tail
        sizes = {"odd": ((3, 7, 9), 5, (9, 3)),
                 "paper": ((3, 70), 400, (100, 10))}[width]
        models, stack = group_block(n_groups, *sizes, seed=37)
        x = np.random.default_rng(38).standard_normal((n_b, 11, 3))
        h_init = None
        if resume:
            h_init = np.random.default_rng(39).uniform(
                -1.0, 1.0, (n_groups, n_b, sizes[1]))
        y, final = stack.forward(x, h_init=h_init)
        assert y.shape == (n_groups, n_b, 11, sizes[2][-1])
        assert final.shape == (n_groups, n_b, sizes[1])
        for g, model in enumerate(models):
            y_train, cache = model.forward(
                x, h_init=None if h_init is None else h_init[g], workspace={})
            assert y[g].tobytes() == y_train.tobytes()
            assert final[g].tobytes() == cache.h_out[:, -1].tobytes()

    def test_stacked_arrays_are_views_of_the_block(self):
        models, stack = group_block(3, (3, 5, 4), 6, (5, 2), seed=40)
        grads = np.zeros_like(stack.params)
        for (p, g), *rows in zip(layout(stack, grads),
                                 *(layout(m, grads[i])
                                   for i, m in enumerate(models))):
            assert np.shares_memory(p, stack.params)
            assert np.shares_memory(g, grads)
            for i, (p_row, g_row) in enumerate(rows):
                assert np.shares_memory(p[i], p_row)
                assert np.shares_memory(g[i], g_row)
                assert np.array_equal(p[i].reshape(p_row.shape), p_row)
        with pytest.raises(ValueError, match=r"\(groups, batch, n_h\)"):
            stack.forward(np.zeros((1, 2, 3)), h_init=np.zeros((1, 6)))

    def test_retains_under_0_1_mb(self, paper_width):
        model, x = paper_width
        model.forward(x)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y, final = model.forward(x)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 100_000
        # what is kept is the answer itself
        assert retained >= y.nbytes + final.nbytes


class TestMseLoss:
    def test_exact_match(self):
        a = np.ones((3, 4))
        assert nn.mse_loss(a, a)[0] == 0.0

    def test_all_ones_error(self):
        a = np.zeros((2, 5))
        assert nn.mse_loss(a + 1.0, a)[0] == 1.0

    def test_summation_oracle(self):
        rng = np.random.default_rng(9)
        p = rng.standard_normal((4, 6, 3))
        t = rng.standard_normal((4, 6, 3))
        manual = 0.0
        for x, y in zip(p.ravel(), t.ravel()):
            manual += (x - y) ** 2
        manual /= p.size
        loss, grad = nn.mse_loss(p, t)
        assert abs(loss - manual) <= 1e-14
        # the gradient of the mean with respect to each prediction
        want = 2.0 * (p - t) / p.size
        assert np.all(np.abs(grad - want) <= 1e-15 * np.abs(want))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nn.mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


def bptt(model, inputs, targets):
    """Loss and fresh exact parameter gradients for one batch."""
    outputs, cache = model.forward(inputs, workspace={})
    grads = np.empty_like(model.params)
    loss, d_outputs = nn.mse_loss(outputs, targets)
    model.backward(cache, d_outputs, grads)
    return loss, grads


class TestBptt:
    def test_zero_error_gives_zero_gradients(self):
        model = small_model(seed=10)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 2))
        y, _ = model.forward(x)
        loss, grads = bptt(model, x, y)
        assert loss == 0.0
        assert np.all(grads == 0.0)

    def test_gradients_match_finite_differences(self):
        model = small_model(seed=12)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 3, 2))
        t = rng.standard_normal((2, 3, 3))
        _, grads = bptt(model, x, t)
        fd = finite_difference_grads(model, x, t)
        err = np.abs(grads - fd)
        ok = (err <= 1e-8) | (err <= 1e-5 * np.abs(fd))
        assert np.all(ok)

    def test_backward_overwrites_the_gradients(self):
        model = small_model(seed=29)
        rng = np.random.default_rng(30)
        outputs, cache = model.forward(rng.standard_normal((2, 5, 2)),
                                       workspace={})
        d_out = nn.mse_loss(outputs, rng.standard_normal((2, 5, 3)))[1]
        grads = np.full_like(model.params, np.nan)  # must not survive
        model.backward(cache, d_out, grads)
        once = grads.copy()
        model.backward(cache, d_out, grads)
        assert np.all(np.isfinite(once))
        assert grads.tobytes() == once.tobytes()

    def test_batch_gradient_is_mean_of_sequences(self):
        model = small_model(seed=14)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 4, 2))
        t = rng.standard_normal((2, 4, 3))
        _, g_batch = bptt(model, x, t)
        _, g0 = bptt(model, x[:1], t[:1])
        _, g1 = bptt(model, x[1:], t[1:])
        assert np.allclose(g_batch, 0.5 * (g0 + g1), atol=1e-12)


class TestTrainStep:
    def test_returns_pre_update_loss_and_moves_parameters(self):
        model = small_model(seed=23)
        rng = np.random.default_rng(24)
        x = rng.standard_normal((2, 4, 2))
        t = rng.standard_normal((2, 4, 3))
        before = model.params.tobytes()
        expected, grads = bptt(model, x, t)
        opt = nn.Adam(model.params, nn.TrainConfig())
        workspace = {}
        loss, norm = nn.train_step(model, opt, x, t, 1e-3, workspace)
        assert loss == expected
        # the norm before clipping, which the tiny cap then scales down in
        # the workspace's gradient vector
        assert norm == np.sqrt(np.sum(grads * grads))
        assert norm > 1e-3
        assert np.linalg.norm(workspace["grads"]) == pytest.approx(1e-3)
        assert model.params.tobytes() != before
        assert opt.t == 1

    def test_non_finite_loss_skips_the_update(self):
        model = small_model(seed=25)
        rng = np.random.default_rng(26)
        x = rng.standard_normal((2, 4, 2))
        t = np.full((2, 4, 3), np.nan)
        before = model.params.tobytes()
        opt = nn.Adam(model.params, nn.TrainConfig())
        loss, norm = nn.train_step(model, opt, x, t, 1.0)
        assert np.isnan(loss) and np.isnan(norm)
        assert model.params.tobytes() == before
        assert opt.t == 0


class TestWorkspace:
    """One workspace serves batches of any shape, in any order, with the
    bytes of fresh arrays for each."""

    SHAPES = [(3, 6), (2, 4), (3, 7), (1, 2)]

    def test_forward_and_backward_match_fresh_buffers(self):
        model = small_model(seed=40)
        rng = np.random.default_rng(41)
        workspace = {}
        grads = np.empty_like(model.params)
        for n_b, n_t in self.SHAPES:
            x = rng.standard_normal((n_b, n_t, 2))
            t = rng.standard_normal((n_b, n_t, 3))
            fresh_y, fresh_cache = model.forward(x, workspace={})
            fresh_grads = np.empty_like(model.params)
            model.backward(fresh_cache, nn.mse_loss(fresh_y, t)[1],
                           fresh_grads)
            y, cache = model.forward(x, workspace=workspace)
            assert y.tobytes() == fresh_y.tobytes()
            assert cache.h_init.tobytes() == fresh_cache.h_init.tobytes()
            assert cache.h_out.tobytes() == fresh_cache.h_out.tobytes()
            model.backward(cache, nn.mse_loss(y, t)[1], grads)
            assert grads.tobytes() == fresh_grads.tobytes()

    def test_train_steps_match_fresh_buffers(self):
        rng = np.random.default_rng(42)
        batches = [(rng.standard_normal((n_b, n_t, 2)),
                    rng.standard_normal((n_b, n_t, 3))) for n_b, n_t in self.SHAPES]

        def run(workspace):
            model = small_model(seed=43)
            opt = nn.Adam(model.params, nn.TrainConfig())
            out = [nn.train_step(model, opt, x, t, 0.5, workspace)
                   for x, t in batches]
            return out, model.params.tobytes()

        assert run({}) == run(None)


class TestOptimizer:
    def test_zero_gradient_keeps_parameters(self):
        p = np.array([1.0, -2.0])
        opt = nn.Adam(p, nn.TrainConfig())
        opt.step(np.zeros(2))
        assert np.array_equal(p, [1.0, -2.0])

    def test_first_step_moves_by_lr(self):
        p = np.array([0.5])
        cfg = nn.TrainConfig(learning_rate=1e-3)
        opt = nn.Adam(p, cfg)
        opt.step(np.array([4.0]))
        # bias-corrected first step is -lr * sign(g) up to epsilon
        assert p[0] == pytest.approx(0.5 - 1e-3, abs=1e-6)

    def test_quadratic_bowl_descent(self):
        p = np.array([5.0])
        cfg = nn.TrainConfig(learning_rate=0.01)
        opt = nn.Adam(p, cfg)
        losses = []
        for _ in range(100):
            g = 2.0 * (p - 3.0)
            losses.append(float((p[0] - 3.0) ** 2))
            opt.step(g)
        assert np.all(np.diff(losses[5:]) < 0.0)
        assert losses[-1] < 0.5 * losses[0]

    def test_clip_gradient_norm(self):
        g = np.concatenate([np.full(4, 3.0), np.full(9, 4.0)])
        norm = nn.clip_gradient_norm(g, 1.0)
        assert norm == pytest.approx(np.sqrt(4 * 9 + 9 * 16))
        assert np.sqrt(np.sum(g * g)) == pytest.approx(1.0)

    def test_clip_norm_matches_the_per_array_sum(self):
        # the vector sum adds in another order than the per-array loop did
        model = small_model(seed=27)
        rng = np.random.default_rng(28)
        _, grads = bptt(model, rng.standard_normal((2, 5, 2)),
                        rng.standard_normal((2, 5, 3)))
        per_array = np.sqrt(sum(float(np.sum(g * g))
                                for _, g in layout(model, grads)))
        norm = nn.clip_gradient_norm(grads.copy(), 0.0)
        rtol = grads.size * np.finfo(np.float64).eps
        assert norm == pytest.approx(per_array, rel=rtol, abs=0.0)

    @pytest.mark.parametrize("size", [1, 7, 8, 127, 128, 129, 16_384,
                                      16_385, 607_790])
    def test_clip_norm_is_numpys_sum_to_the_bit(self, size):
        # magnitudes from e^-20 to e^5, so that the order of the additions
        # shows in the last bits; 607,790 is a paper-width group's vector
        rng = np.random.default_rng(size)
        for _ in range(5):
            g = np.exp(rng.uniform(-20.0, 5.0, size)) \
                * rng.choice([-1.0, 1.0], size)
            expected = np.sqrt(np.sum(g * g))
            assert nn.clip_gradient_norm(g.copy(), 0.0) == expected

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            nn.TrainConfig(n_epoch=11)
        with pytest.raises(ValueError):
            nn.TrainConfig(n_batches=0)
        with pytest.raises(ValueError, match="learning_rate"):
            nn.TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="0 disables clipping"):
            nn.TrainConfig(clip_norm=-5.0)


def adam_per_array(arrays, grad_steps, cfg):
    """Oracle: the optimizer as a loop over separate parameter arrays, one
    gradient list per step, each array updated in place."""
    m = [np.zeros_like(p) for p in arrays]
    v = [np.zeros_like(p) for p in arrays]
    b1, b2, lr = nn.ADAM_BETA1, nn.ADAM_BETA2, cfg.learning_rate
    for t, grads in enumerate(grad_steps, start=1):
        bias1 = 1.0 - b1**t
        bias2 = 1.0 - b2**t
        for p, g, m_i, v_i in zip(arrays, grads, m, v):
            m_i *= b1
            m_i += (1.0 - b1) * g
            v_i *= b2
            v_i += (1.0 - b2) * g * g
            update = (m_i / bias1) / (np.sqrt(v_i / bias2) + nn.ADAM_EPSILON)
            p -= lr * update


class TestParameterVector:
    def test_every_array_is_a_view_of_the_vectors(self):
        model = nn.RnnModel.build((3, 5, 4), 6, (5, 2), seed=3)
        grads = np.zeros_like(model.params)
        pairs = layout(model, grads)
        for p, g in pairs:
            assert np.shares_memory(p, model.params)
            assert np.shares_memory(g, grads)
            assert p.shape == g.shape
        # consecutive slices, in layout order, that cover both vectors
        assert np.concatenate([p.ravel() for p, _ in pairs]).tobytes() \
            == model.params.tobytes()
        grads[:] = np.arange(grads.size)
        assert np.array_equal(np.concatenate([g.ravel() for _, g in pairs]),
                              grads)

    def test_seeded_vector_is_pinned(self):
        # sha256 of the per-array parameter bytes, concatenated in draw order,
        # before the arrays became views of one vector
        model = nn.RnnModel.build((3, 5), 4, (3, 2), seed=[1, 2])
        assert hashlib.sha256(model.params.tobytes()).hexdigest() == (
            "2ee295968da0a0b494edb0530f0ea127713fec0cc67520d208f87ae97f0a3631")

    def test_adam_on_the_vector_equals_the_per_array_loop(self):
        # more than two of the optimizer's slices, the last one partial
        model = nn.RnnModel.build((3, 20), 100, (30, 7), seed=5)
        assert model.params.size > 2 * nn._ADAM_CHUNK
        assert model.params.size % nn._ADAM_CHUNK != 0
        arrays = [p.copy() for p, _ in layout(model)]
        offsets = np.cumsum([p.size for p in arrays])[:-1]
        cfg = nn.TrainConfig(learning_rate=1e-2)
        rng = np.random.default_rng(6)
        grad_steps = [rng.standard_normal(model.params.size) for _ in range(5)]
        opt = nn.Adam(model.params, cfg)
        for g in grad_steps:
            before = g.tobytes()
            opt.step(g)
            assert g.tobytes() == before
        adam_per_array(
            arrays,
            [[part.reshape(p.shape) for part, p in zip(np.split(g, offsets), arrays)]
             for g in grad_steps],
            cfg,
        )
        assert opt.t == 5
        assert np.concatenate([p.ravel() for p in arrays]).tobytes() \
            == model.params.tobytes()


class TestTrainingStepAllocations:
    """At paper width (kind III groups of the benchmark), a training step
    allocates no temporary the size of the parameter vector."""

    @pytest.fixture(scope="class")
    def paper_width(self):
        model = nn.RnnModel.build((3, 70), 400, (100, 10), seed=31)
        rng = np.random.default_rng(32)
        x = rng.standard_normal((8, 32, 3))
        outputs, cache = model.forward(x, workspace={})
        d_out = nn.mse_loss(outputs, rng.standard_normal((8, 32, 10)))[1]
        return model, cache, d_out, np.empty_like(model.params)

    def test_adam_step_allocates_under_1_mb(self, paper_width):
        model = paper_width[0]
        opt = nn.Adam(model.params.copy(), nn.TrainConfig())
        g = np.random.default_rng(33).standard_normal(model.params.size)
        opt.step(g)
        assert traced_peak(lambda: opt.step(g)) < 1_000_000

    def test_backward_allocates_under_the_parameter_bytes(self, paper_width):
        model, cache, d_out, grads = paper_width
        model.backward(cache, d_out, grads)
        assert traced_peak(lambda: model.backward(cache, d_out, grads)) \
            < model.params.nbytes

    def test_clipping_allocates_under_1_mb(self, paper_width):
        grads = np.random.default_rng(34).standard_normal(
            paper_width[0].params.size)
        assert traced_peak(lambda: nn.clip_gradient_norm(grads, 1.0)) \
            < 1_000_000


class TestParameterCount:
    def test_gru_count_example(self):
        cell = gru_cell(70, 100, seed=16)
        assert sum(a.size for a in (cell.wx, cell.bx, cell.wh, cell.bh)) == 51_600
        assert 3 * 100 * (100 + 70 + 2) == 51_600

    def test_layer_pair_example(self):
        net = nn.RnnModel.build((3, 70), 4, (1,), seed=17).nnw_in
        assert net.weights[0].size + net.biases[0].size == (3 + 1) * 70

    def test_formula_matches_allocation_audit(self):
        for nnw_in, n_h, nnw_out in (((3, 70), 100, (800, 1607)),
                                     ((3, 70), 400, (100, 10)),
                                     ((2, 4), 4, (4, 3))):
            model = nn.RnnModel.build(nnw_in, n_h, nnw_out, seed=0)
            dense = sum((a + 1) * b for sizes in (nnw_in, (n_h,) + nnw_out)
                        for a, b in zip(sizes[:-1], sizes[1:]))
            gru = 3 * n_h * (n_h + nnw_in[-1] + 2)
            assert model.params.size == dense + gru
            assert nn.parameter_count(nnw_in, n_h, nnw_out) == dense + gru
            assert sum(p.size for p, _ in layout(model)) == model.params.size


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        model = nn.RnnModel.build((3, 8), 6, (5, 4), seed=18)
        f = tmp_path / "model.bin"
        nn.save_model(f, model)
        # the file ends in the parameter vector, in layout order
        assert f.read_bytes().endswith(model.params.tobytes())
        back = nn.RnnModel.build((3, 8), 6, (5, 4), seed=99)
        assert back.params.tobytes() != model.params.tobytes()
        nn.load_model(f, back)
        assert back.params.tobytes() == model.params.tobytes()
        assert all(np.shares_memory(p, back.params) for p, _ in layout(back))
        rng = np.random.default_rng(19)
        x = rng.standard_normal((2, 7, 3))
        y0, _ = model.forward(x)
        y1, _ = back.forward(x)
        assert np.array_equal(y0, y1)

    @pytest.mark.parametrize("other", [
        dict(nnw_in_sizes=(3, 8), n_h=7, nnw_out_sizes=(5, 4)),
        dict(nnw_in_sizes=(3, 8), n_h=6, nnw_out_sizes=(5, 3)),
        dict(nnw_in_sizes=(3, 9, 8), n_h=6, nnw_out_sizes=(5, 4)),
    ])
    def test_mismatched_model_rejected(self, tmp_path, other):
        f = tmp_path / "model.bin"
        nn.save_model(f, nn.RnnModel.build((3, 8), 6, (5, 4), seed=18))
        target = nn.RnnModel.build(**other, seed=0)
        before = target.params.tobytes()
        with pytest.raises(ValueError, match="not a version-1 model file"):
            nn.load_model(f, target)
        assert target.params.tobytes() == before

    def test_model_file_of_another_start_state_rejected(self, tmp_path):
        # a file laid out as save_model lays it out, but with h0 = 0
        f = tmp_path / "model.bin"
        model = nn.RnnModel.build((3, 8), 6, (5, 4), seed=18)
        sizes = (model.nnw_in.sizes, (model.gru.n_h,), model.nnw_out.sizes)
        ds.write_binary(f, nn.MODEL_MAGIC, nn.MODEL_VERSION, ("<d", 0.0),
                        *[(f"<I{len(s)}I", len(s), *s) for s in sizes],
                        model.params)
        target = nn.RnnModel.build((3, 8), 6, (5, 4), seed=0)
        before = target.params.tobytes()
        with pytest.raises(ValueError, match="not a version-1 model file "
                                             r"with h0 = -1\.0 .* it holds "
                                             r"h0 = 0\.0"):
            nn.load_model(f, target)
        assert target.params.tobytes() == before
        # the same file with h0 = -1 is what save_model writes
        nn.save_model(tmp_path / "saved.bin", model)
        raw = f.read_bytes()
        assert (raw[:11] + np.float64(-1.0).tobytes() + raw[19:]
                == (tmp_path / "saved.bin").read_bytes())

    @pytest.mark.parametrize("change", [lambda raw: raw[:-8],
                                        lambda raw: raw + bytes(8)])
    def test_parameter_count_mismatch_rejected(self, tmp_path, change):
        f = tmp_path / "model.bin"
        model = small_model()
        nn.save_model(f, model)
        raw = f.read_bytes()
        changed = change(raw)
        f.write_bytes(changed)
        fault = ("the file ends 8 bytes short of its next block"
                 if len(changed) < len(raw)
                 else "8 bytes remain after the last block")
        with pytest.raises(ValueError, match=r"model\.bin: " + fault):
            nn.load_model(f, model)

    def test_bad_magic(self, tmp_path):
        f = tmp_path / "junk.bin"
        f.write_bytes(b"NOPE" * 10)
        with pytest.raises(ValueError,
                           match=r"junk\.bin: bad magic b'NOPENOP', "
                                 r"expected b'RNNMDL1'"):
            nn.load_model(f, small_model())


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
            opt = nn.Adam(model.params, cfg)
            draws = ds.draw_minibatches(sizes, 2, 20, np.random.default_rng(7))
            for length, idx in draws:
                x, t = groups[length]
                nn.train_step(model, opt, x[idx], t[idx], cfg.clip_norm)
            return model.params.tobytes()

        assert run() == run()
