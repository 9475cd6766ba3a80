"""From-scratch recurrent neural engine in numpy.

The recurrent model chains a feed-forward input network, a single
gated-recurrent-unit layer and a feed-forward output network.  One forward
pass caches everything needed for exact backpropagation through time; the
sequential loop only carries the hidden-state recurrence while all
time-independent projections run as single large matrix products.

Gate algebra (per step, row-vector convention, fused weight order
update | reset | candidate):

    u = sigmoid(x' Wx_u + bx_u + h Wh_u + bh_u)
    r = sigmoid(x' Wx_r + bx_r + h Wh_r + bh_r)
    c = tanh(x' Wx_c + bx_c + r * (h Wh_c + bh_c))
    h_new = u * h + (1 - u) * c

which carries 3*n_h*(n_h + n_in + 2) learnable parameters: three input-side
and three hidden-side matrices plus two bias vectors per gate path.  This
algebra lives in :func:`gru_step` alone, the loop body of
:meth:`RnnModel.forward`; the input-side terms ``x' Wx + bx`` are one matrix
product over all steps before the loop.  ``forward`` starts from the constant
``h0`` or from a given hidden state, so a sequence can be continued from the
final state of an earlier pass over its beginning.

:func:`train_step` is the one BPTT update (forward, MSE, backward, gradient
clipping, Adam step); its one caller is ``SurrogateBundle.train``, the
package's one training loop.

Everything runs in float64 so finite-difference gradient checks resolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
import struct
from typing import NamedTuple

import numpy as np

MODEL_MAGIC = b"RNNMDL1"
MODEL_VERSION = 1

LEAKY_SLOPE = 0.01
DEFAULT_H0 = -1.0

ACT_LEAKY = "leaky_relu"
ACT_LINEAR = "linear"


def leaky_relu(x):
    """max(0, x) + min(0, x) / 100, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0.0, x, LEAKY_SLOPE * x)


def _leaky_grad(x):
    return np.where(x >= 0.0, 1.0, LEAKY_SLOPE)


def _sigmoid(x):
    """Logistic function via tanh: one expression, no overflow for any x."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _make_rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


class FeedForwardNet:
    """Dense layers with per-layer activation ('leaky_relu' or 'linear')."""

    def __init__(self, sizes, activations, rng):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output size")
        if len(activations) != len(sizes) - 1:
            raise ValueError("one activation per layer pair required")
        self.sizes = sizes
        self.activations = tuple(activations)
        self.weights = []
        self.biases = []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(n_in)
            self.weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
            self.biases.append(rng.uniform(-bound, bound, size=n_out))
        self.grad_weights = [np.zeros_like(w) for w in self.weights]
        self.grad_biases = [np.zeros_like(b) for b in self.biases]

    @classmethod
    def input_path(cls, sizes, rng) -> "FeedForwardNet":
        """Input-side net: no activation on its first layer."""
        acts = [ACT_LINEAR] + [ACT_LEAKY] * (len(sizes) - 2)
        return cls(sizes, acts, rng)

    @classmethod
    def output_path(cls, sizes, rng) -> "FeedForwardNet":
        """Output-side net: no activation on its last layer."""
        acts = [ACT_LEAKY] * (len(sizes) - 2) + [ACT_LINEAR]
        return cls(sizes, acts, rng)

    def forward(self, x):
        """Returns (output, cache) for a (n_rows, n_in) block."""
        cache = []
        out = x
        for w, b, act in zip(self.weights, self.biases, self.activations):
            z = out @ w + b
            cache.append((out, z))
            out = leaky_relu(z) if act == ACT_LEAKY else z
        return out, cache

    def backward(self, cache, d_out):
        """Accumulates parameter gradients; returns the input gradient."""
        grad = d_out
        for i in reversed(range(len(self.weights))):
            x_in, z = cache[i]
            dz = grad * _leaky_grad(z) if self.activations[i] == ACT_LEAKY else grad
            self.grad_weights[i] += x_in.T @ dz
            self.grad_biases[i] += dz.sum(axis=0)
            grad = dz @ self.weights[i].T
        return grad

    def parameters(self):
        for w, b in zip(self.weights, self.biases):
            yield w
            yield b

    def gradients(self):
        for gw, gb in zip(self.grad_weights, self.grad_biases):
            yield gw
            yield gb


class GruCell:
    """Single GRU layer with fused gate matrices.

    ``wx`` (n_in, 3 n_h) and ``wh`` (n_h, 3 n_h) stack the update, reset and
    candidate paths; ``bx``/``bh`` are the matching input-side and
    hidden-side bias stacks.
    """

    def __init__(self, n_in, n_h, rng):
        self.n_in = int(n_in)
        self.n_h = int(n_h)
        bx_bound = 1.0 / np.sqrt(self.n_in)
        bh_bound = 1.0 / np.sqrt(self.n_h)
        self.wx = rng.uniform(-bx_bound, bx_bound, size=(self.n_in, 3 * self.n_h))
        self.bx = rng.uniform(-bx_bound, bx_bound, size=3 * self.n_h)
        self.wh = rng.uniform(-bh_bound, bh_bound, size=(self.n_h, 3 * self.n_h))
        self.bh = rng.uniform(-bh_bound, bh_bound, size=3 * self.n_h)
        self.grad_wx = np.zeros_like(self.wx)
        self.grad_bx = np.zeros_like(self.bx)
        self.grad_wh = np.zeros_like(self.wh)
        self.grad_bh = np.zeros_like(self.bh)

    def parameters(self):
        yield self.wx
        yield self.bx
        yield self.wh
        yield self.bh

    def gradients(self):
        yield self.grad_wx
        yield self.grad_bx
        yield self.grad_wh
        yield self.grad_bh


def gru_step(cell: GruCell, gx_t, h_prev):
    """One recurrence step from the step's input-side pre-activation.

    ``gx_t = x' Wx + bx`` is precomputed for every step at once.  Returns
    ``(h_new, u, r, c, ghc)``: the new hidden state (also the cell output),
    the update and reset gates, the candidate and the candidate's
    hidden-side pre-activation ``h Wh_c + bh_c``, which backward needs.
    """
    n = cell.n_h
    gh = h_prev @ cell.wh + cell.bh
    u = _sigmoid(gx_t[..., :n] + gh[..., :n])
    r = _sigmoid(gx_t[..., n:2 * n] + gh[..., n:2 * n])
    ghc = gh[..., 2 * n:]
    c = np.tanh(gx_t[..., 2 * n:] + r * ghc)
    return u * h_prev + (1.0 - u) * c, u, r, c, ghc


class ForwardCache(NamedTuple):
    """What :meth:`RnnModel.forward` keeps for :meth:`RnnModel.backward`.

    ``h_all`` (batch, steps + 1, n_h) holds the initial hidden state and the
    state after every step, so ``h_all[:, -1]`` is the ``h_init`` that
    resumes the recurrence after the last step.
    """

    shape: tuple
    in_cache: list
    xp: np.ndarray
    h_all: np.ndarray
    gate_u: np.ndarray
    gate_r: np.ndarray
    cand: np.ndarray
    gh_cand: np.ndarray
    out_cache: list


class RnnModel:
    """Input feed-forward net -> GRU -> output feed-forward net."""

    def __init__(self, nnw_in: FeedForwardNet, gru: GruCell,
                 nnw_out: FeedForwardNet, h0: float = DEFAULT_H0):
        if nnw_in.sizes[-1] != gru.n_in:
            raise ValueError("input net output size must match the GRU input")
        if nnw_out.sizes[0] != gru.n_h:
            raise ValueError("output net input size must match the hidden size")
        self.nnw_in = nnw_in
        self.gru = gru
        self.nnw_out = nnw_out
        self.h0 = float(h0)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, nnw_in_sizes, n_h, nnw_out_sizes, h0=DEFAULT_H0, seed=0):
        """Build from layer-size signatures.

        ``nnw_in_sizes`` includes the raw input width (e.g. ``(3, 70)``);
        ``nnw_out_sizes`` lists the widths after the GRU (e.g. ``(800, d)``),
        the hidden size being the implied input of the output net.
        """
        rng = _make_rng(seed)
        nnw_in = FeedForwardNet.input_path(tuple(nnw_in_sizes), rng)
        gru = GruCell(nnw_in.sizes[-1], n_h, rng)
        nnw_out = FeedForwardNet.output_path((int(n_h),) + tuple(nnw_out_sizes), rng)
        return cls(nnw_in, gru, nnw_out, h0=h0)

    # -- bookkeeping -------------------------------------------------------

    @property
    def n_inputs(self) -> int:
        return self.nnw_in.sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.nnw_out.sizes[-1]

    def parameters(self):
        yield from self.nnw_in.parameters()
        yield from self.gru.parameters()
        yield from self.nnw_out.parameters()

    def gradients(self):
        yield from self.nnw_in.gradients()
        yield from self.gru.gradients()
        yield from self.nnw_out.gradients()

    def zero_grad(self):
        for g in self.gradients():
            g[...] = 0.0

    def copy_parameters(self):
        return [p.copy() for p in self.parameters()]

    def load_parameters(self, values) -> None:
        for p, v in zip(self.parameters(), values, strict=True):
            p[...] = v

    # -- forward / backward -------------------------------------------------

    def forward(self, inputs, h_init=None):
        """Full-sequence forward pass.

        ``inputs`` has shape (batch, steps, n_x).  The recurrence starts from
        ``h_init`` (batch, n_h) when given, else from the constant ``h0``, so
        a sequence run in two parts, the second from the first's final state
        ``cache.h_all[:, -1]``, gives the outputs of one run over the whole to
        roundoff.
        Returns the output block (batch, steps, n_y) and the
        :class:`ForwardCache` consumed by :meth:`backward`.
        """
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError("inputs must have shape (batch, steps, features)")
        n_b, n_t, _ = x.shape
        n = self.gru.n_h
        if h_init is not None and np.shape(h_init) != (n_b, n):
            raise ValueError(
                f"h_init must have shape (batch, n_h) = {(n_b, n)}, "
                f"got {np.shape(h_init)}"
            )

        xp_flat, in_cache = self.nnw_in.forward(x.reshape(n_b * n_t, -1))
        xp = xp_flat.reshape(n_b, n_t, self.gru.n_in)
        gx = xp @ self.gru.wx + self.gru.bx

        h_all = np.empty((n_b, n_t + 1, n))
        h_all[:, 0] = self.h0 if h_init is None else h_init
        gate_u = np.empty((n_b, n_t, n))
        gate_r = np.empty((n_b, n_t, n))
        cand = np.empty((n_b, n_t, n))
        gh_cand = np.empty((n_b, n_t, n))
        for t in range(n_t):
            (h_all[:, t + 1], gate_u[:, t], gate_r[:, t], cand[:, t],
             gh_cand[:, t]) = gru_step(self.gru, gx[:, t], h_all[:, t])

        y_flat, out_cache = self.nnw_out.forward(h_all[:, 1:].reshape(n_b * n_t, n))
        outputs = y_flat.reshape(n_b, n_t, self.n_outputs)
        cache = ForwardCache(x.shape, in_cache, xp, h_all, gate_u, gate_r, cand,
                             gh_cand, out_cache)
        return outputs, cache

    def backward(self, cache: ForwardCache, d_outputs) -> None:
        """Exact gradients of the cached forward pass, accumulated in place."""
        (shape, in_cache, xp, h_all, gate_u, gate_r, cand, gh_cand,
         out_cache) = cache
        n_b, n_t, _ = shape
        n = self.gru.n_h

        d_h = self.nnw_out.backward(
            out_cache, np.asarray(d_outputs).reshape(n_b * n_t, -1)
        ).reshape(n_b, n_t, n)

        d_gx = np.empty((n_b, n_t, 3 * n))
        d_gh = np.empty((n_b, n_t, 3 * n))
        wh_t = self.gru.wh.T
        dh_next = np.zeros((n_b, n))
        for t in range(n_t - 1, -1, -1):
            dh = d_h[:, t] + dh_next
            u = gate_u[:, t]
            r = gate_r[:, t]
            c = cand[:, t]
            h_prev = h_all[:, t]
            du = dh * (h_prev - c)
            dc = dh * (1.0 - u)
            dac = dc * (1.0 - c * c)
            dr = dac * gh_cand[:, t]
            dau = du * u * (1.0 - u)
            dar = dr * r * (1.0 - r)
            d_gx[:, t, :n] = dau
            d_gx[:, t, n:2 * n] = dar
            d_gx[:, t, 2 * n:] = dac
            d_gh[:, t, :n] = dau
            d_gh[:, t, n:2 * n] = dar
            d_gh[:, t, 2 * n:] = dac * r
            dh_next = dh * u + d_gh[:, t] @ wh_t

        d_gx_flat = d_gx.reshape(n_b * n_t, 3 * n)
        d_gh_flat = d_gh.reshape(n_b * n_t, 3 * n)
        xp_flat = xp.reshape(n_b * n_t, self.gru.n_in)
        h_prev_flat = h_all[:, :-1].reshape(n_b * n_t, n)
        self.gru.grad_wx += xp_flat.T @ d_gx_flat
        self.gru.grad_bx += d_gx_flat.sum(axis=0)
        self.gru.grad_wh += h_prev_flat.T @ d_gh_flat
        self.gru.grad_bh += d_gh_flat.sum(axis=0)

        d_xp = d_gx_flat @ self.gru.wx.T
        self.nnw_in.backward(in_cache, d_xp)


def mse_loss(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def mse_loss_grad(pred, target):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    return (pred - target) * (2.0 / pred.size)


def clip_gradient_norm(grads, max_norm: float) -> float:
    """Scale gradients in place to a global norm cap; returns the norm."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if max_norm > 0.0 and total > max_norm:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


@dataclass(frozen=True)
class TrainConfig:
    """First-order optimizer settings and the mini-batch schedule."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    clip_norm: float = 1.0
    n_epoch: int = 2
    n_batches: int = 1000
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_epoch <= 10:
            raise ValueError("n_epoch must lie in [1, 10]")
        if self.n_batches < 1 or self.batch_size < 1:
            raise ValueError("n_batches and batch_size must be positive")


class Adam:
    """Adaptive-moment estimation with bias correction.

    Optional weight decay is decoupled from the moment update.  Parameter
    arrays are updated in place and the instance owns the moment state, so
    one optimizer must stay attached to one model.
    """

    def __init__(self, params, config: TrainConfig):
        self.params = list(params)
        self.cfg = config
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, grads) -> None:
        grads = list(grads)
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match parameters")
        self.t += 1
        b1, b2 = self.cfg.beta1, self.cfg.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        lr = self.cfg.learning_rate
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bias1) / (np.sqrt(v / bias2) + self.cfg.epsilon)
            if self.cfg.weight_decay > 0.0:
                p -= lr * self.cfg.weight_decay * p
            p -= lr * update


def train_step(model: RnnModel, optimizer: Adam, inputs, targets,
               clip_norm: float) -> float:
    """One BPTT update on a batch; returns its MSE loss.

    Backward, gradient clipping and the optimizer step run only when the
    loss is finite, so a diverged batch leaves the parameters untouched.
    """
    model.zero_grad()
    outputs, cache = model.forward(inputs)
    loss = mse_loss(outputs, targets)
    if np.isfinite(loss):
        model.backward(cache, mse_loss_grad(outputs, targets))
        grads = list(model.gradients())
        clip_gradient_norm(grads, clip_norm)
        optimizer.step(grads)
    return loss


def count_parameters(model: RnnModel) -> int:
    """Closed-form learnable-parameter count of the full architecture."""
    total = 0
    for net in (model.nnw_in, model.nnw_out):
        for n_i, n_o in zip(net.sizes[:-1], net.sizes[1:]):
            total += (n_i + 1) * n_o
    total += 3 * model.gru.n_h * (model.gru.n_h + model.gru.n_in + 2)
    return total


# ---------------------------------------------------------------------------
# serialization


def save_model(path, model: RnnModel) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION))
        fh.write(struct.pack("<d", model.h0))
        for sizes in (model.nnw_in.sizes, (model.gru.n_h,), model.nnw_out.sizes):
            fh.write(struct.pack("<I", len(sizes)))
            fh.write(struct.pack(f"<{len(sizes)}I", *sizes))
        for p in model.parameters():
            fh.write(np.ascontiguousarray(p).astype("<f8").tobytes())


def load_model(path) -> RnnModel:
    with open(path, "rb") as fh:
        magic = fh.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise ValueError(f"bad model magic {magic!r}")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != MODEL_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        (h0,) = struct.unpack("<d", fh.read(8))

        def read_sizes():
            (k,) = struct.unpack("<I", fh.read(4))
            return struct.unpack(f"<{k}I", fh.read(4 * k))

        in_sizes = read_sizes()
        (n_h,) = read_sizes()
        out_sizes = read_sizes()
        model = RnnModel.build(in_sizes, n_h, out_sizes[1:], h0=h0, seed=0)
        for p in model.parameters():
            raw = fh.read(8 * p.size)
            p[...] = np.frombuffer(raw, dtype="<f8").reshape(p.shape)
    return model
