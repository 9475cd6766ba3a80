"""From-scratch recurrent neural engine in numpy.

The recurrent model chains a feed-forward input network, a single
gated-recurrent-unit layer and a feed-forward output network.  A training
forward pass caches everything needed for exact backpropagation through
time; a prediction forward pass caches nothing.  The sequential loop only
carries the hidden-state recurrence while all time-independent projections
run as single large matrix products.

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
product over all steps before the loop.  ``forward`` starts every hidden
unit from the constant ``H0`` or from a given hidden state, so a sequence can
be continued from the final state of an earlier pass over its beginning.

:func:`train_step` is the one BPTT update (forward, MSE, backward, gradient
clipping, Adam step); its one caller is ``SurrogateBundle.train``, the
package's one training loop.

Storage: :meth:`RnnModel.build` allocates one parameter vector ``params``;
every weight and bias array is a reshaped view of a consecutive slice, in
the seeded draw order: input net ``w, b`` per layer, GRU ``wx, bx, wh,
bh``, output net ``w, b`` per layer.  Adam, gradient clipping and the
model file see only this vector, which the file holds after ``H0`` and the
layer sizes, in ``datastore``'s one binary layout.  Its dtype, float64 so
finite-difference gradient checks resolve, is the model's one storage
decision.  A model holds no gradient: ``backward`` writes one over a
vector that its caller passes, laid out like ``params``, through the
arrays of the model :meth:`RnnModel.over` that vector; ``Adam.step``
updates ``params`` and its moment vectors in place, slice by cache-sized
slice.  Given ``params=``, ``build`` lays the model over that storage
instead: a surrogate bundle keeps one ``(Q, n)`` parameter block and each
group's model is built over its row, so that training still sees one
contiguous vector per group.  Built over a ``(G, n)`` block of G groups'
rows, the model's every weight is a ``(G, n_in, n_out)`` and every bias a
``(G, 1, n_out)`` strided view of the block, never a copy.

Forward: :meth:`RnnModel.forward` has one body, so training and prediction
give the same bytes.  It takes the recurrence's arrays from ``_take``: from
the caller's workspace, a dict of float64 buffers, when training, and from a
throwaway dict when predicting.  They are the input-side gate
pre-activations ``gx``, the start state ``h_init``, the block ``h_out`` of
the states after each step, which the output net reads, and, when training
only, the four gate/candidate caches.  A prediction pass at paper width,
batch 8, 32 steps, leaves allocated only its outputs and final state,
0.05 MB, where a training pass keeps a 7.0 MB cache alive.  ``backward``
takes ``d_h`` and ``d_g`` from its cache's workspace (``d_g`` in ``gx``'s
buffer and the previous states in ``d_h``'s, once their first user is done),
and ``train_step`` takes the gradient vector that ``backward`` fills.
``backward`` writes every gradient entry, so an uninitialized buffer is
safe.  A buffer grows to the largest request and never shrinks.  The
training loop passes one workspace to every step, so once the longest batch
has run a step allocates only the dense nets' activations, the loss
gradient, the per-step rows of the recurrence and clipping's one-chunk
scratch (under 1 MB at paper width, batch 8, 32 steps), and no heap pages
are handed back to the system between steps.  Clipping sums the squares
chunk by chunk in numpy's own pairwise order, so a training step keeps
three parameter-sized vectors alive besides the parameters: Adam's two
moments and the gradient.  A later forward through a workspace
overwrites an earlier forward's cache.

A model over a block of G groups predicts them all in one pass over a
leading group axis: every product is one stacked ``np.matmul`` whose
slices are the one-group products of the same shapes, so each group's
outputs and final state are those of its own pass to the bit.  One stacked
call replaces G calls' Python and numpy dispatch, which on one row is
comparable to a group's products at paper width; it holds G times one
group's arrays, so callers bound G by the rows of the pass
(``surrogate._STACK_ROWS``).  A prediction pass writes only arrays of its
own, so two threads may run the models over two disjoint sets of groups
at once, as ``surrogate``'s warm queries do.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import NamedTuple

import numpy as np

from . import datastore as ds
from .pathgen import make_rng

MODEL_MAGIC = b"RNNMDL1"
MODEL_VERSION = 1

LEAKY_SLOPE = 0.01
# the hidden state every sequence starts from, in every unit
H0 = -1.0

# Adam's moment decay rates and the guard of its denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# elements per slice of an Adam step: its six 128 KB float64 slices
# (parameters, two moments, gradient, two scratch) stay in a core's L2 cache
# across the step's dozen elementwise passes
_ADAM_CHUNK = 16384

ACT_LEAKY = "leaky_relu"
ACT_LINEAR = "linear"


def leaky_relu(x):
    """max(0, x) + min(0, x) / 100, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0.0, x, LEAKY_SLOPE * x)


def _sigmoid(x):
    """Logistic function via tanh: one expression, no overflow for any x."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class FeedForwardNet:
    """Dense layers with per-layer activation ('leaky_relu' or 'linear').

    ``draw(bound, shape)`` returns a U(-bound, bound) parameter array; each
    layer draws its weight, then its bias.
    """

    def __init__(self, sizes, activations, draw):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output size")
        if len(activations) != len(sizes) - 1:
            raise ValueError("one activation per layer pair required")
        self.sizes = sizes
        self.activations = tuple(activations)
        self.weights, self.biases = [], []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(n_in)
            self.weights.append(draw(bound, (n_in, n_out)))
            self.biases.append(draw(bound, (n_out,)))

    @classmethod
    def input_path(cls, sizes, draw) -> "FeedForwardNet":
        """Input-side net: no activation on its first layer."""
        acts = [ACT_LINEAR] + [ACT_LEAKY] * (len(sizes) - 2)
        return cls(sizes, acts, draw)

    @classmethod
    def output_path(cls, sizes, draw) -> "FeedForwardNet":
        """Output-side net: no activation on its last layer."""
        acts = [ACT_LEAKY] * (len(sizes) - 2) + [ACT_LINEAR]
        return cls(sizes, acts, draw)

    def forward(self, x, cache=None):
        """Output for a (n_rows, n_in) block.

        Given a ``cache`` list, appends to it each layer's input and, for a
        leaky layer, where its pre-activation is not negative, all that
        backward reads.
        """
        out = x
        for w, b, act in zip(self.weights, self.biases, self.activations):
            z = out @ w
            z += b
            leaky = act == ACT_LEAKY
            if cache is not None:
                cache.append((out, z >= 0.0 if leaky else None))
            out = leaky_relu(z) if leaky else z
        return out

    def backward(self, cache, d_out, grads, out=None) -> None:
        """Writes the parameter gradients into the arrays of ``grads``, a
        net of these sizes, and the input gradient into ``out`` when given;
        without ``out`` it is not computed.  ``d_out`` is only read."""
        grad = d_out
        for i in reversed(range(len(self.weights))):
            x_in, positive = cache[i]
            dz = grad
            if positive is not None:
                # the slope scales the negative side in place, of a copy
                # only when the gradient is the caller's
                if dz is d_out:
                    dz = dz.copy()
                np.multiply(dz, LEAKY_SLOPE, out=dz, where=~positive)
            np.matmul(x_in.T, dz, out=grads.weights[i])
            np.sum(dz, axis=0, out=grads.biases[i])
            if i > 0:
                grad = dz @ self.weights[i].T
            elif out is not None:
                np.matmul(dz, self.weights[0].T, out=out)


class GruCell:
    """Single GRU layer with fused gate matrices.

    ``wx`` (n_in, 3 n_h) and ``wh`` (n_h, 3 n_h) stack the update, reset and
    candidate paths; ``bx``/``bh`` are the matching input-side and
    hidden-side bias stacks.  ``draw`` is as for :class:`FeedForwardNet`.
    """

    def __init__(self, n_in, n_h, draw):
        self.n_in = int(n_in)
        self.n_h = int(n_h)
        bx_bound = 1.0 / np.sqrt(self.n_in)
        bh_bound = 1.0 / np.sqrt(self.n_h)
        self.wx = draw(bx_bound, (self.n_in, 3 * self.n_h))
        self.bx = draw(bx_bound, (3 * self.n_h,))
        self.wh = draw(bh_bound, (self.n_h, 3 * self.n_h))
        self.bh = draw(bh_bound, (3 * self.n_h,))


def gru_step(cell: GruCell, gx_t, h_prev):
    """One recurrence step from the step's input-side pre-activation.

    ``gx_t = x' Wx + bx`` is precomputed for every step at once.  Returns
    ``(h_new, u, r, c, ghc)``: the new hidden state (also the cell output),
    the update and reset gates, the candidate and the candidate's
    hidden-side pre-activation ``h Wh_c + bh_c``, which backward needs.
    The two gates are one sigmoid over the fused ``update | reset`` slice;
    a training forward stores all five, a prediction forward keeps only
    ``h_new``.
    """
    n = cell.n_h
    gh = h_prev @ cell.wh + cell.bh
    ur = _sigmoid(gx_t[..., :2 * n] + gh[..., :2 * n])
    u, r = ur[..., :n], ur[..., n:]
    ghc = gh[..., 2 * n:]
    c = np.tanh(gx_t[..., 2 * n:] + r * ghc)
    return u * h_prev + (1.0 - u) * c, u, r, c, ghc


def _take(workspace: dict, name: str, shape: tuple) -> np.ndarray:
    """A C-ordered float64 ``shape`` view of the leading elements of the
    buffer ``workspace[name]``, which is replaced by a ``shape`` array
    first when it is missing or too small."""
    buffer = workspace.get(name)
    if buffer is not None and buffer.shape == shape:
        return buffer
    size = math.prod(shape)
    if buffer is None or buffer.size < size:
        buffer = workspace[name] = np.empty(shape)
        return buffer
    return buffer.reshape(-1)[:size].reshape(shape)


def _gru_backward(cell: GruCell, cache: ForwardCache, d_h, d_g) -> None:
    """Backpropagation through :func:`gru_step` from the last step to the
    first.

    ``d_h`` (batch, steps, n_h) is the loss gradient of the state after each
    step from outside the recurrence; the input-side pre-activation
    gradient ``d_gx`` of every step is written into ``d_g``.  The sweep's
    own arrays are per-step rows, released when it returns.
    """
    n_b, n_t, n = d_h.shape
    d_gh_t = np.empty((n_b, 3 * n))
    wh_t = cell.wh.T
    dh_next = np.zeros((n_b, n))
    for t in range(n_t - 1, -1, -1):
        dh = d_h[:, t] + dh_next
        u = cache.gate_u[:, t]
        r = cache.gate_r[:, t]
        c = cache.cand[:, t]
        h_prev = cache.h_out[:, t - 1] if t else cache.h_init
        du = dh * (h_prev - c)
        dc = dh * (1.0 - u)
        dac = dc * (1.0 - c * c)
        dr = dac * cache.gh_cand[:, t]
        dau = du * u * (1.0 - u)
        dar = dr * r * (1.0 - r)
        d_g[:, t, :n] = d_gh_t[:, :n] = dau
        d_g[:, t, n:2 * n] = d_gh_t[:, n:2 * n] = dar
        d_g[:, t, 2 * n:] = dac
        np.multiply(dac, r, out=d_gh_t[:, 2 * n:])
        dh_next = dh * u + d_gh_t @ wh_t


class ForwardCache(NamedTuple):
    """What :meth:`RnnModel.forward` keeps for :meth:`RnnModel.backward`.

    ``h_init`` (batch, n_h) is the state the recurrence started from and
    ``h_out`` (batch, steps, n_h) the state after every step, so
    ``h_out[:, -1]`` is the ``h_init`` that resumes the recurrence after
    the last step.  ``workspace`` is the one the forward pass ran in;
    ``backward`` takes its buffers from it.
    """

    shape: tuple
    in_cache: list
    xp: np.ndarray
    h_init: np.ndarray
    h_out: np.ndarray
    gate_u: np.ndarray
    gate_r: np.ndarray
    cand: np.ndarray
    gh_cand: np.ndarray
    out_cache: list
    workspace: dict


def parameter_count(nnw_in_sizes, n_h, nnw_out_sizes) -> int:
    """Length of the parameter vector of :meth:`RnnModel.build` for these
    layer-size signatures."""
    in_sizes = tuple(int(s) for s in nnw_in_sizes)
    out_sizes = (int(n_h),) + tuple(int(s) for s in nnw_out_sizes)
    size = sum((a + 1) * b for sizes in (in_sizes, out_sizes)
               for a, b in zip(sizes[:-1], sizes[1:]))
    return size + 3 * out_sizes[0] * (out_sizes[0] + in_sizes[-1] + 2)


class RnnModel:
    """Input feed-forward net -> GRU -> output feed-forward net."""

    def __init__(self, nnw_in: FeedForwardNet, gru: GruCell,
                 nnw_out: FeedForwardNet, params: np.ndarray):
        self.nnw_in = nnw_in
        self.gru = gru
        self.nnw_out = nnw_out
        self.params = params

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, nnw_in_sizes, n_h, nnw_out_sizes, seed=0, params=None):
        """Build from layer-size signatures.

        ``nnw_in_sizes`` includes the raw input width (e.g. ``(3, 70)``);
        ``nnw_out_sizes`` lists the widths after the GRU (e.g. ``(800, d)``),
        the hidden size being the implied input of the output net.
        ``seed=None`` draws nothing and leaves the parameters as they are
        (zero in fresh vectors), for a model whose parameters are read from a
        file next.  ``params`` is the storage to build on instead of a fresh
        vector: an array whose last axis has :func:`parameter_count`
        entries.  A leading axis is a group axis: the model over a ``(G, n)``
        block of G groups' vectors predicts the G groups in one pass (see
        the module notes).
        """
        in_sizes = tuple(int(s) for s in nnw_in_sizes)
        n_h = int(n_h)
        out_sizes = (n_h,) + tuple(int(s) for s in nnw_out_sizes)
        if params is None:
            params = np.zeros(parameter_count(in_sizes, n_h, out_sizes[1:]))
        groups = params.shape[:-1]
        rng = None if seed is None else make_rng(seed)
        end = 0

        def draw(bound, shape):
            nonlocal end
            start, end = end, end + math.prod(shape)
            if groups:
                # one bias row per group, to broadcast over the rows of a pass
                shape = groups + (1,) * (2 - len(shape)) + shape
            p = params[..., start:end].reshape(shape)
            if rng is not None:
                p[...] = rng.uniform(-bound, bound, size=shape)
            return p

        nnw_in = FeedForwardNet.input_path(in_sizes, draw)
        gru = GruCell(in_sizes[-1], n_h, draw)
        nnw_out = FeedForwardNet.output_path(out_sizes, draw)
        return cls(nnw_in, gru, nnw_out, params)

    def over(self, vector: np.ndarray) -> "RnnModel":
        """This model's layout over ``vector``, a parameter vector or block."""
        return RnnModel.build(self.nnw_in.sizes, self.gru.n_h,
                              self.nnw_out.sizes[1:], seed=None, params=vector)

    # -- bookkeeping -------------------------------------------------------

    @property
    def n_inputs(self) -> int:
        return self.nnw_in.sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.nnw_out.sizes[-1]

    # -- forward / backward -------------------------------------------------

    def forward(self, inputs, h_init=None, workspace=None):
        """Full-sequence forward pass, for training with a ``workspace`` and
        for prediction without one.

        ``inputs`` has shape (batch, steps, n_x).  The recurrence starts from
        ``h_init`` (batch, n_h) when given, else from the constant ``H0``, so
        a sequence run in two parts, the second from the first's final
        state, gives the outputs of one run over the whole to roundoff.
        Returns the output block (batch, steps, n_y) and, with a
        ``workspace`` dict, the :class:`ForwardCache` consumed by
        :meth:`backward`, its arrays views of the workspace, whose
        ``h_out[:, -1]`` is the final hidden state; without one, the final
        hidden state (batch, n_h) itself.  Both modes run one body and give
        the same bytes (see the module notes).  A model over a block of G
        groups only predicts: every group reads the same ``inputs``,
        ``h_init`` and the two results gain a leading group axis,
        (G, batch, ...).
        """
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError("inputs must have shape (batch, steps, features)")
        n_b, n_t, _ = x.shape
        n = self.gru.n_h
        groups = self.params.shape[:-1]
        if h_init is not None and np.shape(h_init) != groups + (n_b, n):
            raise ValueError(
                f"h_init must have shape ({'groups, ' if groups else ''}"
                f"batch, n_h) = {groups + (n_b, n)}, got {np.shape(h_init)}"
            )
        training = workspace is not None
        arrays = workspace if training else {}
        in_cache, out_cache = ([], []) if training else (None, None)
        xp = self.nnw_in.forward(x.reshape(n_b * n_t, -1), in_cache)
        xp = xp.reshape(groups + (n_b, n_t, self.gru.n_in))
        # one product per weight for all groups and steps
        gx = _take(arrays, "gx", groups + (n_b, n_t, 3 * n))
        np.matmul(xp, self.gru.wx[..., None, :, :], out=gx)
        gx += self.gru.bx[..., None, :]

        h = start = _take(arrays, "h_init", groups + (n_b, n))
        start[...] = H0 if h_init is None else h_init
        h_out = _take(arrays, "h_out", groups + (n_b, n_t, n))
        if training:
            gate_u, gate_r, cand, gh_cand = _take(arrays, "gates",
                                                  (4, n_b, n_t, n))
        for t in range(n_t):
            h, u, r, c, ghc = gru_step(self.gru, gx[..., t, :], h)
            h_out[..., t, :] = h
            if training:
                (gate_u[:, t], gate_r[:, t], cand[:, t],
                 gh_cand[:, t]) = u, r, c, ghc

        y = self.nnw_out.forward(h_out.reshape(groups + (n_b * n_t, n)),
                                 out_cache)
        outputs = y.reshape(groups + (n_b, n_t, self.n_outputs))
        if not training:
            return outputs, h
        return outputs, ForwardCache(x.shape, in_cache, xp, start, h_out,
                                     gate_u, gate_r, cand, gh_cand, out_cache,
                                     workspace)

    def backward(self, cache: ForwardCache, d_outputs, grads) -> None:
        """Exact gradients of the cached forward pass, written over every
        entry of ``grads``, a vector laid out like ``params``."""
        n_b, n_t, _ = cache.shape
        n = self.gru.n_h
        rows = n_b * n_t
        workspace = cache.workspace
        g = self.over(grads)

        d_h = _take(workspace, "d_h", (n_b, n_t, n))
        self.nnw_out.backward(cache.out_cache,
                              np.asarray(d_outputs).reshape(rows, -1),
                              g.nnw_out, out=d_h.reshape(rows, n))

        # d_g holds the input-side pre-activation gradient d_gx; the
        # hidden-side one d_gh differs only in its candidate third, which is
        # d_gx's times r, so that third is scaled in place once d_gx is used.
        # d_g overwrites gx, whose one reader was the forward loop
        d_g = _take(workspace, "gx", (n_b, n_t, 3 * n))
        _gru_backward(self.gru, cache, d_h, d_g)
        d_g_flat = d_g.reshape(rows, 3 * n)
        xp_flat = cache.xp.reshape(rows, self.gru.n_in)
        np.matmul(xp_flat.T, d_g_flat, out=g.gru.wx)
        np.sum(d_g_flat, axis=0, out=g.gru.bx)
        d_xp = d_g_flat @ self.gru.wx.T
        d_g[..., 2 * n:] *= cache.gate_r
        # d_h's buffer is free again: the sweep was its last reader
        h_prev = _take(workspace, "d_h", (n_b, n_t, n))
        h_prev[:, 0] = cache.h_init
        h_prev[:, 1:] = cache.h_out[:, :-1]
        np.matmul(h_prev.reshape(rows, n).T, d_g_flat, out=g.gru.wh)
        np.sum(d_g_flat, axis=0, out=g.gru.bh)
        self.nnw_in.backward(cache.in_cache, d_xp, g.nnw_in)


def mse_loss(pred, target) -> tuple[float, np.ndarray]:
    """Mean squared error of ``pred`` against ``target``, and its gradient
    with respect to ``pred``."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff)), diff * (2.0 / pred.size)


def _sum_of_squares(g: np.ndarray, scratch: np.ndarray) -> float:
    """``np.sum(g * g)`` to the bit, through ``scratch``, a vector shorter
    than ``g`` may be: ``g`` is halved where numpy's pairwise summation
    halves it, at a multiple of 8, until a half's squares fit, and the
    halves' sums are added as numpy adds them."""
    n = g.size
    if n <= scratch.size:
        return float(np.sum(np.multiply(g, g, out=scratch[:n])))
    half = n // 2
    half -= half % 8
    return (_sum_of_squares(g[:half], scratch)
            + _sum_of_squares(g[half:], scratch))


def clip_gradient_norm(grads: np.ndarray, max_norm: float) -> float:
    """Scale a gradient vector in place to a norm cap; returns the norm
    before scaling, ``np.sqrt(np.sum(grads * grads))`` to the bit.  The
    squares pass through one ``_ADAM_CHUNK`` scratch, so a vector of any
    size allocates 128 KB at most."""
    scratch = np.empty(min(_ADAM_CHUNK, grads.size))
    total = np.sqrt(_sum_of_squares(grads, scratch))
    if max_norm > 0.0 and total > max_norm:
        grads *= max_norm / total
    return total


@dataclass(frozen=True)
class TrainConfig:
    """First-order optimizer settings and the mini-batch schedule."""

    learning_rate: float = 1e-3
    clip_norm: float = 1.0
    n_epoch: int = 2
    n_batches: int = 1000
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.clip_norm < 0.0:
            raise ValueError("clip_norm must be >= 0 (0 disables clipping)")
        if not 1 <= self.n_epoch <= 10:
            raise ValueError("n_epoch must lie in [1, 10]")
        if self.n_batches < 1 or self.batch_size < 1:
            raise ValueError("n_batches and batch_size must be positive")


class Adam:
    """Adaptive-moment estimation with bias correction, without weight decay.

    The parameter vector is updated in place and the instance owns the moment
    vectors, so one optimizer must stay attached to one model.  ``step``
    walks the vectors in consecutive ``_ADAM_CHUNK``-element slices through
    two slice-sized scratch vectors, so it allocates nothing per call; the
    per-element expressions and their order are those of a whole-vector
    update, so the result is the same to the bit.  ``grads`` is only read.
    """

    def __init__(self, params: np.ndarray, config: TrainConfig):
        self.params = params
        self.cfg = config
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = np.empty((2, min(_ADAM_CHUNK, params.size)),
                                 dtype=params.dtype)
        self.t = 0

    def step(self, grads: np.ndarray) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        lr = self.cfg.learning_rate
        eps = ADAM_EPSILON
        for lo in range(0, self.params.size, _ADAM_CHUNK):
            chunk = slice(lo, lo + _ADAM_CHUNK)
            p, m, v, g = (self.params[chunk], self.m[chunk], self.v[chunk],
                          grads[chunk])
            a, b = self._scratch[:, :p.size]
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=a)
            v *= b2
            np.multiply(g, 1.0 - b2, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, bias1, out=a)
            np.sqrt(np.divide(v, bias2, out=b), out=b)
            a /= np.add(b, eps, out=b)
            p -= np.multiply(a, lr, out=a)


def train_step(model: RnnModel, optimizer: Adam, inputs, targets,
               clip_norm: float, workspace=None) -> tuple[float, float]:
    """One BPTT update on a batch; returns its MSE loss and the gradient
    norm before clipping.

    Backward, gradient clipping and the optimizer step run only when the
    loss is finite, so a diverged batch leaves the parameters untouched and
    its norm is NaN.  The step's big arrays, its gradient vector among
    them, are views of ``workspace`` (a fresh one when ``None``; see the
    module notes).
    """
    if workspace is None:
        workspace = {}
    outputs, cache = model.forward(inputs, workspace=workspace)
    loss, d_outputs = mse_loss(outputs, targets)
    norm = math.nan
    if np.isfinite(loss):
        grads = _take(workspace, "grads", model.params.shape)
        model.backward(cache, d_outputs, grads)
        norm = clip_gradient_norm(grads, clip_norm)
        optimizer.step(grads)
    return loss, norm


# ---------------------------------------------------------------------------
# serialization


def save_model(path, model: RnnModel) -> None:
    """Write ``H0``, the layer-size lists and the parameter vector."""
    sizes = (model.nnw_in.sizes, (model.gru.n_h,), model.nnw_out.sizes)
    ds.write_binary(path, MODEL_MAGIC, MODEL_VERSION, ("<d", H0),
                    *[(f"<I{len(s)}I", len(s), *s) for s in sizes],
                    model.params)


def load_model(path, model: RnnModel) -> None:
    """Read into ``model`` the parameters of a file that ``save_model``
    wrote for a model of its layer sizes, with ``H0``; any other file, a
    non-finite parameter too, raises a ``ValueError`` naming it and leaves
    ``model`` as it was."""
    reader = ds.BinaryReader(path, MODEL_MAGIC, MODEL_VERSION)
    (h0,) = reader.unpack("<d")
    # each size list is its length, then its sizes
    sizes = [reader.unpack(f"<{reader.unpack('<I')[0]}I") for _ in range(3)]
    want = [model.nnw_in.sizes, (model.gru.n_h,), model.nnw_out.sizes]
    if (h0, sizes) != (H0, want):
        raise reader.error(f"not a version-{MODEL_VERSION} model file with "
                           f"h0 = {H0} and layer sizes {want}; it holds "
                           f"h0 = {h0} and layer sizes {sizes}")
    params = reader.floats("the parameters at entry {}", model.params.size)
    reader.finish()
    model.params[...] = params
