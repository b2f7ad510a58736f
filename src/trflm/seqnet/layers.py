"""Layer primitives (half convolution, ReLU, LSTM) and Params, the weights of every network.

Each forward takes batched (N, L, C) float64 input and returns (out, cache);
the matching backward consumes the cache and returns input/parameter grads.
Batches hold same-length sequences, so no masking is needed anywhere.

A width-k convolution is one matrix product: conv1d_columns lays each output
position's k input windows side by side in an (N·L, k·C) column matrix, and
the filter is read as (k·C, C_out). The backward pass builds one column
matrix too, of the output gradient, and reads both gradients from it with
one product each. So the cache keeps the input, not its column matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Params:
    """A network's config and its weights: one float64 vector, laid out by views()."""

    config: object
    flat: np.ndarray = field(repr=False)
    layout: tuple = field(init=False, repr=False)     # (name, start, stop, shape) per tensor
    tensors: dict[str, np.ndarray] = field(init=False, repr=False)   # views(flat)

    def __post_init__(self):
        layout, start = [], 0
        for name, shape in self.config.param_shapes():
            layout.append((name, start, start + math.prod(shape), shape))
            start = layout[-1][2]
        self.layout = tuple(layout)
        self.tensors = self.views(self.flat)

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """vec, laid out as flat (a gradient, say), as one named view per tensor."""
        return {name: vec[start:stop].reshape(shape) for name, start, stop, shape in self.layout}


def init_params(config, seed=0, scale: float = 0.1) -> Params:
    """Uniform weights on [-scale, scale], drawn in config.param_shapes() order."""
    rng = np.random.default_rng(seed) if isinstance(seed, int) else seed
    size = sum(math.prod(shape) for _, shape in config.param_shapes())
    return Params(config, rng.uniform(-scale, scale, size=size))


def conv1d_columns(x, k, left=None):
    """The (N·L, k·C) column matrix of a width-k convolution over x (N, L, C):
    row n·L + t holds x[n, t + j - left] for taps j = 0..k-1 side by side,
    zero where that position falls outside the sequence. The default left
    padding (k-1)//2, with k//2 on the right, keeps the output length equal
    to the input length for every width. Row t of a sequence is k·C
    consecutive entries of its padded copy from entry t·C on, so one strided
    view, copied once, gives every window."""
    n, length, c = x.shape
    left = (k - 1) // 2 if left is None else left
    xp = np.zeros((n, length + k - 1, c))
    xp[:, left:left + length] = x
    s0, s1, s2 = xp.strides
    windows = np.ndarray((n, length, k, c), xp.dtype, xp, 0, (s0, s1, s1, s2))
    return windows.reshape(n * length, k * c)


def conv1d_forward(x, w, b):
    """Width-k convolution over time, w (k, C, C_out), as one product of the
    (N·L, k·C) column matrix with w read as (k·C, C_out)."""
    k, c, cout = w.shape
    n, length, _ = x.shape
    y = conv1d_columns(x, k) @ w.reshape(k * c, cout)
    y += b
    return y.reshape(n, length, cout), (x, w)


def conv1d_backward(dy, cache):
    """Input position u meets dy[u - j + (k-1)//2] through tap j. In dy's
    column matrix, padded k//2 on the left, that is block k-1-j of row u. So
    dx is one product of it with the taps reversed and transposed, and dW one
    product of x^T with it, its blocks in reverse tap order."""
    x, w = cache
    k, c, cout = w.shape
    dycols = conv1d_columns(dy, k, k // 2)
    dx = dycols @ w[::-1].transpose(0, 2, 1).reshape(k * cout, c)
    dw = (x.reshape(-1, c).T @ dycols).reshape(c, k, cout)[:, ::-1].transpose(1, 0, 2)
    return dx.reshape(x.shape), dw, dy.sum(axis=(0, 1))


def relu_forward(x):
    return np.maximum(x, 0.0), x   # cache preactivations (mask + kink audits)


def relu_backward(dy, cache):
    return dy * (cache > 0.0)


def _sigmoid_(z):
    """z <- 1 / (1 + e^-z), in place."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)


def lstm_forward(x, w, b, state=None):
    """Single-layer LSTM scan. x is (N, L, Cin); w is (Cin+d, 4d) over the
    concatenated [x_t, h_{t-1}] input; gate order along the 4d axis is
    input, forget, candidate, output. Initial h and c are zero, or the
    (N, d) arrays of state = (h0, c0). lstm_backward assumes zero initial
    states, so a nonzero state is for forward-only scans.

    The scan runs time-major and gate-major so that every elementwise step
    works on contiguous memory. Before the loop one input projection
    [x_t, 1] @ [W_x; b] fills an (L, 4, N, d) tensor; each step adds
    h_{t-1} W_h to its (4, N, d) block and overwrites the block with the
    gate activations, which the cache keeps with c, tanh c and h. The
    returned h is an (N, L, d) view of the time-major states."""
    n, length, cin = x.shape
    d = w.shape[1] // 4
    xt = np.empty((length, n, cin + 1))                  # [x_t, 1]
    xt[..., :cin] = x.transpose(1, 0, 2)
    xt[..., cin] = 1.0
    wb = np.concatenate([w[:cin], b[None]]).reshape(cin + 1, 4, d).transpose(1, 0, 2)
    w_h = w[cin:].reshape(d, 4, d).transpose(1, 0, 2)    # (4, d, d)
    acts = np.matmul(xt[:, None], wb)
    c = np.empty((length, n, d))
    tc = np.empty((length, n, d))
    h = np.empty((length, n, d))
    h_prev, c_prev = (None, None) if state is None else state
    for t in range(length):
        a = acts[t]
        if t:
            h_prev, c_prev = h[t - 1], c[t - 1]
        if h_prev is not None:
            a += np.matmul(h_prev, w_h)
        _sigmoid_(a[:2])                                  # i | f
        np.tanh(a[2], out=a[2])                           # g
        _sigmoid_(a[3])                                   # o
        np.multiply(a[0], a[2], out=c[t])
        if c_prev is not None:
            c[t] += a[1] * c_prev
        np.tanh(c[t], out=tc[t])
        np.multiply(a[3], tc[t], out=h[t])
    cache = (xt, acts, c, tc, h, w)
    return h.transpose(1, 0, 2), cache


def lstm_backward(dh, cache):
    """Backpropagation through time; dh is the upstream gradient on every
    hidden state (N, L, d). The weight, bias and input gradients are one
    matmul or sum each over all steps, after the scan."""
    xt, acts, c, tc, h, w = cache
    length, n, cin = xt.shape
    cin -= 1                                              # xt ends in a ones column
    d = c.shape[2]
    i, f, g, o = (acts[:, k] for k in range(4))
    # Each gate's pre-activation gradient is dc_t (gates i, f, g) or dh_t
    # (gate o) times a factor that needs no recurrence.
    k = np.empty_like(acts)
    np.multiply(g * i, 1.0 - i, out=k[:, 0])
    k[0, 1] = 0.0                                         # c_{-1} = 0
    np.multiply(c[:-1] * f[1:], 1.0 - f[1:], out=k[1:, 1])
    np.multiply(i, 1.0 - g * g, out=k[:, 2])
    np.multiply(tc * o, 1.0 - o, out=k[:, 3])
    dc_dh = o * (1.0 - tc * tc)
    dh = np.ascontiguousarray(dh.transpose(1, 0, 2))
    dz = np.empty_like(acts)
    w_h_t = w[cin:].reshape(d, 4, d).transpose(1, 2, 0)  # (4, d, d)
    dh_next = dc_next = 0.0
    for t in reversed(range(length)):
        dht = dh[t] + dh_next
        dc = dht * dc_dh[t] + dc_next
        np.multiply(k[t, :3], dc, out=dz[t, :3])
        np.multiply(k[t, 3], dht, out=dz[t, 3])
        dc_next = dc * f[t]
        dh_next = np.matmul(dz[t], w_h_t).sum(axis=0)
    flat = dz.transpose(0, 2, 1, 3).reshape(length * n, 4 * d)
    dxb = xt.reshape(length * n, cin + 1).T @ flat        # [dW_x; db]
    dw = np.concatenate([dxb[:cin], h[:-1].reshape(-1, d).T @ flat[n:]])
    dx = (flat @ w[:cin].T).reshape(length, n, cin).transpose(1, 0, 2)
    return dx, dw, dxb[cin]


def embedding_forward(table, ids):
    return table[ids], ids


def embedding_backward(dy, ids, table_shape):
    dtable = np.zeros(table_shape)
    np.add.at(dtable, ids.reshape(-1), dy.reshape(-1, table_shape[1]))
    return dtable
