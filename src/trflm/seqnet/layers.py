"""Layer primitives (half convolution, ReLU, LSTM) and Params, the weights of every network.

Each forward takes batched (N, L, C) float64 input and returns (out, cache);
the matching backward consumes the cache and returns input/parameter grads.
Batches hold same-length sequences, so no masking is needed anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Params:
    """A network's config and its weights, one tensor per config.param_shapes() entry."""

    config: object
    tensors: dict[str, np.ndarray] = field(repr=False)

    def zeros_like(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}


def init_params(config, seed=0, scale: float = 0.1) -> Params:
    """Each tensor of config.param_shapes() in turn, uniform on [-scale, scale]."""
    rng = np.random.default_rng(seed) if isinstance(seed, int) else seed
    return Params(config, {name: rng.uniform(-scale, scale, size=shape)
                           for name, shape in config.param_shapes()})


def conv1d_forward(x, w, b):
    """1-D convolution over time with zero padding chosen so the output length
    equals the input length for every filter width (pad (k-1)//2 left, k//2
    right)."""
    k = w.shape[0]
    n, length, _ = x.shape
    lpad, rpad = (k - 1) // 2, k // 2
    xp = np.pad(x, ((0, 0), (lpad, rpad), (0, 0)))
    y = np.broadcast_to(b, (n, length, b.shape[0])).copy()
    for j in range(k):
        y += xp[:, j:j + length, :] @ w[j]
    cache = (xp, w, lpad, length)
    return y, cache


def conv1d_backward(dy, cache):
    xp, w, lpad, length = cache
    k = w.shape[0]
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for j in range(k):
        dxp[:, j:j + length, :] += dy @ w[j].T
        dw[j] = np.tensordot(xp[:, j:j + length, :], dy, axes=([0, 1], [0, 1]))
    db = dy.sum(axis=(0, 1))
    dx = dxp[:, lpad:lpad + length, :]
    return dx, dw, db


def relu_forward(x):
    return np.maximum(x, 0.0), x   # cache preactivations (mask + kink audits)


def relu_backward(dy, cache):
    return dy * (cache > 0.0)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_forward(x, w, b):
    """Single-layer LSTM scan. x is (N, L, Cin); w is (Cin+d, 4d) over the
    concatenated [x_t, h_{t-1}] input; gate order along the 4d axis is
    input, forget, candidate, output. Initial h and c are zero."""
    n, length, cin = x.shape
    d = w.shape[1] // 4
    h = np.zeros((n, length, d))
    zin = np.zeros((n, length, cin + d))     # concatenated step inputs
    gi = np.zeros((n, length, d))
    gf = np.zeros((n, length, d))
    gg = np.zeros((n, length, d))
    go = np.zeros((n, length, d))
    c = np.zeros((n, length, d))
    tc = np.zeros((n, length, d))
    h_prev = np.zeros((n, d))
    c_prev = np.zeros((n, d))
    for t in range(length):
        zin[:, t, :cin] = x[:, t, :]
        zin[:, t, cin:] = h_prev
        gates = zin[:, t, :] @ w + b
        gi[:, t] = _sigmoid(gates[:, :d])
        gf[:, t] = _sigmoid(gates[:, d:2 * d])
        gg[:, t] = np.tanh(gates[:, 2 * d:3 * d])
        go[:, t] = _sigmoid(gates[:, 3 * d:])
        c[:, t] = gf[:, t] * c_prev + gi[:, t] * gg[:, t]
        tc[:, t] = np.tanh(c[:, t])
        h[:, t] = go[:, t] * tc[:, t]
        h_prev = h[:, t]
        c_prev = c[:, t]
    cache = (zin, gi, gf, gg, go, c, tc, w, cin)
    return h, cache


def lstm_backward(dh, cache):
    """Backpropagation through time; dh is the upstream gradient on every
    hidden state (N, L, d)."""
    zin, gi, gf, gg, go, c, tc, w, cin = cache
    n, length, d = gi.shape
    dx = np.zeros((n, length, cin))
    dw = np.zeros_like(w)
    db = np.zeros(w.shape[1])
    dh_next = np.zeros((n, d))
    dc_next = np.zeros((n, d))
    for t in reversed(range(length)):
        dht = dh[:, t] + dh_next
        do = dht * tc[:, t]
        dc = dc_next + dht * go[:, t] * (1.0 - tc[:, t] ** 2)
        c_prev = c[:, t - 1] if t > 0 else np.zeros((n, d))
        di = dc * gg[:, t]
        dg = dc * gi[:, t]
        df = dc * c_prev
        dc_next = dc * gf[:, t]
        dgates = np.concatenate([
            di * gi[:, t] * (1.0 - gi[:, t]),
            df * gf[:, t] * (1.0 - gf[:, t]),
            dg * (1.0 - gg[:, t] ** 2),
            do * go[:, t] * (1.0 - go[:, t]),
        ], axis=1)
        dw += zin[:, t].T @ dgates
        db += dgates.sum(axis=0)
        dzin = dgates @ w.T
        dx[:, t] = dzin[:, :cin]
        dh_next = dzin[:, cin:]
    return dx, dw, db


def embedding_forward(table, ids):
    return table[ids], ids


def embedding_backward(dy, ids, table_shape):
    dtable = np.zeros(table_shape)
    np.add.at(dtable, ids.reshape(-1), dy.reshape(-1, table_shape[1]))
    return dtable
