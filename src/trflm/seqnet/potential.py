"""The scalar sequence potential phi(x; theta).

Pipeline per sequence: symbol embeddings -> convolution bank (widths 1..K,
feature maps spliced on the channel axis) -> stacked width-3 convolutions ->
residual add with the embeddings -> bidirectional LSTM -> linear attention
readout  phi = lambda^T sum_i alpha_i h_i + c  with raw scores
alpha_i = beta^T h_i (no softmax). Every convolution is zero-padded to keep
the time dimension equal to the input length. All arithmetic is float64.

The convolution stack's last layer outputs embedding-width channels so the
residual add is well defined; when the bank is present (K > 0) at least one
stacked convolution is required to project the splice down. The bank/stack may
both be disabled, in which case embeddings feed the BLSTM directly.

Every convolution is one matrix product over a column matrix (layers), and
the bank and the stack run as one loop of such layers. The bank is one
width-K layer: width k's taps are k consecutive taps of a width-K window, so
its filter holds each width's taps at their offset and its channels in their
block of the splice, and is zero elsewhere. Each width's weight gradient is
read from that layer's at the same place; the zero taps' is dropped.

Without convolutions the forward LSTM state at a position depends only on
the symbols up to it and the backward state only on those from it on, so
potential_phi_space scores a whole fixed-length space with one prefix-tree
scan per direction, for the exact normalizer.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers


@dataclass(frozen=True)
class PotentialConfig:
    vocab_size: int
    emb_dim: int = 16
    bank_width: int = 0        # K; 0 disables the convolution bank
    bank_channels: int = 0     # f; per-width output channels
    stack_layers: int = 0      # s; width-3 convolutions after the splice
    hidden_dim: int = 16       # d; per-direction BLSTM units

    def __post_init__(self):
        if self.vocab_size < 3 or self.emb_dim < 1 or self.hidden_dim < 1:
            raise ValueError("inconsistent potential dimensions")
        for name in ("bank_width", "bank_channels", "stack_layers"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")
        if self.bank_width > 0 and self.bank_channels < 1:
            raise ValueError("bank_channels must be >= 1 when the bank is enabled")
        if self.bank_width > 0 and self.stack_layers < 1:
            raise ValueError("a spliced convolution bank needs at least one "
                             "stacked convolution to project back to emb_dim")

    def param_shapes(self):
        """(name, shape) of every tensor, in initialization order."""
        e, d, f = self.emb_dim, self.hidden_dim, self.bank_channels
        yield "emb", (self.vocab_size, e)
        for k in range(1, self.bank_width + 1):
            yield f"bank{k}_w", (k, e, f)
            yield f"bank{k}_b", (f,)
        cin = self.bank_width * f if self.bank_width > 0 else e
        for i in range(1, self.stack_layers + 1):
            cout = e if i == self.stack_layers else f
            yield f"stack{i}_w", (3, cin, cout)
            yield f"stack{i}_b", (cout,)
            cin = cout
        for direction in ("fw", "bw"):
            yield f"lstm_{direction}_w", (e + d, 4 * d)
            yield f"lstm_{direction}_b", (4 * d,)
        yield "att_beta", (2 * d,)
        yield "att_lambda", (2 * d,)
        yield "bias", ()


init_potential_params = layers.init_params


def _check_ids(cfg: PotentialConfig, ids: np.ndarray) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] < 1:
        raise ValueError("ids must be a nonempty (N, l) array")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError("symbol id out of vocabulary range")
    return ids


def potential_phi_batch(params: layers.Params, ids) -> tuple[np.ndarray, dict]:
    """phi for a batch of same-length sequences; returns ((N,) scores, cache)."""
    cfg = params.config
    t = params.tensors
    ids = _check_ids(cfg, ids)
    cache: dict = {"ids": ids}

    emb, _ = layers.embedding_forward(t["emb"], ids)
    x = emb
    cache["conv"] = convs = []     # (conv cache, preactivation) of every layer
    for w, b in _conv_layers(cfg, t):
        x, ck = layers.conv1d_forward(x, w, b)
        x, pre = layers.relu_forward(x)
        convs.append((ck, pre))
    if convs:
        x = emb + x  # residual join at embedding width

    h_fw, c_fw = layers.lstm_forward(x, t["lstm_fw_w"], t["lstm_fw_b"])
    h_bw_rev, c_bw = layers.lstm_forward(x[:, ::-1, :], t["lstm_bw_w"], t["lstm_bw_b"])
    h = np.concatenate([h_fw, h_bw_rev[:, ::-1, :]], axis=2)   # (N, l, 2d)

    alpha = h @ t["att_beta"]      # raw attention scores, (N, l)
    u = h @ t["att_lambda"]
    phi = (alpha * u).sum(axis=1) + float(t["bias"])
    cache.update(lstm_fw=c_fw, lstm_bw=c_bw, h=h, alpha=alpha, u=u)
    return phi, cache


def potential_backward_batch(params: layers.Params, cache: dict, scales) -> np.ndarray:
    """Accumulated gradient sum_n scales[n] * d phi_n / d theta, laid out as params.flat."""
    cfg = params.config
    t = params.tensors
    scales = np.asarray(scales, dtype=np.float64)
    ids = cache["ids"]
    h, alpha, u = cache["h"], cache["alpha"], cache["u"]
    flat = np.empty_like(params.flat)
    g = params.views(flat)   # every view is written below

    g["bias"][...] = scales.sum()
    salpha = scales[:, None] * alpha
    su = scales[:, None] * u
    g["att_beta"][...] = np.einsum("nl,nld->d", su, h)
    g["att_lambda"][...] = np.einsum("nl,nld->d", salpha, h)
    dh = su[:, :, None] * t["att_beta"] + salpha[:, :, None] * t["att_lambda"]

    d = cfg.hidden_dim
    dx_fw, g["lstm_fw_w"][...], g["lstm_fw_b"][...] = layers.lstm_backward(
        dh[:, :, :d], cache["lstm_fw"])
    dx_bw_rev, g["lstm_bw_w"][...], g["lstm_bw_b"][...] = layers.lstm_backward(
        dh[:, ::-1, d:], cache["lstm_bw"])
    dx = dx_fw + dx_bw_rev[:, ::-1, :]

    demb = dx if cache["conv"] else None
    for i, (ck, pre) in reversed(list(enumerate(cache["conv"]))):
        dx, dw, db = layers.conv1d_backward(layers.relu_backward(dx, pre), ck)
        for name, grad in _conv_grads(cfg, i, dw, db):
            g[name][...] = grad
    if demb is not None:
        dx = dx + demb
    g["emb"][...] = layers.embedding_backward(dx, ids, t["emb"].shape)
    return flat


def _bank_widths(cfg: PotentialConfig):
    """(k, offset, out) of every bank width k: its taps are taps offset..
    offset+k-1 of the bank's width-K filter, and its channels are the out
    block of the splice."""
    widths, f = cfg.bank_width, cfg.bank_channels
    for k in range(1, widths + 1):
        yield k, (widths - 1) // 2 - (k - 1) // 2, slice((k - 1) * f, k * f)


def _conv_layers(cfg: PotentialConfig, t: dict):
    """(w, b) of every convolution in order: the bank as one width-K layer
    whose filter holds each width's taps at its offset and channels and is
    zero elsewhere, then the stacked layers."""
    if cfg.bank_width > 0:
        w = np.zeros((cfg.bank_width, cfg.emb_dim, cfg.bank_width * cfg.bank_channels))
        for k, offset, out in _bank_widths(cfg):
            w[offset:offset + k, :, out] = t[f"bank{k}_w"]
        yield w, np.concatenate([t[f"bank{k}_b"] for k in range(1, cfg.bank_width + 1)])
    for i in range(1, cfg.stack_layers + 1):
        yield t[f"stack{i}_w"], t[f"stack{i}_b"]


def _conv_grads(cfg: PotentialConfig, i: int, dw: np.ndarray, db: np.ndarray):
    """(name, gradient) of every tensor of convolution i of _conv_layers,
    from that layer's dW and db: the bank's zero taps get none."""
    if i == 0 and cfg.bank_width > 0:
        for k, offset, out in _bank_widths(cfg):
            yield f"bank{k}_w", dw[offset:offset + k, :, out]
            yield f"bank{k}_b", db[out]
    else:
        i += cfg.bank_width == 0     # stack layers count from 1
        yield f"stack{i}_w", dw
        yield f"stack{i}_b", db


def _children(h, c, inputs):
    """Inputs and (h0, c0) of every child of the parent states (h, c), each
    parent's children together and in the order of inputs."""
    k = len(inputs)
    return np.tile(inputs, (len(h), 1)), (np.repeat(h, k, axis=0), np.repeat(c, k, axis=0))


def _tree_readout(t: dict, direction: str, symbols: list, chunk_rows: int) -> list:
    """Attention scalars (beta.h, lambda.h) of one LSTM direction at every
    node of its prefix tree, one (a, u) pair of arrays per level.

    symbols holds each level's (B, e) input embeddings: B = 1 at the two
    boundary levels and P at every payload level. A level's nodes spell
    their symbols in mixed radix, the earliest symbol varying slowest. The
    last two levels hold the most nodes, so they are scanned together in
    chunks of about chunk_rows children, which keeps the scan in cache."""
    w, b = t[f"lstm_{direction}_w"], t[f"lstm_{direction}_b"]
    d = w.shape[1] // 4
    half = slice(0, d) if direction == "fw" else slice(d, 2 * d)
    readout = np.stack([t["att_beta"][half], t["att_lambda"][half]], axis=1)
    levels = []
    h = c = np.zeros((1, d))       # stepping from zero states adds exact zeros
    for inputs in symbols[:-2]:
        x, state = _children(h, c, inputs)
        hs, cache = layers.lstm_forward(x[:, None], w, b, state)
        h, c = hs[:, 0], cache[2][0]           # cache[2] holds the cell states
        levels.append(tuple((h @ readout).T))
    heads, last = symbols[-2:]
    group = max(1, chunk_rows // len(heads))
    tail = np.empty((len(h) * len(heads), 2, 2))   # (rows, 2 levels, a | u)
    for s in range(0, len(h), group):
        x, state = _children(h[s:s + group], c[s:s + group], heads)
        hs, _ = layers.lstm_forward(np.stack([x, np.broadcast_to(last, x.shape)], axis=1),
                                    w, b, state)
        tail[s * len(heads):s * len(heads) + len(x)] = hs @ readout
    levels += [(tail[:, k, 0], tail[:, k, 1]) for k in range(2)]
    return levels


def potential_phi_space(params: layers.Params, payload, bos: int, eos: int,
                        length: int, chunk_rows: int) -> np.ndarray:
    """phi of every [bos, payload^(length-2), eos] sequence, in lexicographic
    order of the payload (the last position varying fastest), for a potential
    without convolutions.

    The forward state at position i then depends only on the symbols up to i
    and the backward state only on those from i on, so each direction is one
    scan of its prefix tree and
        phi = bias + sum_i (af_i + ab_i)(uf_i + ub_i),
    with af = beta_f.hf, uf = lambda_f.hf and likewise backward. The backward
    tree spells its payload digits last to first; transposing a level's
    (P,) * k grid puts them in order, and phi is one broadcast sum over the
    (P,) * (length-2) grid."""
    cfg = params.config
    if cfg.bank_width > 0 or cfg.stack_layers > 0:
        raise ValueError("the prefix-tree scan needs a potential without convolutions")
    t = params.tensors
    payload = _check_ids(cfg, [payload])[0]
    _check_ids(cfg, [[bos, eos]])
    p, size = length - 2, len(payload)
    emb = t["emb"]
    between = [emb[payload]] * p
    fw = _tree_readout(t, "fw", [emb[[bos]], *between, emb[[eos]]], chunk_rows)
    bw = _tree_readout(t, "bw", [emb[[eos]], *between, emb[[bos]]], chunk_rows)
    phi = np.full((size,) * p, float(t["bias"]))
    for i in range(p + 2):
        nf, nb = min(i, p), p - max(i, 1) + 1       # payload digits each side sees
        head = (size,) * nf + (1,) * (p - nf)
        af, uf = (v.reshape(head) for v in fw[i])
        ab, ub = (v.reshape((size,) * nb).transpose().reshape((1,) * (p - nb) + (size,) * nb)
                  for v in bw[p + 1 - i])
        term = af + ab
        term *= uf + ub
        phi += term
    return phi.ravel()


class NeuralPotential:
    """Potential-function handle: the parameters plus batched scoring."""

    def __init__(self, params: layers.Params):
        self.params = params

    @property
    def config(self) -> PotentialConfig:
        return self.params.config

    def phi_batch(self, ids) -> np.ndarray:
        return potential_phi_batch(self.params, ids)[0]
