"""Unidirectional LSTM language model over bounded-length sequences.

The model predicts every symbol after the initial begin symbol, ending with
the end symbol. The begin symbol is masked out of every softmax (it is never a
valid continuation), and once the payload budget max_len-2 is exhausted the
end symbol is forced with probability one. Total probability over all
sequences of length <= max_len is therefore exactly 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corpus import length_buckets
from . import layers


@dataclass(frozen=True)
class LstmLmConfig:
    vocab_size: int
    emb_dim: int = 16
    hidden_dim: int = 16
    num_layers: int = 1
    max_len: int = 16
    bos: int = 0
    eos: int = 1

    def __post_init__(self):
        if self.vocab_size < 3 or self.emb_dim < 1 or self.hidden_dim < 1 \
                or self.num_layers < 1 or self.max_len < 2 or self.bos == self.eos \
                or not (0 <= self.bos < self.vocab_size and 0 <= self.eos < self.vocab_size):
            raise ValueError("inconsistent LSTM LM dimensions")

    def param_shapes(self):
        """(name, shape) of every tensor, in initialization order."""
        e, d = self.emb_dim, self.hidden_dim
        yield "emb", (self.vocab_size, e)
        for i in range(1, self.num_layers + 1):
            yield f"lstm{i}_w", ((e if i == 1 else d) + d, 4 * d)
            yield f"lstm{i}_b", (4 * d,)
        yield "out_w", (d, self.vocab_size)
        yield "out_b", (self.vocab_size,)


init_lstm_lm_params = layers.init_params


def _check_batch(cfg: LstmLmConfig, ids: np.ndarray) -> None:
    n, length = ids.shape
    if length < 2 or length > cfg.max_len:
        raise ValueError(f"sequence length {length} outside 2..{cfg.max_len}")
    if np.any(ids[:, 0] != cfg.bos) or np.any(ids[:, -1] != cfg.eos):
        raise ValueError("sequences must be [begin, payload..., end]")
    if length > 2 and np.any(np.isin(ids[:, 1:-1], (cfg.bos, cfg.eos))):
        raise ValueError("boundary symbol inside payload")


def _forward(params: layers.Params, ids: np.ndarray):
    cfg = params.config
    t = params.tensors
    inputs = ids[:, :-1]
    x, _ = layers.embedding_forward(t["emb"], inputs)
    caches = []
    h = x
    for i in range(1, cfg.num_layers + 1):
        h, c = layers.lstm_forward(h, t[f"lstm{i}_w"], t[f"lstm{i}_b"])
        caches.append(c)
    logits = h @ t["out_w"] + t["out_b"]
    logits[:, :, cfg.bos] = -np.inf
    zmax = logits.max(axis=2, keepdims=True)
    lse = zmax[:, :, 0] + np.log(np.exp(logits - zmax).sum(axis=2))
    return inputs, caches, h, logits, lse


def _gather_logprobs(cfg: LstmLmConfig, ids, logits, lse) -> np.ndarray:
    n, length = ids.shape
    targets = ids[:, 1:]
    steps = length - 1
    rows = np.arange(n)[:, None]
    cols = np.arange(steps)[None, :]
    lp = logits[rows, cols, targets] - lse
    if length == cfg.max_len:
        lp[:, -1] = 0.0   # end symbol forced once the payload budget is spent
    return lp.sum(axis=1)


def lstm_lm_logprob_batch(params: layers.Params, ids) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    _check_batch(params.config, ids)
    _, _, _, logits, lse = _forward(params, ids)
    return _gather_logprobs(params.config, ids, logits, lse)


def lstm_lm_loss_grads(params: layers.Params, batch) -> tuple[float, dict]:
    """Mean per-sequence negative log-probability and its parameter gradient."""
    cfg = params.config
    t = params.tensors
    grads = params.zeros_like()
    total_nll = 0.0
    n_total = len(batch)
    for _, ids in length_buckets(batch):
        _check_batch(cfg, ids)
        inputs, caches, h, logits, lse = _forward(params, ids)
        lp = _gather_logprobs(cfg, ids, logits, lse)
        total_nll += float(-lp.sum())

        n, length = ids.shape
        targets = ids[:, 1:]
        steps = length - 1
        probs = np.exp(logits - lse[:, :, None])
        dlogits = probs / n_total
        rows = np.arange(n)[:, None]
        cols = np.arange(steps)[None, :]
        dlogits[rows, cols, targets] -= 1.0 / n_total
        if length == cfg.max_len:
            dlogits[:, -1, :] = 0.0
        grads["out_w"] += np.einsum("ntd,ntv->dv", h, dlogits)
        grads["out_b"] += dlogits.sum(axis=(0, 1))
        dh = dlogits @ t["out_w"].T
        for i in reversed(range(1, cfg.num_layers + 1)):
            dh, dw, db = layers.lstm_backward(dh, caches[i - 1])
            grads[f"lstm{i}_w"] += dw
            grads[f"lstm{i}_b"] += db
        grads["emb"] += layers.embedding_backward(dh, inputs, t["emb"].shape)
    return total_nll / n_total, grads


def lstm_lm_train_step(params: layers.Params, batch, lr: float) -> tuple[layers.Params, float]:
    """One SGD step on the mean NLL of the batch; returns new params and the
    NLL measured before the update."""
    nll, grads = lstm_lm_loss_grads(params, batch)
    tensors = {k: v - lr * grads[k] for k, v in params.tensors.items()}
    return layers.Params(params.config, tensors), nll
