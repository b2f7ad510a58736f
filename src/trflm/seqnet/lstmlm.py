"""Unidirectional LSTM language model over bounded-length sequences.

The model predicts every symbol after the initial begin symbol, ending with
the end symbol. The begin symbol is masked out of every softmax (it is never a
valid continuation), and once the payload budget max_len-2 is exhausted the
end symbol is forced with probability one. Total probability over all
sequences of length <= max_len is therefore exactly 1.

A forced end symbol needs no softmax, so a sequence of length max_len runs
max_len-2 LSTM steps and any shorter one length-1 (_steps). Scoring runs the
network once per run of consecutive rows with the same inputs. At max_len the
inputs stop before the last payload symbol, so a lexicographic enumeration
over P payload symbols needs one pass per P rows.

Training takes a batch as its per-length (N, l) id arrays and runs one
forward and one backward pass per step count, so rows of max_len and of
max_len-1, which both run max_len-2 steps, share a pass. An epoch buckets
nothing: it checks the corpus buckets once, picks each step's rows from
them, and SGD updates the flat weight vector in place.

A row's score, here and in the potential, can differ in its last bits
between batchings: numpy sends a one-row matmul through BLAS gemv and a
many-row one through gemm, which sum in different orders, and the
potential's prefix-tree scan batches other rows than its per-row pass. Tests
compare such paths to within 1e-12, not for equality.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    if n and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise ValueError("symbol id out of vocabulary range")
    if (ids[:, 0] != cfg.bos).any() or (ids[:, -1] != cfg.eos).any():
        raise ValueError("sequences must be [begin, payload..., end]")
    payload = ids[:, 1:-1]
    if ((payload == cfg.bos) | (payload == cfg.eos)).any():
        raise ValueError("boundary symbol inside payload")


def _steps(cfg: LstmLmConfig, length: int) -> int:
    """Softmax steps a length-`length` sequence needs: one per symbol after the
    begin symbol, less the end symbol at max_len, which is forced."""
    return length - 2 if length == cfg.max_len else length - 1


def _forward(params: layers.Params, inputs: np.ndarray):
    """LSTM states, logits and log-sum-exps over the (N, steps) input columns."""
    cfg = params.config
    t = params.tensors
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
    return caches, h, logits, lse


def lstm_lm_logprob_batch(params: layers.Params, ids) -> np.ndarray:
    """log q of each row of a batch of same-length sequences.

    Consecutive rows with the same input columns share every LSTM state and
    softmax, so the network runs only on the first row of each such run and
    every row reads its targets from its run's logits."""
    cfg = params.config
    ids = np.asarray(ids, dtype=np.int64)
    _check_batch(cfg, ids)
    steps = _steps(cfg, ids.shape[1])
    inputs = ids[:, :steps]
    new = np.ones(len(ids), dtype=bool)
    new[1:] = (inputs[1:] != inputs[:-1]).any(axis=1)
    _, _, logits, lse = _forward(params, inputs[new])
    run = (np.cumsum(new) - 1)[:, None]
    cols = np.arange(steps)[None, :]
    return (logits[run, cols, ids[:, 1:steps + 1]] - lse[run, cols]).sum(axis=1)


def lstm_lm_loss_grads(params: layers.Params, batch,
                       checked: bool = False) -> tuple[float, np.ndarray]:
    """Mean per-sequence negative log-probability of a batch, given as its
    per-length (N, l) id arrays, and its flat parameter gradient. checked
    says the caller has already run the batch checks on these arrays.

    Arrays with the same _steps count share one forward and one backward
    pass: rows of max_len and of max_len-1 both run max_len-2 steps over
    their first max_len-2 columns."""
    cfg = params.config
    t = params.tensors
    groups: dict[int, list[np.ndarray]] = {}
    n_total = 0
    for ids in batch:
        if not checked:
            _check_batch(cfg, ids)
        n_total += len(ids)
        steps = _steps(cfg, ids.shape[1])
        if steps:   # [begin, end] at max_len 2 is certain: no loss, no gradient
            groups.setdefault(steps, []).append(ids[:, :steps + 1])
    flat = np.zeros_like(params.flat)
    grads = params.views(flat)
    total_nll = 0.0
    for steps, parts in groups.items():
        ids = np.concatenate(parts) if len(parts) > 1 else parts[0]
        inputs, targets = ids[:, :-1], ids[:, 1:]
        caches, h, logits, lse = _forward(params, inputs)
        rows = np.arange(len(ids))[:, None]
        cols = np.arange(steps)[None, :]
        lp = logits[rows, cols, targets] - lse
        total_nll += float(-lp.sum(axis=1).sum())

        dlogits = logits                                  # softmax / n_total, in place
        dlogits -= lse[:, :, None]
        np.exp(dlogits, out=dlogits)
        dlogits /= n_total
        dlogits[rows, cols, targets] -= 1.0 / n_total
        d, v = t["out_w"].shape
        grads["out_w"] += h.reshape(-1, d).T @ dlogits.reshape(-1, v)
        grads["out_b"] += dlogits.sum(axis=(0, 1))
        dh = dlogits @ t["out_w"].T
        for i in reversed(range(1, cfg.num_layers + 1)):
            dh, dw, db = layers.lstm_backward(dh, caches[i - 1])
            grads[f"lstm{i}_w"] += dw
            grads[f"lstm{i}_b"] += db
        grads["emb"] += layers.embedding_backward(dh, inputs, t["emb"].shape)
    return total_nll / n_total, flat


def lstm_lm_train_step(params: layers.Params, batch, lr: float, checked: bool = False) -> float:
    """One SGD step on the mean NLL of a batch of per-length (N, l) id arrays,
    made in place on params.flat; returns the NLL measured before the update.
    checked is as in lstm_lm_loss_grads."""
    nll, grads = lstm_lm_loss_grads(params, batch, checked)
    grads *= lr
    params.flat -= grads
    return nll


def lstm_lm_train_epoch(params: layers.Params, buckets, rng: np.random.Generator,
                        batch_size: int, lr: float) -> list[float]:
    """One SGD epoch over a corpus given as the (row indices, (N, l) ids) pairs
    of corpus.length_buckets: rng permutes the corpus rows, and each run of
    batch_size rows in that order is one step on its rows of every length.
    Each bucket is checked once, before the first step. Returns each step's
    NLL."""
    for _, ids in buckets:
        _check_batch(params.config, ids)
    n = sum(len(ids) for _, ids in buckets)
    bucket_of, pos = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for k, (idx, ids) in enumerate(buckets):
        bucket_of[idx] = k
        pos[idx] = np.arange(len(ids))
    order = rng.permutation(n)
    losses = []
    for i in range(0, n, batch_size):
        rows = order[i:i + batch_size]
        of = bucket_of[rows]
        batch = []
        for k, (_, ids) in enumerate(buckets):
            mine = rows[of == k]
            if len(mine):
                batch.append(ids[pos[mine]])
        losses.append(lstm_lm_train_step(params, batch, lr, checked=True))
    return losses
