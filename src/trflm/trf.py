"""The trans-dimensional random field model.

Joint density over (length, sequence) pairs:

    log p(l, x^l) = log pi_l + log q(x^l) + phi(x^l; theta) - zeta_l

where pi is the length prior, q a fixed reference distribution, phi the
potential network and zeta the vector of per-length log-normalizers. With
zeta_l set to the true value log Z_l = log sum_x q(x) e^phi(x) the density is
exactly normalized; during training zeta is an ordinary parameter.

For enumerable spaces exact_log_z computes log Z_l by brute force over every
payload assignment of a length (lexicographic order, chunked stable
log-sum-exp), which is the ground-truth oracle the estimated zeta is judged
against; with_exact_zeta is the one model normalized by it.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .corpus import LengthPrior, Sequence, Vocabulary, length_buckets
from . import ngram as ngram_mod
from .seqnet import Params, lstmlm
from .util import logsumexp

DEFAULT_ENUM_BUDGET = 10_000_000


class UniformReference:
    """q(x^l) = V_payload^-(payload length): per-length normalized."""

    kind = "uniform"

    def __init__(self, payload_size: int):
        if payload_size < 1:
            raise ValueError("payload alphabet must be nonempty")
        self.payload_size = payload_size

    def log_q_batch(self, ids: np.ndarray) -> np.ndarray:
        n, length = ids.shape
        return np.full(n, -(length - 2) * float(np.log(self.payload_size)))


class NgramReference:
    """Fixed-length restriction of an n-gram model: per-length normalized."""

    kind = "ngram"

    def __init__(self, model: ngram_mod.NGramModel):
        self.model = model

    def log_q_batch(self, ids: np.ndarray) -> np.ndarray:
        return np.array([ngram_mod.logprob_fixed_length(self.model, Sequence(tuple(row)))
                         for row in ids])


class LstmReference:
    """LSTM LM reference: normalized jointly over lengths <= its max_len."""

    kind = "lstm"

    def __init__(self, params: Params):
        self.params = params

    def log_q_batch(self, ids: np.ndarray) -> np.ndarray:
        return lstmlm.lstm_lm_logprob_batch(self.params, ids)


@dataclass
class TrfModel:
    potential: object            # NeuralPotential or any phi_batch provider
    zeta: np.ndarray             # zeta[l-1] is the log-normalizer of length l
    length_prior: LengthPrior
    reference: object
    vocab: Vocabulary
    level: str = "word"          # tokenization of the text the model scores

    def __post_init__(self):
        self.zeta = np.asarray(self.zeta, dtype=np.float64)
        if self.zeta.shape != (self.length_prior.m,):
            raise ValueError("zeta and length prior sizes disagree")
        if not np.all(np.isfinite(self.zeta)):
            raise ValueError("zeta must be finite")
        if self.level not in ("word", "char"):
            raise ValueError(f"unknown tokenization level: {self.level!r}")

    @property
    def max_len(self) -> int:
        return self.length_prior.m

    @property
    def supported_lengths(self) -> tuple[int, ...]:
        return self.length_prior.supported_lengths


def zeta_init_vector(kind: str, m: int, vocab_size: int) -> np.ndarray:
    """Named starting points for the log-normalizers."""
    l = np.arange(1, m + 1, dtype=np.float64)
    if kind == "l-log-v":
        return l * np.log(vocab_size)
    if kind == "linear":
        return l.copy()
    if kind == "zeros":
        return np.zeros(m)
    raise ValueError(f"unknown zeta init: {kind!r}")


def log_joint_batch(model: TrfModel, ids: np.ndarray, phi=None) -> np.ndarray:
    """log p(l, x^l) for a batch of same-length sequences (possibly
    unnormalized when zeta differs from the true log Z). phi, when given, is
    the potential already computed for these rows."""
    ids = np.asarray(ids, dtype=np.int64)
    l = ids.shape[1]
    log_pi = model.length_prior.log_prob(l)
    if log_pi == -np.inf:
        return np.full(ids.shape[0], -np.inf)
    if phi is None:
        phi = model.potential.phi_batch(ids)
    return log_pi + model.reference.log_q_batch(ids) + phi - float(model.zeta[l - 1])


def log_joint(model: TrfModel, x: Sequence) -> float:
    """log pi_l + log q(x^l) + phi(x^l) - zeta_l; -inf when pi_l = 0."""
    return float(log_joint_batch(model, np.array([x.ids]))[0])


def _length_space(model: TrfModel, l: int, budget: int, chunk: int = 8192):
    """(<= chunk, l) id matrices covering the length-l space, payloads in
    lexicographic order of the sorted payload ids: row k spells k in mixed
    radix over the payload alphabet, the last payload position varying fastest."""
    p = l - 2
    if p < 0:
        raise ValueError(f"no sequences of length {l} exist (minimum is 2)")
    payload = np.array(sorted(model.vocab.payload_ids), dtype=np.int64)
    count = len(payload) ** p
    if count > budget:
        raise ValueError(f"enumerating length {l} needs {count} sequences, "
                         f"over the budget of {budget}")
    for start in range(0, count, chunk):
        k = np.arange(start, min(start + chunk, count), dtype=np.int64)
        ids = np.empty((k.size, l), dtype=np.int64)
        ids[:, 0] = model.vocab.bos
        ids[:, -1] = model.vocab.eos
        for col in range(p, 0, -1):
            k, digit = np.divmod(k, payload.size)
            ids[:, col] = payload[digit]
        yield ids


def exact_log_z(model: TrfModel, l: int, budget: int = DEFAULT_ENUM_BUDGET) -> float:
    """Brute-force log Z_l = log sum over the full length-l space of
    q(x) * e^phi(x), accumulated with a stable chunked log-sum-exp."""
    acc = -np.inf
    for ids in _length_space(model, l, budget):
        scores = model.reference.log_q_batch(ids) + model.potential.phi_batch(ids)
        acc = np.logaddexp(acc, logsumexp(scores))
    return float(acc)


def exact_zeta(model: TrfModel, lengths=None, budget: int = DEFAULT_ENUM_BUDGET) -> dict[int, float]:
    """True log-normalizers for every requested (default: supported) length."""
    if lengths is None:
        lengths = model.supported_lengths
    return {int(l): exact_log_z(model, int(l), budget) for l in lengths}


def with_exact_zeta(model: TrfModel, lengths=None,
                    budget: int = DEFAULT_ENUM_BUDGET) -> TrfModel:
    """The model with zeta_l set to exact_log_z at every requested (default:
    supported) length; other lengths keep their stored zeta."""
    zeta = model.zeta.copy()
    for l, z in exact_zeta(model, lengths, budget).items():
        zeta[l - 1] = z
    return replace(model, zeta=zeta)


def total_mass(model: TrfModel, budget: int = DEFAULT_ENUM_BUDGET) -> float:
    """Total probability over the enumerated trans-dimensional space under the
    stored zeta; equals 1 when zeta matches exact_log_z."""
    total = 0.0
    for l in model.supported_lengths:
        for ids in _length_space(model, l, budget):
            total += float(np.exp(log_joint_batch(model, ids)).sum())
    return total


def nll(model: TrfModel, dataset) -> float:
    """Mean negative log-likelihood under the model's own zeta; infinite, with
    a warning, when the dataset holds a length of zero prior probability."""
    if not dataset:
        raise ValueError("empty dataset")
    buckets = list(length_buckets(dataset))
    bad = [ids.shape[1] for _, ids in buckets if model.length_prior.prob(ids.shape[1]) == 0.0]
    if bad:
        warnings.warn(f"lengths with zero prior probability in dataset: {bad}; "
                      "their NLL is infinite")
        return float(np.inf)
    total = 0.0
    for _, ids in buckets:
        total += float(-log_joint_batch(model, ids).sum())
    return total / len(dataset)


def zeta_gap(model: TrfModel, exact: TrfModel) -> tuple[dict[int, float], float]:
    """Per-length zeta - zeta* over supported lengths, with zeta* read from
    exact (see with_exact_zeta), and the squared norm."""
    gaps = {l: float(model.zeta[l - 1]) - float(exact.zeta[l - 1])
            for l in model.supported_lengths}
    return gaps, float(sum(g ** 2 for g in gaps.values()))
