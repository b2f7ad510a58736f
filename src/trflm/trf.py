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
against.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .corpus import LengthPrior, Sequence, Vocabulary, group_by_length, stack_ids
from . import ngram as ngram_mod
from .seqnet import Params, lstmlm
from .util import logsumexp

DEFAULT_ENUM_BUDGET = 10_000_000


class UniformReference:
    """q(x^l) = V_payload^-(payload length): per-length normalized."""

    kind = "uniform"
    per_length_normalized = True

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
    per_length_normalized = True

    def __init__(self, model: ngram_mod.NGramModel):
        self.model = model

    def log_q_batch(self, ids: np.ndarray) -> np.ndarray:
        return np.array([ngram_mod.logprob_fixed_length(self.model, Sequence(tuple(row)))
                         for row in ids])


class LstmReference:
    """LSTM LM reference: normalized jointly over lengths <= its max_len."""

    kind = "lstm"
    per_length_normalized = False

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


def _payload_chunks(payload_ids, p: int, bos: int, eos: int, chunk: int = 8192):
    """(N, p+2) id matrices covering the length-(p+2) space in lexicographic
    payload order."""
    it = itertools.product(sorted(payload_ids), repeat=p)
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            return
        mat = np.empty((len(block), p + 2), dtype=np.int64)
        mat[:, 0] = bos
        mat[:, -1] = eos
        if p:
            mat[:, 1:-1] = np.array(block, dtype=np.int64)
        yield mat


def _check_budget(model: TrfModel, l: int, budget: int) -> int:
    p = l - 2
    if p < 0:
        raise ValueError(f"no sequences of length {l} exist (minimum is 2)")
    count = len(model.vocab.payload_ids) ** p
    if count > budget:
        raise ValueError(f"enumerating length {l} needs {count} sequences, "
                         f"over the budget of {budget}")
    return p


def exact_log_z(model: TrfModel, l: int, budget: int = DEFAULT_ENUM_BUDGET) -> float:
    """Brute-force log Z_l = log sum over the full length-l space of
    q(x) * e^phi(x), accumulated with a stable chunked log-sum-exp."""
    p = _check_budget(model, l, budget)
    acc = -np.inf
    for ids in _payload_chunks(model.vocab.payload_ids, p, model.vocab.bos, model.vocab.eos):
        scores = model.reference.log_q_batch(ids) + model.potential.phi_batch(ids)
        acc = np.logaddexp(acc, logsumexp(scores))
    return float(acc)


def exact_zeta(model: TrfModel, lengths=None, budget: int = DEFAULT_ENUM_BUDGET) -> dict[int, float]:
    """True log-normalizers for every requested (default: supported) length."""
    if lengths is None:
        lengths = model.supported_lengths
    return {int(l): exact_log_z(model, int(l), budget) for l in lengths}


def total_mass(model: TrfModel, budget: int = DEFAULT_ENUM_BUDGET) -> float:
    """Total probability over the enumerated trans-dimensional space under the
    stored zeta; equals 1 when zeta matches exact_log_z."""
    total = 0.0
    for l in model.supported_lengths:
        p = _check_budget(model, l, budget)
        for ids in _payload_chunks(model.vocab.payload_ids, p, model.vocab.bos, model.vocab.eos):
            total += float(np.exp(log_joint_batch(model, ids)).sum())
    return total


def nll(model: TrfModel, dataset, zeta_source: str = "stored",
        budget: int = DEFAULT_ENUM_BUDGET) -> float:
    """Mean negative log-likelihood; zeta_source is "stored" or "exact"."""
    if not dataset:
        raise ValueError("empty dataset")
    if zeta_source not in ("stored", "exact"):
        raise ValueError(f"unknown zeta source: {zeta_source!r}")
    zeta = np.array(model.zeta)
    lengths = sorted(group_by_length(dataset))
    bad = [l for l in lengths if model.length_prior.prob(l) == 0.0]
    if bad:
        warnings.warn(f"lengths with zero prior probability in dataset: {bad}; "
                      "their NLL is infinite")
    if zeta_source == "exact":
        for l, z in exact_zeta(model, [l for l in lengths if l not in bad], budget).items():
            zeta[l - 1] = z
    shadow = TrfModel(model.potential, zeta, model.length_prior, model.reference, model.vocab)
    total = 0.0
    for l, idx in group_by_length(dataset).items():
        if l in bad:
            return float(np.inf)
        lp = log_joint_batch(shadow, stack_ids([dataset[i] for i in idx]))
        total += float(-lp.sum())
    return total / len(dataset)


def zeta_gap(model: TrfModel, budget: int = DEFAULT_ENUM_BUDGET) -> tuple[dict[int, float], float]:
    """Per-length zeta - zeta* over supported lengths, and the squared norm."""
    gaps = {l: float(model.zeta[l - 1]) - z
            for l, z in exact_zeta(model, None, budget).items()}
    return gaps, float(sum(g * g for g in gaps.values()))
