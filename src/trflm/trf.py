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
against; with_exact_zeta is the one model normalized by it. _length_space is
the one enumerator: each chunk is scored by log_q_batch plus phi, and phi
comes from one prefix-tree scan of the whole space when the potential has no
convolutions and the space has at most _TREE_ROWS rows (potential_phi_space),
from phi_batch otherwise. total_mass always scores through phi_batch, so
checking it against exact_log_z checks the tree scan against an independent
path.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .corpus import LengthPrior, Sequence, Vocabulary, length_buckets
from . import ngram as ngram_mod
from .seqnet import NeuralPotential, Params, lstmlm
from .seqnet.potential import potential_phi_space
from .util import logsumexp

DEFAULT_ENUM_BUDGET = 10_000_000
# Rows per enumeration chunk, chosen by timing exact_zeta at 256 to 8192 rows:
# one chunk's working set in the potential then stays near a core's L2 cache.
_CHUNK_ROWS = 512
# The largest length space, in rows, that potential_phi_space scores at once;
# it holds the whole space, so larger ones stream through phi_batch. Under
# tracemalloc at the pilot's width 16, spaces of up to 2^15 rows over 4 to 32
# payload symbols peaked at 5.9-9.6 MB (42 MB over 2 symbols, whose tree has
# as many inner nodes as leaves), and 2^16 rows over 16 symbols at 11.3 MB.
_TREE_ROWS = 2 ** 15


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
        return ngram_mod.logprob_fixed_length(self.model, ids)


class LstmReference:
    """LSTM LM reference: normalized jointly over lengths <= its max_len. In
    _length_space's order each run of P rows at max_len shares one LM pass."""

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


def _length_space(model: TrfModel, l: int, budget: int):
    """(<= _CHUNK_ROWS, l) id matrices covering the length-l space, payloads
    in lexicographic order of the sorted payload ids: row k spells k in mixed
    radix over the payload alphabet, the last payload position varying
    fastest. Larger chunks run no faster per row, since their intermediates
    spill out of cache, and hold more memory. The length and budget are
    checked when it is called, before the first chunk is asked for."""
    p = l - 2
    if p < 0:
        raise ValueError(f"no sequences of length {l} exist (minimum is 2)")
    if l > model.max_len:
        raise ValueError(f"length {l} is past the model's lengths 2..{model.max_len}")
    payload = _payload(model)
    count = len(payload) ** p
    if count > budget:
        raise ValueError(f"enumerating length {l} needs {count} sequences, "
                         f"over the budget of {budget}")
    return (_spell(model.vocab, payload, l, start, min(start + _CHUNK_ROWS, count))
            for start in range(0, count, _CHUNK_ROWS))


def _payload(model: TrfModel) -> np.ndarray:
    return np.array(sorted(model.vocab.payload_ids), dtype=np.int64)


def _spell(vocab: Vocabulary, payload: np.ndarray, l: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the lexicographic length-l space."""
    k = np.arange(start, stop, dtype=np.int64)
    ids = np.empty((k.size, l), dtype=np.int64)
    ids[:, 0] = vocab.bos
    ids[:, -1] = vocab.eos
    for col in range(l - 2, 0, -1):
        k, digit = np.divmod(k, payload.size)
        ids[:, col] = payload[digit]
    return ids


def _space_phi(model: TrfModel, l: int):
    """phi over the whole length-l space in _length_space's order, from one
    prefix-tree scan per LSTM direction, when the potential has no
    convolutions and the space has at most _TREE_ROWS rows; otherwise None,
    and the rows go through phi_batch."""
    pot = model.potential
    if not isinstance(pot, NeuralPotential) or pot.config.bank_width or pot.config.stack_layers:
        return None
    payload = _payload(model)
    if len(payload) ** (l - 2) > _TREE_ROWS:
        return None
    return potential_phi_space(pot.params, payload, model.vocab.bos,
                               model.vocab.eos, l, _CHUNK_ROWS)


def exact_log_z(model: TrfModel, l: int, budget: int = DEFAULT_ENUM_BUDGET) -> float:
    """Brute-force log Z_l = log sum over the full length-l space of
    q(x) * e^phi(x), accumulated with a stable chunked log-sum-exp."""
    chunks = _length_space(model, l, budget)
    phi = _space_phi(model, l)
    acc, start = -np.inf, 0
    for ids in chunks:
        stop = start + len(ids)
        part = model.potential.phi_batch(ids) if phi is None else phi[start:stop]
        acc = np.logaddexp(acc, logsumexp(model.reference.log_q_batch(ids) + part))
        start = stop
    return float(acc)


def exact_zeta(model: TrfModel, lengths=None, budget: int = DEFAULT_ENUM_BUDGET) -> dict[int, float]:
    """True log-normalizers for every requested (default: supported) length,
    each distinct length enumerated once."""
    if lengths is None:
        lengths = model.supported_lengths
    return {l: exact_log_z(model, l, budget) for l in dict.fromkeys(int(l) for l in lengths)}


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
