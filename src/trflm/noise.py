"""Trans-dimensional noise distribution and batched noise generation.

Noise factorizes as p_n(l, x^l) = pi_l * p_n(x^l): a length drawn from the
empirical length prior, then a payload from the fixed-length restriction of an
n-gram model. Training draws each batch inline from one seeded generator, so a
seed fixes every batch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LengthPrior, Sequence, length_buckets
from .ngram import NGramModel, logprob_fixed_length, sample_fixed_length


@dataclass(frozen=True)
class NoiseDistribution:
    length_prior: LengthPrior
    base: NGramModel


def noise_logprob_batch(nd: NoiseDistribution, seqs) -> np.ndarray:
    """log p_n(l, x^l) of each sequence, one walk per length bucket; -inf
    exactly where the length has zero prior mass, and such a bucket is never
    walked."""
    out = np.empty(len(seqs))
    for idx, ids in length_buckets(seqs):
        lp_len = nd.length_prior.log_prob(ids.shape[1])
        out[idx] = lp_len if lp_len == -np.inf else lp_len + logprob_fixed_length(nd.base, ids)
    return out


def noise_logprob(nd: NoiseDistribution, x: Sequence) -> float:
    """log p_n(l, x^l) of one sequence."""
    return float(noise_logprob_batch(nd, [x])[0])


@dataclass(frozen=True)
class NoiseBatch:
    sequences: tuple[Sequence, ...]
    log_pn: np.ndarray
    nu: int


def draw_noise_batch(nd: NoiseDistribution, data_batch_size: int, nu: int,
                     rng: np.random.Generator) -> NoiseBatch:
    """nu noise sequences per data sequence; lengths i.i.d. from the prior,
    payloads from the fixed-length sampler, densities recorded at draw time."""
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    n = data_batch_size * nu
    lengths = rng.choice(nd.length_prior.m, size=n, p=nd.length_prior.probs) + 1
    if (lengths < 2).any():
        raise ValueError("minimum sequence length is 2 ([begin, end]), got 1")
    # one uniform per payload symbol, row after row: row i's end just before ends[i]
    u = rng.random(int((lengths - 2).sum()))
    ends = np.cumsum(lengths - 2)
    seqs, log_pn = [None] * n, np.empty(n)
    for l in sorted(set(lengths.tolist())):   # np.unique imports numpy.ma: +1 MB of RSS
        idx = np.flatnonzero(lengths == l)
        ids, lp = sample_fixed_length(nd.base, u[ends[idx, None] + np.arange(2 - l, 0)])
        log_pn[idx] = nd.length_prior.log_prob(l) + lp
        for i, row in zip(idx, ids.tolist()):
            seqs[i] = Sequence(tuple(row))
    return NoiseBatch(tuple(seqs), log_pn, nu)
