"""Trans-dimensional noise distribution and batched noise generation.

Noise factorizes as p_n(l, x^l) = pi_l * p_n(x^l): a length drawn from the
empirical length prior, then a payload from the fixed-length restriction of an
n-gram model. Training draws each batch inline from one seeded generator, so a
seed fixes every batch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LengthPrior, Sequence
from .ngram import NGramModel, logprob_fixed_length, sample_fixed_length


@dataclass(frozen=True)
class NoiseDistribution:
    length_prior: LengthPrior
    base: NGramModel

    @property
    def order(self) -> int:
        return self.base.order


def noise_logprob(nd: NoiseDistribution, x: Sequence) -> float:
    """log p_n(l, x^l); -inf exactly when the length has zero prior mass."""
    lp_len = nd.length_prior.log_prob(len(x))
    if lp_len == -np.inf:
        return -np.inf
    return lp_len + logprob_fixed_length(nd.base, x)


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
    draws = [sample_fixed_length(nd.base, int(l), rng) for l in lengths]
    log_pn = np.array([nd.length_prior.log_prob(len(s)) + lp for s, lp in draws])
    return NoiseBatch(tuple(s for s, _ in draws), log_pn, nu)

