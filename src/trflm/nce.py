"""Noise-contrastive estimation of the random field parameters.

Training discriminates data sequences from noise sequences: with nu noise
draws per data sequence, the posterior that a sequence came from the data is

    P(C=0 | l, x^l) = p(l,x^l) / (p(l,x^l) + nu * p_n(l,x^l))
                    = sigmoid(log p - log nu - log p_n)

and the objective (maximized) is

    J = 1/|D| sum_D log P(C=0) + nu/|B| sum_B log(1 - P(C=0)),   |B| = nu |D|.

Both potential weights and the per-length log-normalizers zeta receive
ordinary gradient updates. With per-sequence classification weights
w_data = (1-P0)/|D| and w_noise = -P0/|D|,

    dJ/dtheta  = sum_D w_data dphi/dtheta + sum_B w_noise dphi/dtheta
    dJ/dzeta_j = -sum_{D, l=j} w_data     - sum_{B, l=j} w_noise.

|D| is the mini-batch data count. Ascent on J is run as descent on -J.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import length_buckets
from .noise import NoiseBatch, NoiseDistribution, draw_noise_batch, noise_logprob_batch
from .seqnet.potential import potential_backward_batch, potential_phi_batch
from .trf import TrfModel, log_joint_batch, nll as trf_nll, with_exact_zeta, zeta_gap
from .util import derive_rng, log_sigmoid


@dataclass(frozen=True)
class NceConfig:
    """The one training recipe: Adam on theta and on zeta, each at its fixed rate."""
    nu: int = 10
    batch_size: int = 10
    epochs: int = 20
    lr_theta: float = 1e-3
    lr_zeta: float = 1e-2
    seed: int = 0                      # two runs with one seed are bit-identical

    def __post_init__(self):
        for name in ("nu", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("lr_theta", "lr_zeta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class NceStepStats:
    j: float
    mean_post_data: float
    mean_post_noise: float
    grad_norm_theta: float
    grad_norm_zeta: float


def classification_weights(p0, data_count: int):
    """Per-sequence gradient weights: (1-P0)/|D| for data, -P0/|D| for noise."""
    p0 = np.asarray(p0, dtype=np.float64)
    return (1.0 - p0) / data_count, -p0 / data_count


def _score(model: TrfModel, nd: NoiseDistribution, data_batch,
           noise_batch: NoiseBatch, forward, data_log_pn=None):
    """Log-odds log p - log nu - log p_n of the data rows then the noise rows,
    and (length, row indices, cache) per length bucket. Data and noise rows of
    one length share one forward(ids) -> (phi, cache) call. data_log_pn, when
    given, is log p_n of the data rows, computed once by the caller."""
    nu = noise_batch.nu
    if len(noise_batch.sequences) != nu * len(data_batch):
        raise ValueError("noise batch size must be nu * data batch size")
    if data_log_pn is None:
        data_log_pn = noise_logprob_batch(nd, data_batch)
    seqs = list(data_batch) + list(noise_batch.sequences)
    log_pn = np.concatenate([data_log_pn, noise_batch.log_pn])
    log_p = np.empty(len(seqs))
    buckets = []
    for idx, ids in length_buckets(seqs):
        phi, cache = forward(ids)
        log_p[idx] = log_joint_batch(model, ids, phi)
        buckets.append((ids.shape[1], idx, cache))
    return log_p - np.log(nu) - log_pn, buckets


def _objective(delta: np.ndarray, data_count: int, nu: int) -> float:
    return float(np.mean(log_sigmoid(delta[:data_count]))
                 + nu * np.mean(log_sigmoid(-delta[data_count:])))


def nce_objective(model: TrfModel, nd: NoiseDistribution, data_batch,
                  noise_batch: NoiseBatch, data_log_pn=None) -> float:
    """J of the batch; data_log_pn optionally holds log p_n of the data rows."""
    delta, _ = _score(model, nd, data_batch, noise_batch,
                      lambda ids: (model.potential.phi_batch(ids), None), data_log_pn)
    return _objective(delta, len(data_batch), noise_batch.nu)


def nce_gradients(model: TrfModel, nd: NoiseDistribution, data_batch,
                  noise_batch: NoiseBatch, data_log_pn=None):
    """Ascent gradients of J for theta and zeta, plus step statistics. Each
    length bucket is forwarded once; its cache serves the backward pass.
    data_log_pn optionally holds log p_n of the data rows."""
    params = model.potential.params
    delta, buckets = _score(model, nd, data_batch, noise_batch,
                            lambda ids: potential_phi_batch(params, ids), data_log_pn)
    n = len(data_batch)
    p0 = np.exp(log_sigmoid(delta))
    w_d, w_n = classification_weights(p0, n)
    scales = np.concatenate([w_d[:n], w_n[n:]])

    grad_theta = np.zeros_like(params.flat)
    grad_zeta = np.zeros_like(model.zeta)
    for l, idx, cache in buckets:
        grad_theta += potential_backward_batch(params, cache, scales[idx])
        grad_zeta[l - 1] -= float(scales[idx].sum())

    stats = NceStepStats(
        j=_objective(delta, n, noise_batch.nu),
        mean_post_data=float(p0[:n].mean()),
        mean_post_noise=float(p0[n:].mean()),
        grad_norm_theta=float(np.sqrt(sum(float((g ** 2).sum())
                                          for g in params.views(grad_theta).values()))),
        grad_norm_zeta=float(np.sqrt((grad_zeta ** 2).sum())),
    )
    return grad_theta, grad_zeta, stats


class Adam:
    """Adam over a vector of `size` entries: step(x, g, lr) moves x against g in place."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, size: int):
        self.m, self.v, self.t = np.zeros(size), np.zeros(size), 0

    def step(self, x, g, lr):
        self.t += 1
        b1, b2, m, v = self.beta1, self.beta2, self.m, self.v
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        mhat = m / (1 - b1 ** self.t)
        vhat = v / (1 - b2 ** self.t)
        x -= lr * mhat / (np.sqrt(vhat) + self.eps)


class Diverged(RuntimeError):
    """A training step produced a non-finite gradient."""


@dataclass
class EpochRecord:
    epoch: int
    train_nll: float
    valid_nll: float | None
    zeta_gap_sq: float | None
    zeta_gaps: dict[int, float] | None   # {l: zeta_l - log Z_l}


@dataclass
class TrainResult:
    steps: list[tuple[int, NceStepStats]] = field(default_factory=list)   # (epoch, stats)
    epochs: list[EpochRecord] = field(default_factory=list)


def train(model: TrfModel, nd: NoiseDistribution, dataset, config: NceConfig,
          valid=None, oracle_metrics: bool = False) -> TrainResult:
    """Run the NCE loop from the model's current weights and zeta, updating
    them in place: shuffled mini-batches, one Adam per parameter group, and
    the per-step stats and per-epoch NLL / zeta-gap records (the latter via
    the oracle when oracle_metrics is set)."""
    if not dataset:
        raise ValueError("empty dataset")
    frozen = model.length_prior.probs == 0   # zeta of a zero-prior length never moves
    data_log_pn = noise_logprob_batch(nd, dataset)   # once: data are fixed
    shuffle_rng = derive_rng(config.seed, "shuffle")
    noise_rng = derive_rng(config.seed, "noise")
    opt_theta, opt_zeta = Adam(model.potential.params.flat.size), Adam(model.zeta.size)

    result = TrainResult()
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(dataset))
        for start in range(0, len(dataset), config.batch_size):
            rows = order[start:start + config.batch_size]
            data_batch = [dataset[i] for i in rows]
            noise_batch = draw_noise_batch(nd, len(rows), config.nu, noise_rng)
            # a diverging run overflows inside the passes; it is reported below
            with np.errstate(over="ignore", invalid="ignore"):
                g_theta, g_zeta, stats = nce_gradients(model, nd, data_batch, noise_batch,
                                                       data_log_pn[rows])
            if not (np.isfinite(g_theta).all() and np.isfinite(g_zeta).all()):
                name = next(name for name, g in [*model.potential.params.views(g_theta).items(),
                                                 ("zeta", g_zeta)] if not np.isfinite(g).all())
                raise Diverged(f"training diverged: non-finite gradient in {name!r} "
                               f"at step {len(result.steps)}")
            g_zeta[frozen] = 0.0
            # maximize J: descend on -J
            opt_theta.step(model.potential.params.flat, -g_theta, config.lr_theta)
            opt_zeta.step(model.zeta, -g_zeta, config.lr_zeta)
            result.steps.append((epoch, stats))
        train_nll = trf_nll(model, dataset)
        valid_nll = gap_sq = gaps = None
        if oracle_metrics:
            exact = with_exact_zeta(model)   # one enumeration per epoch
            gaps, gap_sq = zeta_gap(model, exact)
            valid_nll = trf_nll(exact, valid) if valid else None
        result.epochs.append(EpochRecord(epoch, train_nll, valid_nll, gap_sq, gaps))
    return result
