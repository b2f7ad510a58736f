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

from .corpus import group_by_length, stack_ids
from .noise import NoiseBatch, NoiseDistribution, draw_noise_batch, noise_logprob
from .seqnet.potential import potential_backward_batch, potential_phi_batch
from .trf import TrfModel, exact_zeta, log_joint_batch, nll as trf_nll
from .util import derive_rng, fmt, log_sigmoid


@dataclass(frozen=True)
class NceConfig:
    nu: int = 10
    batch_size: int = 10
    epochs: int = 20
    lr_theta: float = 1e-3
    lr_zeta: float = 1e-2
    optimizer_theta: str = "adam"
    optimizer_zeta: str = "adam"
    schedule: str = "fixed"            # or "halve-each-epoch"
    seed: int = 0                      # two runs with one seed are bit-identical

    def __post_init__(self):
        if self.nu < 1:
            raise ValueError("nu must be >= 1")
        if self.lr_theta <= 0 or self.lr_zeta <= 0:
            raise ValueError("learning rates must be positive")
        if self.schedule not in ("fixed", "halve-each-epoch"):
            raise ValueError(f"unknown schedule: {self.schedule!r}")

    def lr_at(self, epoch: int) -> tuple[float, float]:
        scale = 0.5 ** epoch if self.schedule == "halve-each-epoch" else 1.0
        return self.lr_theta * scale, self.lr_zeta * scale


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
        data_log_pn = [noise_logprob(nd, s) for s in data_batch]
    seqs = list(data_batch) + list(noise_batch.sequences)
    log_pn = np.concatenate([data_log_pn, noise_batch.log_pn])
    log_p = np.empty(len(seqs))
    buckets = []
    for l, idx in group_by_length(seqs).items():
        ids = stack_ids([seqs[i] for i in idx])
        phi, cache = forward(ids)
        log_p[idx] = log_joint_batch(model, ids, phi)
        buckets.append((l, idx, cache))
    return log_p - np.log(nu) - log_pn, buckets


def _objective(delta: np.ndarray, data_count: int, nu: int) -> float:
    return float(np.mean(log_sigmoid(delta[:data_count]))
                 + nu * np.mean(log_sigmoid(-delta[data_count:])))


def nce_objective(model: TrfModel, nd: NoiseDistribution, data_batch,
                  noise_batch: NoiseBatch) -> float:
    delta, _ = _score(model, nd, data_batch, noise_batch,
                      lambda ids: (model.potential.phi_batch(ids), None))
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

    grad_theta = params.zeros_like()
    grad_zeta = np.zeros_like(model.zeta)
    for l, idx, cache in buckets:
        g = potential_backward_batch(params, cache, scales[idx])
        for k in grad_theta:
            grad_theta[k] += g[k]
        grad_zeta[l - 1] -= float(scales[idx].sum())

    stats = NceStepStats(
        j=_objective(delta, n, noise_batch.nu),
        mean_post_data=float(p0[:n].mean()),
        mean_post_noise=float(p0[n:].mean()),
        grad_norm_theta=float(np.sqrt(sum(float((g ** 2).sum()) for g in grad_theta.values()))),
        grad_norm_zeta=float(np.sqrt((grad_zeta ** 2).sum())),
    )
    return grad_theta, grad_zeta, stats


class Sgd:
    def step(self, tensors, grads, lr):
        for k, g in grads.items():
            tensors[k] -= lr * g


class Adam:
    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m: dict = {}
        self.v: dict = {}
        self.t = 0

    def step(self, tensors, grads, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for k, g in grads.items():
            m = self.m.setdefault(k, np.zeros_like(g))
            v = self.v.setdefault(k, np.zeros_like(g))
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            tensors[k] -= lr * mhat / (np.sqrt(vhat) + self.eps)


def make_optimizer(name: str):
    if name == "sgd":
        return Sgd()
    if name == "adam":
        return Adam()
    raise ValueError(f"unknown optimizer: {name!r}")


@dataclass
class EpochRecord:
    epoch: int
    lr_theta: float
    lr_zeta: float
    train_nll: float
    valid_nll: float | None
    zeta_gap_sq: float | None
    zeta_gaps: dict[int, float] | None   # {l: zeta_l - log Z_l}


@dataclass
class TrainResult:
    model: TrfModel
    epochs: list[EpochRecord] = field(default_factory=list)
    steps: int = 0


def _batch_sizes(n: int, batch_size: int) -> list[int]:
    sizes = [batch_size] * (n // batch_size)
    if n % batch_size:
        sizes.append(n % batch_size)
    return sizes


def train(model: TrfModel, nd: NoiseDistribution, dataset, config: NceConfig,
          valid=None, oracle_metrics: bool = False, oracle_budget: int = 10_000_000,
          step_log=None, epoch_log=None) -> TrainResult:
    """Run the NCE loop from the model's current weights and zeta: shuffled
    mini-batches, one optimizer per parameter group, per-step stats and
    per-epoch NLL / zeta-gap metrics (the latter via the oracle when oracle_metrics is set).

    step_log / epoch_log are writable text handles for the CSV metrics.
    """
    if not dataset:
        raise ValueError("empty dataset")
    supported = np.zeros(model.max_len, dtype=bool)
    for l in model.supported_lengths:
        supported[l - 1] = True

    data_log_pn = np.array([noise_logprob(nd, x) for x in dataset])   # once: data are fixed
    shuffle_rng = derive_rng(config.seed, "shuffle")
    noise_rng = derive_rng(config.seed, "noise")
    sizes = _batch_sizes(len(dataset), config.batch_size)

    opt_theta = make_optimizer(config.optimizer_theta)
    opt_zeta = make_optimizer(config.optimizer_zeta)

    if step_log:
        step_log.write("step,epoch,j,post_data,post_noise,grad_norm_theta,grad_norm_zeta\n")
    if epoch_log:
        epoch_log.write("epoch,lr_theta,lr_zeta,train_nll,valid_nll,zeta_gap_sq\n")

    result = TrainResult(model)
    step = 0
    for epoch in range(config.epochs):
        lr_t, lr_z = config.lr_at(epoch)
        order = shuffle_rng.permutation(len(dataset))
        pos = 0
        for bsz in sizes:
            rows = order[pos:pos + bsz]
            data_batch = [dataset[i] for i in rows]
            pos += bsz
            noise_batch = draw_noise_batch(nd, bsz, config.nu, noise_rng)
            g_theta, g_zeta, stats = nce_gradients(model, nd, data_batch, noise_batch,
                                                   data_log_pn[rows])
            for name, g in g_theta.items():
                if not np.all(np.isfinite(g)):
                    raise RuntimeError(f"non-finite gradient in {name!r} at step {step}")
            if not np.all(np.isfinite(g_zeta)):
                raise RuntimeError(f"non-finite gradient in zeta at step {step}")
            g_zeta[~supported] = 0.0    # frozen lengths
            # maximize J: descend on -J
            opt_theta.step(model.potential.params.tensors,
                           {k: -g for k, g in g_theta.items()}, lr_t)
            opt_zeta.step({"zeta": model.zeta}, {"zeta": -g_zeta}, lr_z)
            if step_log:
                step_log.write(f"{step},{epoch},{fmt(stats.j)},{fmt(stats.mean_post_data)},"
                               f"{fmt(stats.mean_post_noise)},{fmt(stats.grad_norm_theta)},"
                               f"{fmt(stats.grad_norm_zeta)}\n")
            step += 1
        train_nll = trf_nll(model, dataset, "stored")
        valid_nll = gap_sq = gaps = None
        if oracle_metrics:
            zs = exact_zeta(model, None, oracle_budget)   # one enumeration per epoch
            gaps = {l: float(model.zeta[l - 1]) - z for l, z in zs.items()}
            gap_sq = float(sum(g ** 2 for g in gaps.values()))
            if valid:
                true_zeta = np.array(model.zeta)
                for l, z in zs.items():
                    true_zeta[l - 1] = z
                shadow = TrfModel(model.potential, true_zeta, model.length_prior,
                                  model.reference, model.vocab)
                valid_nll = trf_nll(shadow, valid, "stored")
        record = EpochRecord(epoch, lr_t, lr_z, train_nll, valid_nll, gap_sq, gaps)
        result.epochs.append(record)
        if epoch_log:
            epoch_log.write(f"{epoch},{fmt(lr_t)},{fmt(lr_z)},{fmt(train_nll)},"
                            f"{'' if valid_nll is None else fmt(valid_nll)},"
                            f"{'' if gap_sq is None else fmt(gap_sq)}\n")
    result.steps = step
    return result
