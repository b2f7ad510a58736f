"""Finite-difference verification of the hand-written backward passes.

Central differences with h = STEP: g_num = (f(x+h) - f(x-h)) / 2h per
coordinate. Relative error per coordinate is |g - g_num| / max(|g|, |g_num|,
FLOOR): below the floor the check degrades to absolute agreement within
tolerance*FLOOR (~1e-11), still well above the ~5e-12 round-off noise of
central differences on O(1) objectives, so a wrong term at any detectable
magnitude fails. The suite checks the potential's gradient directly and the
training objective's gradient for both parameter groups on a spread of seeded
random instances.

KINK_MARGIN, FLOOR and the thresholds (1e-5 for theta, 1e-6 for zeta) were
calibrated at STEP = 1e-4, so the step is a constant: over seeds 0-19 correct
code passes every check at steps of 1e-4 and 2e-4, and fails some at 1e-2,
1e-3, 5e-5 and below.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LengthPrior, Sequence, Vocabulary, length_buckets
from .nce import nce_gradients, nce_objective
from .ngram import train_ngram
from .noise import NoiseDistribution, draw_noise_batch
from .seqnet.potential import (NeuralPotential, PotentialConfig,
                               init_potential_params, potential_backward_batch,
                               potential_phi_batch)
from .trf import TrfModel, UniformReference
from .util import derive_rng

STEP = 1e-4          # central-difference step
FLOOR = 1e-6         # relative errors are taken against at least this magnitude
KINK_MARGIN = 2e-3   # min |conv preactivation| for a finite-difference-safe instance


def numeric_grad_tensors(f, tensors: dict[str, np.ndarray]) -> dict:
    """Central-difference gradient of scalar f() w.r.t. every tensor entry;
    f reads the tensors live, so they are perturbed in place and restored."""
    grads = {k: np.zeros_like(v) for k, v in tensors.items()}
    for name, arr in tensors.items():
        flat = arr.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + STEP
            up = f()
            flat[i] = keep - STEP
            down = f()
            flat[i] = keep
            grads[name].reshape(-1)[i] = (up - down) / (2.0 * STEP)
    return grads


def relative_errors(analytic: dict, numeric: dict) -> dict[str, float]:
    out = {}
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), FLOOR)
        out[name] = float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
    return out


@dataclass
class GradCheckReport:
    label: str
    worst_tensor: str
    max_rel_error: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.threshold


def _min_conv_preactivation(params, seqs) -> float:
    """Smallest |ReLU preactivation| over all conv layers and sequences."""
    worst = np.inf
    for _, ids in length_buckets(seqs):
        _, cache = potential_phi_batch(params, ids)
        for _, pre in cache["conv"]:
            worst = min(worst, float(np.abs(pre).min()))
    return worst


def _random_instance(seed: int):
    """A small random model + data/noise batch with varied architecture.

    Central differences are invalid across a ReLU kink, so instances whose
    conv preactivations come within KINK_MARGIN of zero are re-drawn (the
    margin is ~20x the largest preactivation shift a single +-STEP parameter
    probe can cause here).
    """
    for attempt in range(100):
        rng = derive_rng(seed, "gradcheck", attempt)
        v = int(rng.integers(5, 7))
        use_cnn = bool(rng.integers(0, 2))
        cfg = PotentialConfig(
            vocab_size=v,
            emb_dim=int(rng.integers(3, 5)),
            bank_width=int(rng.integers(2, 4)) if use_cnn else 0,
            bank_channels=int(rng.integers(2, 4)) if use_cnn else 0,
            stack_layers=int(rng.integers(1, 3)) if use_cnn else 0,
            hidden_dim=int(rng.integers(3, 7)),
        )
        params = init_potential_params(cfg, rng)
        vocab = Vocabulary(("<s>", "</s>", "<unk>")
                           + tuple(chr(ord("a") + i) for i in range(v - 3)))
        m = 5
        payload = list(vocab.payload_ids)

        def random_seq(l):
            body = [int(rng.choice(payload)) for _ in range(l - 2)]
            return Sequence((vocab.bos, *body, vocab.eos))

        data = [random_seq(int(rng.integers(2, m + 1))) for _ in range(3)]
        pi = np.zeros(m)
        for s in data:
            pi[len(s) - 1] += 1
        pi /= pi.sum()
        prior = LengthPrior(pi)
        base = train_ngram(data, order=2, vocab=vocab)
        nd = NoiseDistribution(prior, base)
        zeta = rng.uniform(-0.5, 0.5, m)
        model = TrfModel(NeuralPotential(params), zeta, prior,
                         UniformReference(len(payload)), vocab)
        noise = draw_noise_batch(nd, len(data), nu=2, rng=rng)
        probe = random_seq(4)
        if not use_cnn or _min_conv_preactivation(
                params, list(data) + list(noise.sequences) + [probe]) > KINK_MARGIN:
            return model, nd, data, noise, probe
    raise RuntimeError(f"no finite-difference-safe instance found for seed {seed}")


def _worst(errs: dict[str, float], label: str, threshold: float) -> GradCheckReport:
    worst = max(errs, key=errs.get)
    return GradCheckReport(label, worst, errs[worst], threshold)


def check_seed(seed: int) -> tuple[GradCheckReport, GradCheckReport, GradCheckReport]:
    """The phi/theta, J/theta and J/zeta reports of one random instance:
    d phi / d theta through the batch API with N = 1, and the NCE objective's
    gradients for both parameter groups, each against central differences."""
    model, nd, data, noise, seq = _random_instance(seed)
    params = model.potential.params
    ids = np.array([seq.ids], dtype=np.int64)
    scale = 1.7   # exercise the upstream-scale path, not just scale 1
    _, cache = potential_phi_batch(params, ids)
    analytic = params.views(potential_backward_batch(params, cache, np.array([scale])))
    numeric = numeric_grad_tensors(
        lambda: scale * float(potential_phi_batch(params, ids)[0][0]), params.tensors)
    phi = _worst(relative_errors(analytic, numeric), f"phi/theta seed={seed}", 1e-5)

    def objective():
        return nce_objective(model, nd, data, noise)

    g_theta, g_zeta, _ = nce_gradients(model, nd, data, noise)
    numeric = numeric_grad_tensors(objective, params.tensors)
    theta = _worst(relative_errors(params.views(g_theta), numeric), f"J/theta seed={seed}", 1e-5)
    numeric = numeric_grad_tensors(objective, {"zeta": model.zeta})
    zeta = _worst(relative_errors({"zeta": g_zeta}, numeric), f"J/zeta seed={seed}", 1e-6)
    return phi, theta, zeta


def run_suite(seeds=range(20)) -> list[GradCheckReport]:
    return [report for seed in seeds for report in check_seed(seed)]
