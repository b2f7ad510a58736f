import io
import math

import numpy as np
import pytest

from conftest import TabularPotential
from trflm.corpus import LengthPrior, Sequence, Vocabulary, encode
from trflm.nce import (Adam, NceConfig, Sgd, classification_weights,
                       nce_gradients, nce_objective, train)
from trflm.ngram import train_ngram
from trflm.noise import NoiseBatch, NoiseDistribution, draw_noise_batch, noise_logprob
from trflm.seqnet import NeuralPotential, PotentialConfig, init_potential_params
from trflm.trf import NgramReference, TrfModel, UniformReference, log_joint, zeta_init_vector


@pytest.fixture
def setting(tiny_vocab):
    """Noise + matching-support prior over a two-payload-symbol alphabet."""
    data = [encode(w, tiny_vocab, level="char") for w in ("a", "b", "ab", "ba", "aa")]
    pi = LengthPrior(np.array([0.0, 0.0, 0.6, 0.4]))
    base = train_ngram([s for s in data if len(s) > 2], 2, tiny_vocab)
    return tiny_vocab, LengthPrior(pi.probs), NoiseDistribution(pi, base), data


def posterior_model(setting, x, log_p):
    """A neural model whose log p(x) is log_p, set through zeta."""
    vocab, pi, _, _ = setting
    params = init_potential_params(PotentialConfig(vocab_size=vocab.size, emb_dim=3,
                                                   hidden_dim=3), 9)
    model = TrfModel(NeuralPotential(params), np.zeros(4), pi, UniformReference(3), vocab)
    model.zeta[len(x) - 1] = log_joint(model, x) - log_p
    return model


def data_posterior(model, nd, x, nu):
    """P(C=0 | l, x^l) of the one-row data batch [x], from the step statistics."""
    noise = NoiseBatch((x,) * nu, np.full(nu, noise_logprob(nd, x)), nu)
    return nce_gradients(model, nd, [x], noise)[2].mean_post_data


def test_posterior_symmetry_point(setting):
    vocab, _, nd, _ = setting
    x = Sequence((vocab.bos, vocab.id_of("a"), vocab.eos))
    nu = 7
    # p == nu * p_n exactly
    model = posterior_model(setting, x, math.log(nu) + noise_logprob(nd, x))
    assert data_posterior(model, nd, x, nu) == pytest.approx(0.5, abs=1e-12)


def test_posterior_direct_substitution(setting):
    # p = 20 * p_n with nu = 10 gives p/(p + 10 p_n) = 2/3
    vocab, _, nd, _ = setting
    x = Sequence((vocab.bos, vocab.id_of("b"), vocab.eos))
    model = posterior_model(setting, x, math.log(20) + noise_logprob(nd, x))
    assert data_posterior(model, nd, x, 10) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_posterior_limits(setting):
    vocab, _, nd, _ = setting
    x = Sequence((vocab.bos, vocab.id_of("a"), vocab.eos))
    strong = posterior_model(setting, x, 500.0)
    assert data_posterior(strong, nd, x, 10) == pytest.approx(1.0, abs=1e-12)
    weak = posterior_model(setting, x, -500.0)
    assert data_posterior(weak, nd, x, 10) == pytest.approx(0.0, abs=1e-12)


def test_objective_at_model_equals_noise(setting):
    # model distribution == noise distribution and nu = 1: both posteriors are
    # 1/2 everywhere, J = log(1/2) + log(1/2)
    vocab, pi, nd, data = setting
    model = TrfModel(TabularPotential(), np.zeros(4), pi, NgramReference(nd.base), vocab)
    batch = [s for s in data if len(s) > 2][:3]
    noise = draw_noise_batch(nd, len(batch), 1, np.random.default_rng(0))
    assert nce_objective(model, nd, batch, noise) == pytest.approx(-2 * math.log(2), abs=1e-12)


def test_objective_matches_independent_evaluation(setting):
    vocab, pi, nd, data = setting
    params = init_potential_params(PotentialConfig(vocab_size=vocab.size, emb_dim=3,
                                                   hidden_dim=3), 4)
    model = TrfModel(NeuralPotential(params), np.full(4, 0.3), pi, UniformReference(3), vocab)
    batch = [s for s in data if len(s) > 2]
    nu = 3
    noise = draw_noise_batch(nd, len(batch), nu, np.random.default_rng(1))

    total = 0.0
    for s in batch:
        p, q = math.exp(log_joint(model, s)), math.exp(noise_logprob(nd, s))
        total += math.log(p / (p + nu * q)) / len(batch)
    for s, lq in zip(noise.sequences, noise.log_pn):
        p, q = math.exp(log_joint(model, s)), math.exp(lq)
        total += nu * math.log(nu * q / (p + nu * q)) / len(noise.sequences)
    assert nce_objective(model, nd, batch, noise) == pytest.approx(total, rel=1e-10)


def test_objective_nonpositive_random(setting):
    vocab, pi, nd, data = setting
    rng = np.random.default_rng(7)
    for seed in range(5):
        params = init_potential_params(PotentialConfig(vocab_size=vocab.size, emb_dim=3,
                                                       hidden_dim=3), seed)
        model = TrfModel(NeuralPotential(params), rng.normal(size=4), pi,
                         UniformReference(3), vocab)
        batch = [s for s in data if len(s) > 2]
        noise = draw_noise_batch(nd, len(batch), 2, rng)
        assert nce_objective(model, nd, batch, noise) <= 0.0


def test_objective_batch_ratio_checked(setting):
    vocab, pi, nd, data = setting
    model = TrfModel(TabularPotential(), np.zeros(4), pi, UniformReference(3), vocab)
    batch = [s for s in data if len(s) > 2]
    noise = draw_noise_batch(nd, 2, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="nu"):
        nce_objective(model, nd, batch, noise)


def test_classification_weights_direct():
    w_t, w_n = classification_weights(0.5, 10)
    assert w_t == pytest.approx(0.05) and w_n == pytest.approx(-0.05)


def test_gradient_support_only_touched_lengths(setting):
    vocab, pi, nd, data = setting
    params = init_potential_params(PotentialConfig(vocab_size=vocab.size, emb_dim=3,
                                                   hidden_dim=3), 0)
    model = TrfModel(NeuralPotential(params), np.zeros(4), pi, UniformReference(3), vocab)
    batch = [s for s in data if len(s) == 3]
    sequences = tuple(s for s in batch * 2)
    noise = NoiseBatch(sequences, np.array([noise_logprob(nd, s) for s in sequences]), 2)
    _, g_zeta, _ = nce_gradients(model, nd, batch, noise)
    assert g_zeta[0] == 0.0 and g_zeta[1] == 0.0 and g_zeta[3] == 0.0
    assert g_zeta[2] != 0.0


def neural_step_setting(setting):
    """A neural model, a data batch of lengths 3 and 4, and its noise batch."""
    vocab, pi, nd, data = setting
    params = init_potential_params(PotentialConfig(vocab_size=vocab.size, emb_dim=3,
                                                   hidden_dim=3), 5)
    model = TrfModel(NeuralPotential(params), np.full(4, 0.2), pi, UniformReference(3), vocab)
    batch = [s for s in data if len(s) > 2]
    noise = draw_noise_batch(nd, len(batch), 3, np.random.default_rng(4))
    return model, nd, batch, noise


def test_gradients_forward_each_row_once(setting, monkeypatch):
    from trflm import nce
    from trflm.seqnet import potential
    model, nd, batch, noise = neural_step_setting(setting)
    rows = []
    real = potential.potential_phi_batch

    def counted(params, ids):
        rows.append(len(ids))
        return real(params, ids)

    monkeypatch.setattr(nce, "potential_phi_batch", counted, raising=False)
    monkeypatch.setattr(potential, "potential_phi_batch", counted)
    nce_gradients(model, nd, batch, noise)
    assert sum(rows) == len(batch) + len(noise.sequences)
    assert len(rows) == len({len(s) for s in batch + list(noise.sequences)})


def test_gradients_objective_equals_nce_objective(setting):
    model, nd, batch, noise = neural_step_setting(setting)
    _, _, stats = nce_gradients(model, nd, batch, noise)
    assert stats.j == nce_objective(model, nd, batch, noise)


def test_last_epoch_gaps_match_zeta_gap(setting):
    from trflm.trf import nll, with_exact_zeta, zeta_gap
    vocab, pi, nd, data = setting
    params = init_potential_params(PotentialConfig(vocab_size=vocab.size, emb_dim=3,
                                                   hidden_dim=3), 42)
    model = TrfModel(NeuralPotential(params), zeta_init_vector("zeros", 4, vocab.size), pi,
                     UniformReference(3), vocab)
    cfg = NceConfig(nu=2, batch_size=2, epochs=2)
    train_set, valid = [s for s in data if len(s) > 2], data[1:4]   # lengths 3 and 4
    result = train(model, nd, train_set, cfg, valid=valid, oracle_metrics=True)
    exact = with_exact_zeta(model)
    gaps, gap_sq = zeta_gap(model, exact)
    assert result.epochs[-1].zeta_gaps == gaps
    assert result.epochs[-1].zeta_gap_sq == gap_sq
    assert result.epochs[-1].valid_nll == nll(exact, valid)
    assert train(model, nd, data[2:], cfg).epochs[-1].zeta_gaps is None


@pytest.mark.parametrize("seed", range(3))
def test_gradients_match_finite_differences(seed):
    from trflm.gradcheck import check_nce_theta, check_nce_zeta
    rt = check_nce_theta(seed)
    rz = check_nce_zeta(seed)
    assert rt.passed, f"{rt.worst_tensor}: {rt.max_rel_error}"
    assert rz.passed, rz.max_rel_error


def test_single_ascent_step_increases_objective(setting):
    vocab, pi, nd, data = setting
    params = init_potential_params(PotentialConfig(vocab_size=vocab.size, emb_dim=3,
                                                   hidden_dim=3), 2)
    model = TrfModel(NeuralPotential(params), np.zeros(4), pi, UniformReference(3), vocab)
    batch = [s for s in data if len(s) > 2]
    noise = draw_noise_batch(nd, len(batch), 4, np.random.default_rng(3))
    before = nce_objective(model, nd, batch, noise)
    g_theta, g_zeta, _ = nce_gradients(model, nd, batch, noise)
    lr = 1e-3
    for k, g in g_theta.items():
        model.potential.params.tensors[k] += lr * g
    model.zeta += lr * g_zeta
    assert nce_objective(model, nd, batch, noise) > before


def test_adam_matches_reference_formula():
    g = np.array([0.3, -0.2])
    x = np.array([1.0, 1.0])
    opt = Adam()
    opt.step({"x": x}, {"x": g}, lr=0.1)
    # first step: mhat = g, vhat = g^2 -> update = lr * sign-ish
    expect = 1.0 - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(x, expect, atol=1e-9)


def test_sgd_step():
    x = np.array([2.0])
    Sgd().step({"x": x}, {"x": np.array([0.5])}, lr=0.2)
    assert x[0] == pytest.approx(1.9)


def run_training(setting, seed=0, epochs=3, zeta_init="zeros"):
    vocab, pi, nd, data = setting
    params = init_potential_params(PotentialConfig(vocab_size=vocab.size, emb_dim=3,
                                                   hidden_dim=3), 42)
    model = TrfModel(NeuralPotential(params), zeta_init_vector(zeta_init, 4, vocab.size), pi,
                     UniformReference(3), vocab)
    cfg = NceConfig(nu=2, batch_size=2, epochs=epochs, seed=seed)
    steps, epochs_log = io.StringIO(), io.StringIO()
    train(model, nd, [s for s in data if len(s) > 2], cfg,
          oracle_metrics=True, step_log=steps, epoch_log=epochs_log)
    return model, steps.getvalue(), epochs_log.getvalue()


def test_training_deterministic_in_strict_mode(setting):
    m1, s1, e1 = run_training(setting)
    m2, s2, e2 = run_training(setting)
    assert s1 == s2 and e1 == e2
    assert np.array_equal(m1.zeta, m2.zeta)


def test_training_improves_objective_and_gap(setting):
    # start the normalizers far away (linear init) and watch them close in
    model, steps_csv, epochs_csv = run_training(setting, epochs=300, zeta_init="linear")
    lines = [ln.split(",") for ln in steps_csv.strip().splitlines()[1:]]
    j = [float(r[2]) for r in lines]
    assert np.mean(j[-30:]) > np.mean(j[:30])
    gaps = [float(ln.split(",")[5]) for ln in epochs_csv.strip().splitlines()[1:]]
    assert gaps[-1] < 0.25 * gaps[0]


def test_halving_schedule():
    cfg = NceConfig(schedule="halve-each-epoch", lr_theta=0.01, lr_zeta=0.01)
    assert cfg.lr_at(0) == (0.01, 0.01)
    assert cfg.lr_at(3) == (0.00125, 0.00125)
    fixed = NceConfig(schedule="fixed", lr_theta=0.01, lr_zeta=0.02)
    assert fixed.lr_at(5) == (0.01, 0.02)


def test_config_validation():
    with pytest.raises(ValueError):
        NceConfig(nu=0)
    with pytest.raises(ValueError):
        NceConfig(lr_theta=0.0)
    with pytest.raises(ValueError):
        NceConfig(schedule="warmup")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_gradient_aborts_with_diagnostic(setting):
    vocab, pi, nd, data = setting
    params = init_potential_params(PotentialConfig(vocab_size=vocab.size, emb_dim=3,
                                                   hidden_dim=3), 1)
    params.tensors["att_beta"][0] = np.inf
    model = TrfModel(NeuralPotential(params), zeta_init_vector("zeros", 4, vocab.size), pi,
                     UniformReference(3), vocab)
    cfg = NceConfig(nu=1, batch_size=2, epochs=1)
    with pytest.raises(RuntimeError, match="step 0"):
        train(model, nd, [s for s in data if len(s) > 2], cfg)


def test_training_passes_each_batch_its_data_noise_densities(setting, monkeypatch):
    # train computes log p_n of the data once and hands each step its rows
    from trflm import nce
    real = nce.nce_gradients
    seen = []

    def checked(model, nd, data_batch, noise_batch, data_log_pn=None):
        seen.append(len(data_batch))
        assert list(data_log_pn) == [noise_logprob(nd, s) for s in data_batch]
        return real(model, nd, data_batch, noise_batch, data_log_pn)

    monkeypatch.setattr(nce, "nce_gradients", checked)
    run_training(setting, epochs=2)
    assert sum(seen) == 2 * len(setting[3])   # two epochs over every data row
