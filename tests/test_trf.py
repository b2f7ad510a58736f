import itertools
import math

import numpy as np
import pytest

from conftest import TabularPotential
from trflm.corpus import LengthPrior, Sequence, Vocabulary, encode
from trflm.ngram import train_ngram
from trflm.seqnet import NeuralPotential, PotentialConfig, init_potential_params
from trflm.trf import (LstmReference, NgramReference, TrfModel,
                       UniformReference, _length_space, exact_log_z, exact_zeta,
                       log_joint, nll, total_mass, with_exact_zeta, zeta_gap,
                       zeta_init_vector)


def zeroed_neural(vocab_size=5, **kw):
    params = init_potential_params(PotentialConfig(vocab_size=vocab_size, emb_dim=3,
                                                   hidden_dim=3, **kw), 0)
    for t in params.tensors.values():
        t[...] = 0.0
    return NeuralPotential(params)


@pytest.fixture
def v4():
    # payload alphabet of exactly 2 symbols
    return Vocabulary(("<s>", "</s>", "<unk>", "a"))


def test_log_joint_direct_substitution(v4):
    # phi == 0, zeta == 0, uniform reference over 2 payload symbols,
    # all mass on the single payload-1 length
    pi = LengthPrior(np.array([0.0, 0.0, 1.0]))
    model = TrfModel(zeroed_neural(4), np.zeros(3), pi, UniformReference(2), v4)
    x = Sequence((v4.bos, v4.id_of("a"), v4.eos))
    assert log_joint(model, x) == pytest.approx(-math.log(2), abs=1e-15)


def test_log_joint_affine_in_zeta(v4):
    pi = LengthPrior(np.array([0.0, 0.5, 0.5]))
    model = TrfModel(zeroed_neural(4), np.zeros(3), pi, UniformReference(2), v4)
    x3 = Sequence((v4.bos, 3, v4.eos))
    x2 = Sequence((v4.bos, v4.eos))
    base3, base2 = log_joint(model, x3), log_joint(model, x2)
    model.zeta[2] += 0.7
    assert log_joint(model, x3) == pytest.approx(base3 - 0.7, abs=1e-12)
    assert log_joint(model, x2) == base2   # other lengths untouched


def test_log_joint_zero_prior_is_neg_inf(v4):
    pi = LengthPrior(np.array([0.0, 0.0, 1.0]))
    model = TrfModel(zeroed_neural(4), np.zeros(3), pi, UniformReference(2), v4)
    assert log_joint(model, Sequence((v4.bos, v4.eos))) == -np.inf


def test_log_joint_matches_independent_reimplementation():
    vocab = Vocabulary(("<s>", "</s>", "<unk>", "a", "b"))
    pi = LengthPrior(np.array([0, 1 / 3, 1 / 3, 1 / 3, 0.0]))
    params = init_potential_params(PotentialConfig(vocab_size=5, emb_dim=4, hidden_dim=4), 3)
    pot = NeuralPotential(params)
    rng = np.random.default_rng(0)
    zeta = rng.normal(size=5)
    ref = UniformReference(3)
    model = TrfModel(pot, zeta, pi, ref, vocab)
    for _ in range(50):
        l = int(rng.choice([2, 3, 4]))
        x = Sequence((vocab.bos, *rng.choice(vocab.payload_ids, size=l - 2).tolist(), vocab.eos))
        ids = np.array([x.ids])
        expect = math.log(pi.prob(l)) + ref.log_q_batch(ids)[0] + pot.phi_batch(ids)[0] - zeta[l - 1]
        assert log_joint(model, x) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("payload_len", range(4))
def test_length_space_matches_itertools_product(payload_len):
    # 21 payload symbols: length 5 spans two chunks (8192 + 1069 rows)
    vocab = Vocabulary(("<s>", "</s>", "<unk>") + tuple(f"w{i}" for i in range(20)))
    l = payload_len + 2
    model = TrfModel(zeroed_neural(vocab.size), np.zeros(l), LengthPrior(np.eye(l)[l - 1]),
                     UniformReference(len(vocab.payload_ids)), vocab)
    payloads = list(itertools.product(sorted(vocab.payload_ids), repeat=payload_len))
    expect = np.array([(vocab.bos, *p, vocab.eos) for p in payloads], dtype=np.int64)
    chunks = list(_length_space(model, l, budget=len(payloads)))
    assert [len(c) for c in chunks] == [len(c) for c in np.array_split(
        expect, range(8192, len(expect), 8192))]
    assert all(c.dtype == np.int64 for c in chunks)
    assert np.array_equal(np.concatenate(chunks), expect)


def test_length_space_errors(v4):
    pi = LengthPrior(np.array([0.0, 0.0, 0.0, 1.0]))
    model = TrfModel(zeroed_neural(4), np.zeros(4), pi, UniformReference(2), v4)
    with pytest.raises(ValueError, match="minimum is 2"):
        next(_length_space(model, 1, budget=10))
    with pytest.raises(ValueError, match="needs 4 sequences, over the budget of 3"):
        next(_length_space(model, 4, budget=3))


def test_exact_log_z_is_zero_for_pure_reference(v4):
    pi = LengthPrior(np.array([0.0, 0.5, 0.5]))
    model = TrfModel(zeroed_neural(4), np.zeros(3), pi, UniformReference(2), v4)
    for l in (2, 3):
        assert exact_log_z(model, l) == pytest.approx(0.0, abs=1e-12)


def test_exact_log_z_two_term_sum(v4):
    # phi(a-sequence) = log 2, phi(other) = 0: Z = 0.5*2 + 0.5*1 = 1.5
    pi = LengthPrior(np.array([0.0, 0.0, 1.0]))
    a_seq = (v4.bos, v4.id_of("a"), v4.eos)
    pot = TabularPotential({a_seq: math.log(2.0)})
    model = TrfModel(pot, np.zeros(3), pi, UniformReference(2), v4)
    assert exact_log_z(model, 3) == pytest.approx(math.log(1.5), abs=1e-12)


def test_exact_log_z_budget_error(v4):
    pi = LengthPrior(np.array([0.0, 0.0, 0.0, 1.0]))
    model = TrfModel(zeroed_neural(4), np.zeros(4), pi, UniformReference(2), v4)
    with pytest.raises(ValueError, match="4"):
        exact_log_z(model, 4, budget=3)


def test_exact_log_z_stable_at_extreme_potential(v4):
    pi = LengthPrior(np.array([0.0, 0.0, 1.0]))
    pot = zeroed_neural(4)
    pot.params.tensors["bias"][...] = 700.0   # max phi = 700
    model = TrfModel(pot, np.zeros(3), pi, UniformReference(2), v4)
    z = exact_log_z(model, 3)
    assert np.isfinite(z) and z == pytest.approx(700.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(3))
def test_total_mass_one_with_oracle_zeta(seed):
    vocab = Vocabulary(("<s>", "</s>", "<unk>", "a", "b"))
    pi = LengthPrior(np.array([0.0, 1 / 3, 1 / 3, 1 / 3]))
    params = init_potential_params(PotentialConfig(vocab_size=5, emb_dim=4, hidden_dim=5), seed)
    model = TrfModel(NeuralPotential(params), np.zeros(4), pi, UniformReference(3), vocab)
    for l, z in exact_zeta(model).items():
        model.zeta[l - 1] = z
    assert total_mass(model) == pytest.approx(1.0, abs=1e-9)


def test_zeta_shift_covariance(v4):
    pi = LengthPrior(np.array([0.0, 0.5, 0.5]))
    params = init_potential_params(PotentialConfig(vocab_size=4, emb_dim=3, hidden_dim=3), 1)
    model = TrfModel(NeuralPotential(params), np.zeros(3), pi, UniformReference(2), v4)
    for l, z in exact_zeta(model).items():
        model.zeta[l - 1] = z
    x3 = Sequence((v4.bos, 3, v4.eos))
    x2 = Sequence((v4.bos, v4.eos))
    p3, p2 = log_joint(model, x3), log_joint(model, x2)
    model.zeta[2] += 1.3
    assert log_joint(model, x3) == pytest.approx(p3 - 1.3, abs=1e-12)
    assert log_joint(model, x2) == p2
    assert total_mass(model) == pytest.approx(
        pi.prob(2) + pi.prob(3) * math.exp(-1.3), abs=1e-9)


def test_nll_pure_reference(v4):
    pi = LengthPrior(np.array([0.0, 0.25, 0.75]))
    ref = UniformReference(2)
    model = TrfModel(zeroed_neural(4), np.zeros(3), pi, ref, v4)
    data = [Sequence((v4.bos, 3, v4.eos)), Sequence((v4.bos, v4.eos)),
            Sequence((v4.bos, 2, v4.eos))]
    expect = -np.mean([math.log(pi.prob(len(x))) + ref.log_q_batch(np.array([x.ids]))[0]
                       for x in data])
    assert nll(with_exact_zeta(model), data) == pytest.approx(expect, abs=1e-12)


def test_nll_stored_equals_exact_when_synced():
    vocab = Vocabulary(("<s>", "</s>", "<unk>", "a", "b"))
    pi = LengthPrior(np.array([0.0, 0.5, 0.5]))
    params = init_potential_params(PotentialConfig(vocab_size=5, emb_dim=3, hidden_dim=4), 6)
    model = TrfModel(NeuralPotential(params), np.zeros(3), pi, UniformReference(3), vocab)
    for l, z in exact_zeta(model).items():
        model.zeta[l - 1] = z
    data = [Sequence((vocab.bos, 3, vocab.eos)), Sequence((vocab.bos, vocab.eos))]
    assert nll(model, data) == pytest.approx(nll(with_exact_zeta(model), data), abs=1e-12)


def test_nll_zero_prior_warns_and_is_infinite(v4):
    pi = LengthPrior(np.array([0.0, 0.0, 1.0]))
    model = TrfModel(zeroed_neural(4), np.zeros(3), pi, UniformReference(2), v4)
    data = [Sequence((v4.bos, v4.eos))]   # length 2 has zero prior
    with pytest.warns(UserWarning, match=r"\[2\]"):
        assert nll(model, data) == np.inf


def test_nll_errors(v4):
    pi = LengthPrior(np.array([0.0, 0.0, 1.0]))
    model = TrfModel(zeroed_neural(4), np.zeros(3), pi, UniformReference(2), v4)
    with pytest.raises(ValueError, match="empty"):
        nll(model, [])


def test_zeta_gap_zero_at_oracle_and_shift(v4):
    pi = LengthPrior(np.array([0.0, 1 / 3, 1 / 3, 1 / 3]))
    params = init_potential_params(PotentialConfig(vocab_size=4, emb_dim=3, hidden_dim=3), 2)
    model = TrfModel(NeuralPotential(params), np.zeros(4), pi, UniformReference(2), v4)
    for l, z in exact_zeta(model).items():
        model.zeta[l - 1] = z
    gaps, sq = zeta_gap(model, with_exact_zeta(model))
    assert sq == pytest.approx(0.0, abs=1e-18)
    model.zeta[1:] += 1.0   # all 3 supported lengths
    gaps, sq = zeta_gap(model, with_exact_zeta(model))
    assert sq == pytest.approx(3.0, abs=1e-12)
    assert all(g == pytest.approx(1.0, abs=1e-12) for g in gaps.values())


def test_ngram_reference_is_per_length_normalized(v4):
    data = [Sequence((v4.bos, 3, v4.eos)), Sequence((v4.bos, 2, 3, v4.eos))]
    base = train_ngram(data, 2, v4)
    ref = NgramReference(base)
    pi = LengthPrior(np.array([0.0, 0.25, 0.5, 0.25]))
    model = TrfModel(zeroed_neural(4), np.zeros(4), pi, ref, v4)
    for l in (2, 3, 4):
        assert exact_log_z(model, l) == pytest.approx(0.0, abs=1e-9)


def test_lstm_reference_mass_matches_lm():
    from trflm.seqnet import LstmLmConfig, init_lstm_lm_params
    vocab = Vocabulary(("<s>", "</s>", "<unk>", "a"))
    lm = init_lstm_lm_params(LstmLmConfig(vocab_size=4, emb_dim=3, hidden_dim=3, max_len=4), 9)
    ref = LstmReference(lm)
    pi = LengthPrior(np.array([0.0, 1 / 3, 1 / 3, 1 / 3]))
    model = TrfModel(zeroed_neural(4), np.zeros(4), pi, ref, vocab)
    # with phi == 0, sum_l exp(log Z_l) must equal the LM's total mass: 1
    total = sum(math.exp(exact_log_z(model, l)) for l in (2, 3, 4))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_zeta_init_vectors():
    assert np.allclose(zeta_init_vector("l-log-v", 3, 28), np.arange(1, 4) * math.log(28))
    assert np.allclose(zeta_init_vector("linear", 4, 9), [1, 2, 3, 4])
    assert np.allclose(zeta_init_vector("zeros", 2, 9), [0, 0])
    with pytest.raises(ValueError):
        zeta_init_vector("ones", 3, 28)


def test_trf_model_validation(v4):
    pi = LengthPrior(np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValueError, match="sizes"):
        TrfModel(zeroed_neural(4), np.zeros(2), pi, UniformReference(2), v4)
    with pytest.raises(ValueError, match="finite"):
        TrfModel(zeroed_neural(4), np.array([0.0, np.inf, 0.0]), pi, UniformReference(2), v4)
