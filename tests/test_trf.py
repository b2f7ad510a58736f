import itertools
import math
import resource
import tracemalloc

import numpy as np
import pytest

from conftest import TabularPotential
from trflm import trf
from trflm.corpus import LengthPrior, Sequence, Vocabulary, encode
from trflm.ngram import train_ngram
from trflm.seqnet import NeuralPotential, PotentialConfig, init_potential_params
from trflm.trf import (LstmReference, NgramReference, TrfModel,
                       UniformReference, _length_space, exact_log_z, exact_zeta,
                       log_joint, nll, total_mass, with_exact_zeta, zeta_gap,
                       zeta_init_vector)
from trflm.util import logsumexp, retain_freed_memory


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
    # 21 payload symbols: length 5 (9261 rows) spans several chunks and ends
    # in a partial one
    vocab = Vocabulary(("<s>", "</s>", "<unk>") + tuple(f"w{i}" for i in range(20)))
    l = payload_len + 2
    model = TrfModel(zeroed_neural(vocab.size), np.zeros(l), LengthPrior(np.eye(l)[l - 1]),
                     UniformReference(len(vocab.payload_ids)), vocab)
    payloads = list(itertools.product(sorted(vocab.payload_ids), repeat=payload_len))
    expect = np.array([(vocab.bos, *p, vocab.eos) for p in payloads], dtype=np.int64)
    chunks = list(_length_space(model, l, budget=len(payloads)))
    assert [len(c) for c in chunks] == [len(c) for c in np.array_split(
        expect, range(trf._CHUNK_ROWS, len(expect), trf._CHUNK_ROWS))]
    assert all(c.dtype == np.int64 for c in chunks)
    assert np.array_equal(np.concatenate(chunks), expect)


def pilot_shaped_model(payload_size=27, max_len=5, seed=0, **conv):
    """The pilot's shape: a BLSTM potential of width 16 (after the
    convolutions `conv` names, if any) over a uniform reference, every length
    2..max_len supported."""
    vocab = Vocabulary(("<s>", "</s>", "<unk>")
                       + tuple(f"w{i}" for i in range(payload_size - 1)))
    params = init_potential_params(
        PotentialConfig(vocab_size=vocab.size, emb_dim=16, hidden_dim=16, **conv), seed)
    pi = LengthPrior(np.array([0.0] + [1.0 / (max_len - 1)] * (max_len - 1)))
    return TrfModel(NeuralPotential(params), np.zeros(max_len), pi,
                    UniformReference(len(vocab.payload_ids)), vocab)


def assert_exact_log_z_matches_one_batch(model):
    payload = sorted(model.vocab.payload_ids)
    for l in model.supported_lengths:
        ids = np.array([(model.vocab.bos, *p, model.vocab.eos)
                        for p in itertools.product(payload, repeat=l - 2)])
        whole = logsumexp(model.reference.log_q_batch(ids) + model.potential.phi_batch(ids))
        assert abs(exact_log_z(model, l) - whole) < 1e-12


@pytest.mark.parametrize("chunk", [1, 7, trf._CHUNK_ROWS, 6 ** 3])
def test_exact_log_z_does_not_depend_on_chunking(monkeypatch, chunk):
    # 6 payload symbols: 216 rows at length 5, scored here in one batch
    monkeypatch.setattr(trf, "_CHUNK_ROWS", chunk)
    assert_exact_log_z_matches_one_batch(pilot_shaped_model(payload_size=6, seed=3))


@pytest.mark.parametrize("chunk", [1, 7, trf._CHUNK_ROWS])
def test_exact_log_z_over_lstm_reference_does_not_depend_on_chunking(monkeypatch, chunk):
    # 5 payload symbols: at max_len the LM shares one pass per run of 5 rows,
    # and chunks of 7 rows split those runs
    from trflm.seqnet import LstmLmConfig, init_lstm_lm_params
    vocab = Vocabulary(("<s>", "</s>", "<unk>", "a", "b", "c", "d"))
    lm = init_lstm_lm_params(LstmLmConfig(vocab_size=vocab.size, emb_dim=3, hidden_dim=4,
                                          max_len=5), 1)
    potential = NeuralPotential(init_potential_params(PotentialConfig(
        vocab_size=vocab.size, emb_dim=4, bank_width=2, bank_channels=3, stack_layers=2,
        hidden_dim=4), 2))
    pi = LengthPrior(np.array([0.0, 0.25, 0.25, 0.25, 0.25]))
    monkeypatch.setattr(trf, "_CHUNK_ROWS", chunk)
    assert_exact_log_z_matches_one_batch(
        TrfModel(potential, np.zeros(5), pi, LstmReference(lm), vocab))


def test_exact_zeta_memory_is_bounded():
    # Streamed in 512-row chunks, exact_zeta of the pilot's shape peaks at
    # 6.7 MB of numpy allocations; in 8192-row chunks it peaked at 118 MB.
    model = pilot_shaped_model()
    assert len(model.vocab.payload_ids) == 27
    tracemalloc.start()
    try:
        exact_zeta(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_paper_shaped_enumeration_stops_refaulting():
    # Each 512-row chunk of the paper's potential allocates ~10 MB of numpy
    # temporaries. With freed memory kept in the process, a second enumeration
    # reuses the first one's pages: 0 minor faults, against ~97,000 without.
    model = pilot_shaped_model(bank_width=3, bank_channels=8, stack_layers=2)
    if not retain_freed_memory():
        pytest.skip("the C library has no mallopt")
    exact_log_z(model, 5)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    exact_log_z(model, 5)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


def conv_free_model(reference, payload_size, emb_dim, hidden_dim, seed, max_len=5):
    """A BLSTM-only potential (weights on [-0.5, 0.5]) over a uniform, bigram
    or LSTM LM reference, every length 2..max_len supported."""
    from trflm.seqnet import LstmLmConfig, init_lstm_lm_params
    vocab = Vocabulary(("<s>", "</s>", "<unk>")
                       + tuple(f"w{i}" for i in range(payload_size - 1)))
    params = init_potential_params(PotentialConfig(vocab_size=vocab.size, emb_dim=emb_dim,
                                                   hidden_dim=hidden_dim), seed, scale=0.5)
    if reference == "uniform":
        ref = UniformReference(payload_size)
    elif reference == "ngram":
        rng = np.random.default_rng(seed)
        data = [Sequence((vocab.bos, *rng.choice(vocab.payload_ids, size=k).tolist(), vocab.eos))
                for k in rng.integers(0, max_len - 1, size=20)]
        ref = NgramReference(train_ngram(data, 2, vocab))
    else:
        ref = LstmReference(init_lstm_lm_params(LstmLmConfig(
            vocab_size=vocab.size, emb_dim=3, hidden_dim=4, max_len=max_len), seed))
    pi = LengthPrior(np.array([0.0] + [1.0 / (max_len - 1)] * (max_len - 1)))
    return TrfModel(NeuralPotential(params), np.zeros(max_len), pi, ref, vocab)


@pytest.mark.parametrize("chunk", [1, 7, 512])
@pytest.mark.parametrize("reference", ["uniform", "ngram", "lstm"])
@pytest.mark.parametrize("payload_size, emb_dim, hidden_dim", [(1, 3, 3), (4, 5, 3), (5, 2, 6)])
def test_tree_scan_matches_chunked_path(monkeypatch, chunk, reference, payload_size,
                                        emb_dim, hidden_dim):
    # phi of every row and log Z of every supported length, tree scan against
    # phi_batch over the same _length_space chunks
    model = conv_free_model(reference, payload_size, emb_dim, hidden_dim, seed=payload_size)
    monkeypatch.setattr(trf, "_CHUNK_ROWS", chunk)
    for l in model.supported_lengths:
        chunks = list(_length_space(model, l, budget=10 ** 6))
        phi = np.concatenate([model.potential.phi_batch(ids) for ids in chunks])
        tree = trf._space_phi(model, l)
        assert tree.shape == phi.shape and np.abs(tree - phi).max() < 1e-12
        chunked = logsumexp(np.concatenate(
            [model.reference.log_q_batch(ids) for ids in chunks]) + phi)
        assert abs(exact_log_z(model, l) - chunked) < 1e-12


def counting_lstm_forward(monkeypatch):
    """Wrap layers.lstm_forward; the returned list collects rows x steps."""
    from trflm.seqnet import layers
    seen = []
    real = layers.lstm_forward

    def counted(x, *args, **kwargs):
        seen.append(x.shape[0] * x.shape[1])
        return real(x, *args, **kwargs)

    monkeypatch.setattr(layers, "lstm_forward", counted)
    return seen


@pytest.mark.parametrize("length, budget, message", [
    (1, 10, "minimum is 2"),
    (6, 10 ** 6, r"length 6 is past the model's lengths 2\.\.5"),
    (5, 63, "needs 64 sequences, over the budget of 63"),
])
def test_tree_scan_errors_come_before_any_lstm_step(monkeypatch, length, budget, message):
    model = conv_free_model("uniform", 4, 3, 3, seed=0)
    seen = counting_lstm_forward(monkeypatch)
    with pytest.raises(ValueError, match=message):
        exact_log_z(model, length, budget)
    assert seen == []


def test_tree_scan_steps_each_prefix_once(monkeypatch):
    # The perf guard: at length 5 over 27 payload symbols each direction steps
    # its 1 + 27 + 27^2 small nodes once and its two 27^3 levels in chunks,
    # 4 * 27^3 + 2 * 757 rows x steps, where scoring the 27^3 rows one by one
    # takes 10 * 27^3. No row goes through phi_batch.
    model = pilot_shaped_model()
    seen = counting_lstm_forward(monkeypatch)
    monkeypatch.setattr(NeuralPotential, "phi_batch", None)
    exact_log_z(model, 5)
    assert sum(seen) <= 4 * 27 ** 3 + 2 * (1 + 27 + 27 ** 2)


def test_conv_potential_goes_through_phi_batch(monkeypatch):
    vocab = Vocabulary(("<s>", "</s>", "<unk>", "a", "b"))
    potential = NeuralPotential(init_potential_params(PotentialConfig(
        vocab_size=5, emb_dim=4, bank_width=2, bank_channels=3, stack_layers=1,
        hidden_dim=4), 0))
    model = TrfModel(potential, np.zeros(4), LengthPrior(np.array([0.0, 0.0, 0.0, 1.0])),
                     UniformReference(3), vocab)
    rows = []
    real = NeuralPotential.phi_batch
    monkeypatch.setattr(NeuralPotential, "phi_batch",
                        lambda self, ids: rows.append(len(ids)) or real(self, ids))
    monkeypatch.setattr(trf, "potential_phi_space", None)
    exact_log_z(model, 4)
    assert sum(rows) == 9


def test_space_over_the_tree_cap_goes_through_phi_batch(monkeypatch):
    # The tree holds a whole length's space; one over _TREE_ROWS streams
    # through phi_batch in chunks instead, to the same log Z.
    model = conv_free_model("uniform", 4, 3, 3, seed=0)
    tree = exact_log_z(model, 5)                      # 4^3 = 64 rows
    rows = []
    real = NeuralPotential.phi_batch
    monkeypatch.setattr(NeuralPotential, "phi_batch",
                        lambda self, ids: rows.append(len(ids)) or real(self, ids))
    monkeypatch.setattr(trf, "potential_phi_space", None)
    monkeypatch.setattr(trf, "_TREE_ROWS", 63)
    assert abs(exact_log_z(model, 5) - tree) < 1e-12
    assert sum(rows) == 64


def test_exact_zeta_enumerates_each_length_once(monkeypatch):
    model = pilot_shaped_model(payload_size=3)
    calls = []
    real = trf.exact_log_z
    monkeypatch.setattr(trf, "exact_log_z",
                        lambda m, l, budget: calls.append(l) or real(m, l, budget))
    zs = exact_zeta(model, [5, 3, 5, 3])
    assert calls == [5, 3] and list(zs) == [5, 3]
    assert zs == {l: real(model, l) for l in (5, 3)}


def test_length_space_errors(v4):
    pi = LengthPrior(np.array([0.0, 0.0, 0.0, 1.0]))
    model = TrfModel(zeroed_neural(4), np.zeros(4), pi, UniformReference(2), v4)
    with pytest.raises(ValueError, match="minimum is 2"):
        next(_length_space(model, 1, budget=10))
    with pytest.raises(ValueError, match="needs 4 sequences, over the budget of 3"):
        next(_length_space(model, 4, budget=3))
    with pytest.raises(ValueError, match=r"length 5 is past the model's lengths 2\.\.4"):
        next(_length_space(model, 5, budget=10))


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
