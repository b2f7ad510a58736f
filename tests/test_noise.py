import itertools
import math

import numpy as np
import pytest

from trflm.cli import builtin_pilot_words
from trflm.corpus import LengthPrior, Sequence, Vocabulary, build_vocabulary, encode
from trflm.ngram import train_ngram
from trflm.noise import NoiseDistribution, draw_noise_batch, noise_logprob

from test_ngram import reference_sample_fixed_length


@pytest.fixture
def v2pay():
    # exactly two payload symbols: <unk> and a
    return Vocabulary(("<s>", "</s>", "<unk>", "a"))


@pytest.fixture
def nd_tiny(v2pay):
    # "z" maps to <unk>: both payload symbols have count 1, so the
    # renormalized unigram is uniform over the two of them by symmetry
    data = [encode("a", v2pay, level="char"), encode("z", v2pay, level="char")]
    base = train_ngram(data, 1, v2pay)
    pi = LengthPrior(np.array([0.0, 0.0, 1.0]))
    return NoiseDistribution(pi, base)


def test_noise_logprob_direct(nd_tiny, v2pay):
    x = Sequence((v2pay.bos, v2pay.id_of("a"), v2pay.eos))
    assert noise_logprob(nd_tiny, x) == pytest.approx(math.log(1.0) + math.log(0.5), abs=1e-12)


def test_noise_logprob_zero_prior_sentinel(nd_tiny, v2pay):
    x = Sequence((v2pay.bos, v2pay.eos))   # length 2 has pi = 0
    assert noise_logprob(nd_tiny, x) == -np.inf


def test_noise_total_mass(tiny_vocab):
    data = [encode(w, tiny_vocab, level="char") for w in ("a", "ab", "b", "ba")]
    base = train_ngram(data, 2, tiny_vocab)
    pi = LengthPrior(np.array([0.0, 0.2, 0.5, 0.3]))
    nd = NoiseDistribution(pi, base)
    total = 0.0
    for l in (2, 3, 4):
        for combo in itertools.product(tiny_vocab.payload_ids, repeat=l - 2):
            total += math.exp(noise_logprob(nd, Sequence((tiny_vocab.bos,) + combo + (tiny_vocab.eos,))))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_batch_size_is_nu_times_data(nd_tiny):
    batch = draw_noise_batch(nd_tiny, 10, 20, np.random.default_rng(0))
    assert len(batch.sequences) == 200
    assert batch.log_pn.shape == (200,)
    assert np.all(np.isfinite(batch.log_pn))


def test_batch_nu_validation(nd_tiny):
    with pytest.raises(ValueError, match="nu"):
        draw_noise_batch(nd_tiny, 5, 0, np.random.default_rng(0))


def test_same_seed_identical_batches(nd_tiny):
    b1 = draw_noise_batch(nd_tiny, 7, 3, np.random.default_rng(11))
    b2 = draw_noise_batch(nd_tiny, 7, 3, np.random.default_rng(11))
    assert b1.sequences == b2.sequences
    assert np.array_equal(b1.log_pn, b2.log_pn)


def reference_draw_noise_batch(nd, data_batch_size, nu, rng):
    """Lengths in one draw, then each row's payload one rng.choice per symbol."""
    n = data_batch_size * nu
    lengths = rng.choice(nd.length_prior.m, size=n, p=nd.length_prior.probs) + 1
    draws = [reference_sample_fixed_length(nd.base, int(l), rng) for l in lengths]
    log_pn = np.array([nd.length_prior.log_prob(len(s)) + lp for s, lp in draws])
    return [s for s, _ in draws], log_pn


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_mixed_length_batches_match_per_symbol_draws(order):
    words = builtin_pilot_words()
    vocab = build_vocabulary(words, level="char")
    base = train_ngram([encode(w, vocab, level="char") for w in words], order, vocab)
    nd = NoiseDistribution(LengthPrior(np.array([0.0, 0.1, 0.2, 0.3, 0.25, 0.15])), base)
    for seed, (size, nu) in enumerate([(10, 10), (1, 1), (7, 3), (0, 4)]):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = draw_noise_batch(nd, size, nu, rng)
        sequences, log_pn = reference_draw_noise_batch(nd, size, nu, ref_rng)
        assert [s.ids for s in batch.sequences] == sequences
        assert all(type(i) is int for s in batch.sequences for i in s.ids)
        assert batch.log_pn.tobytes() == log_pn.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_length_one_noise_is_rejected(v2pay):
    base = train_ngram([encode("a", v2pay, level="char")], 1, v2pay)
    nd = NoiseDistribution(LengthPrior(np.array([0.5, 0.0, 0.5])), base)
    with pytest.raises(ValueError, match="minimum sequence length is 2"):
        draw_noise_batch(nd, 10, 1, np.random.default_rng(0))


def test_recorded_log_pn_matches_recompute(tiny_vocab):
    data = [encode(w, tiny_vocab, level="char") for w in ("a", "ab", "b")]
    nd = NoiseDistribution(LengthPrior(np.array([0, 0.3, 0.7])), train_ngram(data, 2, tiny_vocab))
    batch = draw_noise_batch(nd, 20, 5, np.random.default_rng(2))
    for s, lp in zip(batch.sequences, batch.log_pn):
        assert noise_logprob(nd, s) == lp


def test_length_histogram_matches_prior(tiny_vocab):
    from scipy import stats
    data = [encode(w, tiny_vocab, level="char") for w in ("a", "ab", "b", "aa", "")]
    pi = np.array([0.0, 0.2, 0.6, 0.2])
    nd = NoiseDistribution(LengthPrior(pi), train_ngram(data, 2, tiny_vocab))
    batch = draw_noise_batch(nd, 1000, 100, np.random.default_rng(5))   # 100k draws
    counts = np.zeros(4)
    for s in batch.sequences:
        counts[len(s) - 1] += 1
    keep = pi > 0
    stat = float(((counts[keep] - 100_000 * pi[keep]) ** 2 / (100_000 * pi[keep])).sum())
    assert counts[~keep].sum() == 0
    assert stats.chi2.sf(stat, df=keep.sum() - 1) > 0.01


def test_joint_sampler_matches_density(tiny_vocab):
    # score/sample agreement on the full (length, payload) space
    from scipy import stats
    data = [encode(w, tiny_vocab, level="char") for w in ("a", "ab", "b", "ba", "aa")]
    pi = LengthPrior(np.array([0.0, 0.25, 0.35, 0.4]))
    nd = NoiseDistribution(pi, train_ngram(data, 2, tiny_vocab))
    space = []
    for l in (2, 3, 4):
        for combo in itertools.product(tiny_vocab.payload_ids, repeat=l - 2):
            space.append(Sequence((tiny_vocab.bos,) + combo + (tiny_vocab.eos,)))
    probs = np.array([math.exp(noise_logprob(nd, s)) for s in space])
    index = {s.ids: i for i, s in enumerate(space)}
    n = 60_000
    batch = draw_noise_batch(nd, n // 100, 100, np.random.default_rng(3))
    counts = np.zeros(len(space))
    for s in batch.sequences:
        counts[index[s.ids]] += 1
    stat = float(((counts - n * probs) ** 2 / (n * probs)).sum())
    assert stats.chi2.sf(stat, df=len(space) - 1) > 0.01
