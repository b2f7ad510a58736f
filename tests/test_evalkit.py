import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trflm import evalkit
from trflm.corpus import LengthPrior, build_vocabulary, encode
from trflm.evalkit import (Hypothesis, NBestList, NgramScorer, corpus_wer,
                           grid_search_weights, precompute_member_scores, read_nbest_file,
                           read_refs_file, rescore_with_weights, wer, write_nbest_file,
                           write_refs_file)
from trflm.ngram import logprob_sentence, train_ngram

# -- independent oracle: two-row iterative edit distance -----------------------


def oracle_distance(ref, hyp):
    a, b = ref.split(), hyp.split()
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[len(b)]


def test_wer_identical():
    r = wer("a b c", "a b c")
    assert (r.substitutions, r.insertions, r.deletions, r.rate) == (0, 0, 0, 0.0)


def test_wer_single_substitution():
    r = wer("a b c", "a x c")
    assert r.substitutions == 1 and r.rate == pytest.approx(1 / 3)


def test_wer_insert_delete():
    assert wer("a b", "a x b").insertions == 1
    assert wer("a b c", "a c").deletions == 1


def test_wer_empty_reference_error():
    with pytest.raises(ValueError, match="reference"):
        wer("", "a b")


def test_wer_zero_iff_equal():
    rng = np.random.default_rng(0)
    toks = list("abcd")
    for _ in range(50):
        a = " ".join(rng.choice(toks, size=rng.integers(1, 6)))
        b = " ".join(rng.choice(toks, size=rng.integers(1, 6)))
        assert (wer(a, b).errors == 0) == (a == b)


def test_wer_matches_independent_dp_on_200_pairs():
    rng = np.random.default_rng(123)
    toks = list("abcdef")
    for _ in range(200):
        ref = " ".join(rng.choice(toks, size=rng.integers(1, 9)))
        hyp = " ".join(rng.choice(toks, size=rng.integers(0, 9)))
        r = wer(ref, hyp)
        d = oracle_distance(ref, hyp)
        assert r.errors == d
        assert r.rate == d / len(ref.split())


@settings(max_examples=200)
@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=7),
       st.lists(st.sampled_from("abc"), min_size=1, max_size=7),
       st.data())
def test_single_deletion_changes_errors_by_at_most_one(ref, hyp, data):
    r = " ".join(ref)
    h = " ".join(hyp)
    base = wer(r, h).errors
    k = data.draw(st.integers(0, len(hyp) - 1))
    shorter = " ".join(hyp[:k] + hyp[k + 1:])
    if shorter:
        assert abs(wer(r, shorter).errors - base) <= 1


class ConstScorer:
    kind = "const"

    def __init__(self, value):
        self.value = value

    def logprob_batch(self, texts):
        return np.full(len(texts), float(self.value))


class LengthScorer:
    kind = "len"

    def logprob_batch(self, texts):
        return np.array([-float(len(t.split())) for t in texts])


class TableScorer:
    kind = "table"

    def __init__(self, table):
        self.table = table

    def logprob_batch(self, texts):
        return np.array([self.table[t] for t in texts])


def make_nbest(texts, acoustics=None, utt="u1"):
    acoustics = acoustics or [None] * len(texts)
    return NBestList(utt, tuple(Hypothesis(t, a, r)
                                for r, (t, a) in enumerate(zip(texts, acoustics))))


def pick(members, weights, *nbests):
    """The picked text of each n-best list, in order."""
    table = precompute_member_scores(members, nbests)
    best = rescore_with_weights(table, weights, nbests)
    return [best[nb.utt_id] for nb in nbests]


def test_single_member_weight_one_is_identity():
    rng = np.random.default_rng(8)
    texts = [f"t{i}" for i in range(6)]
    table = TableScorer(dict(zip(texts, rng.permutation(6).astype(float))))
    assert pick([table], (1.0,), make_nbest(texts)) == [max(texts, key=table.table.get)]


def test_two_identical_members_half_weight():
    nbests, _ = random_nbests(np.random.default_rng(5))
    texts = {h.text for nb in nbests for h in nb.hypotheses}
    table = TableScorer({t: float(s) for t, s in
                         zip(sorted(texts), np.random.default_rng(6).normal(size=len(texts)))})
    assert pick([table, table], (0.5, 0.5), *nbests) == pick([table], (1.0,), *nbests)


def test_zero_weight_member_cannot_poison():
    nb = make_nbest(["a b", "a", "a b c"])
    assert pick([LengthScorer(), ConstScorer(-np.inf)], (1.0, 0.0), nb) == ["a"]


def test_acoustic_score_added_verbatim():
    # at member weight 0.5 the totals are -1.0 for "a b" and -0.5 + acoustic
    # for "a": the acoustic score counts in full, not scaled by the weight
    for acoustic, expect in ((-0.75, "a b"), (-0.25, "a")):
        nb = make_nbest(["a b", "a"], acoustics=[0.0, acoustic])
        assert pick([LengthScorer()], (0.5,), nb) == [expect]


def test_rescore_identity_member_and_tie_break():
    nb = make_nbest(["a b", "a", "a b c"])
    ties = make_nbest(["b b", "a a"], utt="u2")   # equal scores: the lower rank wins
    assert pick([LengthScorer()], (1.0,), nb, ties) == ["a", "b b"]


def test_reversed_weights_reverse_ranking():
    nb = make_nbest(["a a", "b"])
    assert pick([LengthScorer()], (1.0,), nb) == ["b"]
    assert pick([LengthScorer()], (-1.0,), nb) == ["a a"]


def test_rank_invariance_under_constant_shift():
    nbests, _ = random_nbests(np.random.default_rng(7))
    base = pick([LengthScorer()], (1.0,), *nbests)
    assert pick([LengthScorer(), ConstScorer(123.0)], (1.0, 1.0), *nbests) == base


def test_combined_beats_each_corner_on_exhaustive_list():
    # the tuned combination scores at least as well as every single member
    refs = {"u1": "a b", "u2": "c", "u3": "a"}
    nbests = [
        NBestList("u1", (Hypothesis("a b", None, 0), Hypothesis("b b", None, 1),
                         Hypothesis("a", None, 2), Hypothesis("a b c", None, 3),
                         Hypothesis("c", None, 4))),
        NBestList("u2", (Hypothesis("a", None, 0), Hypothesis("c", None, 1),
                         Hypothesis("c c", None, 2), Hypothesis("b", None, 3),
                         Hypothesis("a b", None, 4))),
        NBestList("u3", (Hypothesis("a a", None, 0), Hypothesis("a", None, 1),
                         Hypothesis("b", None, 2), Hypothesis("c a", None, 3),
                         Hypothesis("c", None, 4))),
    ]
    table = precompute_member_scores([LengthScorer(), ConstScorer(0.0)], nbests)
    weights, best_rate = grid_search_weights(table, nbests, refs)
    for corner in ((1.0, 0.0), (0.0, 1.0)):
        picked = rescore_with_weights(table, corner, nbests)
        assert best_rate <= corpus_wer(refs, picked).rate


def test_grid_covers_simplex():
    grid = list(evalkit._simplex_grid(3))
    assert len(grid) == 66
    assert all(abs(sum(w) - 1.0) < 1e-12 for w in grid)
    assert (1.0, 0.0, 0.0) in grid and (0.0, 0.0, 1.0) in grid


def test_nbest_file_roundtrip(tmp_path):
    nbests = [
        NBestList("utt1", (Hypothesis("a b", -1.25, 0), Hypothesis("a", None, 1))),
        NBestList("utt2", (Hypothesis("c", 0.5, 0),)),
    ]
    path = tmp_path / "nbest.txt"
    write_nbest_file(nbests, path)
    back = read_nbest_file(path)
    assert back == nbests
    refs = {"utt1": "a b", "utt2": "c"}
    rpath = tmp_path / "refs.txt"
    write_refs_file(refs, rpath)
    assert read_refs_file(rpath) == refs


def test_ngram_scorer_matches_sentence_logprob():
    vocab = build_vocabulary(["ab", "ba", "aa"], level="char")
    data = [encode(w, vocab, level="char") for w in ("ab", "ba", "aa")]
    model = train_ngram(data, 2, vocab)
    scorer = NgramScorer(model, vocab, level="char")
    assert scorer.logprob("ab") == logprob_sentence(
        model, np.array([encode("ab", vocab, level="char").ids]))[0]


def test_benchmark_generator_shapes(tiny_vocab):
    data = [encode(w, tiny_vocab, level="char") for w in ("a", "ab", "b", "ba", "aab")]
    model = train_ngram(data, 2, tiny_vocab)
    prior = LengthPrior(np.array([0.0, 0.0, 0.5, 0.3, 0.2]))
    nbests, refs = evalkit.make_nbest_benchmark(model, tiny_vocab, prior,
                                                np.random.default_rng(0),
                                                n_utts=12, n_hyps=6)
    assert len(nbests) == 12 and len(refs) == 12
    for nb in nbests:
        assert len(nb.hypotheses) == 6
        assert sorted(h.rank for h in nb.hypotheses) == list(range(6))
        texts = {h.text for h in nb.hypotheses}
        assert refs[nb.utt_id] in texts      # truth is always in the list
        for h in nb.hypotheses:
            assert 1 <= len(h.text.replace(" ", "")) <= 3


def test_scorer_batches_match_per_row_scoring():
    from trflm.seqnet import (LstmLmConfig, NeuralPotential, PotentialConfig,
                              init_lstm_lm_params, init_potential_params,
                              lstm_lm_logprob_batch)
    from trflm.trf import TrfModel, UniformReference, log_joint
    vocab = build_vocabulary(["ab", "ba", "abc", "ca"], level="char")
    data = [encode(w, vocab, level="char") for w in ("ab", "ba", "abc", "ca")]
    ngram = train_ngram(data, 2, vocab)
    lstm = init_lstm_lm_params(LstmLmConfig(vocab.size, 4, 4, 1, max_len=5), 0)
    potential = NeuralPotential(init_potential_params(PotentialConfig(vocab.size, 4, 2, 2, 1, 4),
                                                      np.random.default_rng(1)))
    # zero prior mass at length 2: the empty hypothesis is impossible under the TRF
    prior = LengthPrior(np.array([0.0, 0.0, 0.3, 0.4, 0.3]))
    trf = TrfModel(potential, np.zeros(5), prior, UniformReference(len(vocab.payload_ids)), vocab)
    # mixed lengths, an empty and an over-long (length 6) hypothesis, an unknown symbol
    texts = ["ab", "a", "", "abca", "cab", "b", "ba", "c", "abc", "xa", "bb"]

    def encoded(t):
        return encode(t, vocab, level="char")

    per_row = {
        "ngram": [logprob_sentence(ngram, np.array([encoded(t).ids]))[0] for t in texts],
        "lstm": [-np.inf if len(encoded(t)) > 5
                 else lstm_lm_logprob_batch(lstm, np.array([encoded(t).ids]))[0]
                 for t in texts],
        "trf": [log_joint(trf, encoded(t)) for t in texts],
    }
    scorers = {"ngram": NgramScorer(ngram, vocab, "char"),
               "lstm": evalkit.LstmScorer(lstm, vocab, "char"),
               "trf": evalkit.TrfScorer(trf, "char")}
    for kind, scorer in scorers.items():
        batch = scorer.logprob_batch(texts)
        expect = np.array(per_row[kind])
        assert batch.dtype == np.float64 and batch.shape == (len(texts),)
        assert np.array_equal(np.isneginf(batch), np.isneginf(expect)), kind
        assert np.all(np.isfinite(batch) | np.isneginf(batch)), kind
        finite = np.isfinite(expect)
        assert np.allclose(batch[finite], expect[finite], rtol=0, atol=1e-12), kind
        singles = np.array([scorer.logprob_batch([t])[0] for t in texts])
        assert np.array_equal(np.isneginf(singles), np.isneginf(expect)), kind
        assert np.allclose(singles[finite], batch[finite], rtol=0, atol=1e-12), kind
    assert np.isneginf(per_row["lstm"][3]) and np.isneginf(per_row["trf"][3])
    assert np.isneginf(per_row["trf"][2]) and np.isfinite(per_row["lstm"][2])


def random_nbests(rng, n_utts=15, vocab="abc"):
    """Random n-best lists of unequal lengths whose hypotheses are stored out
    of rank order, with references over the same symbols."""
    def text():
        return " ".join(rng.choice(list(vocab), size=rng.integers(1, 4)))

    nbests, refs = [], {}
    for u in range(n_utts):
        n = int(rng.integers(1, 7))
        ranks = rng.permutation(n)
        hyps = tuple(Hypothesis(text(), None if rng.random() < 0.3
                                else float(rng.choice([-1.0, -0.5, 0.0])), int(r))
                     for r in ranks)
        nbests.append(NBestList(f"u{u}", hyps))
        refs[f"u{u}"] = text()
    return nbests, refs


def brute_force_pick(members, weights, nbests):
    """Each utterance's best hypothesis by sorting on (-combined score, rank)."""
    best = {}
    for nb in nbests:
        def key(h):
            total = 0.0
            for m, w in zip(members, weights):
                if w != 0.0:
                    total += w * m.logprob_batch([h.text])[0]
            if h.acoustic is not None:
                total += h.acoustic
            return (-total, h.rank)
        best[nb.utt_id] = sorted(nb.hypotheses, key=key)[0].text
    return best


@pytest.mark.parametrize("seed", range(4))
def test_grid_search_matches_brute_force_loop(seed):
    rng = np.random.default_rng(seed)
    nbests, refs = random_nbests(rng)
    texts = {h.text for nb in nbests for h in nb.hypotheses}
    # few distinct integer scores give exact ties; the last member is -inf on some texts
    members = [TableScorer({t: float(rng.integers(-3, 0)) for t in texts}),
               TableScorer({t: float(rng.integers(-2, 1)) for t in texts}),
               TableScorer({t: -np.inf if rng.random() < 0.3 else -1.0 for t in texts})]
    table = precompute_member_scores(members, nbests)
    brute_w, brute_rate = None, np.inf
    for w in evalkit._simplex_grid(3):
        picked = rescore_with_weights(table, w, nbests)
        assert picked == brute_force_pick(members, w, nbests)
        rate = corpus_wer(refs, picked).rate
        if rate < brute_rate - 1e-15:
            brute_w, brute_rate = w, rate
    assert grid_search_weights(table, nbests, refs) == (brute_w, brute_rate)


def test_pick_ties_go_to_lowest_rank_not_storage_order():
    nb = NBestList("u", (Hypothesis("b", None, 2), Hypothesis("c", None, 0),
                         Hypothesis("a", None, 1)))
    table = precompute_member_scores([ConstScorer(-1.0)], [nb])
    assert rescore_with_weights(table, (1.0,), [nb]) == {"u": "c"}
    # every hypothesis impossible: still the lowest rank, never padding
    short = NBestList("v", (Hypothesis("a", None, 3), Hypothesis("b", None, 1)))
    table = precompute_member_scores([ConstScorer(-np.inf)], [nb, short])
    assert rescore_with_weights(table, (1.0,), [nb, short]) == {"u": "c", "v": "b"}


def test_score_table_cells_match_per_utterance_scoring():
    # ragged lists stored out of rank order, scored by a length-bucketing
    # member: every real cell holds its own hypothesis, padding stays empty
    nbests, _ = random_nbests(np.random.default_rng(11))
    vocab = build_vocabulary(["a b c"])
    ngram = NgramScorer(train_ngram([encode(t, vocab) for t in ("a b", "b c a", "c")], 2,
                                    vocab), vocab)
    members = [ngram, LengthScorer()]
    table = precompute_member_scores(members, nbests)
    assert table.real.shape == (len(nbests), max(len(nb.hypotheses) for nb in nbests))
    for i, nb in enumerate(nbests):
        n, texts = len(nb.hypotheses), [h.text for h in nb.hypotheses]
        for m, member in enumerate(members):
            assert np.array_equal(table.scores[i, :n, m], member.logprob_batch(texts))
        assert table.acoustic[i, :n].tolist() == [h.acoustic or 0.0 for h in nb.hypotheses]
        assert table.rank[i, :n].tolist() == [h.rank for h in nb.hypotheses]
        assert table.real[i, :n].all() and not table.real[i, n:].any()
        assert not table.scores[i, n:].any() and not table.acoustic[i, n:].any()
