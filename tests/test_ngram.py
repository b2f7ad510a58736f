import itertools
import math

import numpy as np
import pytest

from trflm.cli import builtin_pilot_words
from trflm.corpus import Sequence, Vocabulary, build_vocabulary, encode
from trflm.ngram import (export_arpa, load_ngram,
                         logprob_fixed_length, logprob_sentence, sample_fixed_length,
                         save_ngram, train_ngram)


def row(*ids):
    """One sequence as a one-row (1, l) batch."""
    return np.array([ids], dtype=np.int64)


# -- independent oracle: straight-from-definition interpolated KN -------------


def oracle_tables(dataset, order, bos):
    raw = {}
    for seq in dataset:
        ext = (bos,) * max(order - 2, 0) + tuple(seq.ids)
        for j in range(max(order - 1, 1), len(ext)):
            key = ext[j - order + 1: j + 1]
            raw[key] = raw.get(key, 0) + 1
    tables = {order: raw}
    for k in range(order - 1, 0, -1):
        cont = {}
        for gram in tables[k + 1]:
            cont[gram[1:]] = cont.get(gram[1:], 0) + 1
        tables[k] = cont
    return tables


def oracle_discount(table):
    n1 = sum(1 for c in table.values() if c == 1)
    n2 = sum(1 for c in table.values() if c == 2)
    return n1 / (n1 + 2.0 * n2) if n1 and n2 else 0.5


def oracle_prob(tables, discounts, V, ctx, w):
    if len(ctx) >= max(tables):
        ctx = ctx[-(max(tables) - 1):] if max(tables) > 1 else ()
    k = len(ctx) + 1
    lower = 1.0 / V if k == 1 else oracle_prob(tables, discounts, V, ctx[1:], w)
    table = tables[k]
    seen = {g[-1]: c for g, c in table.items() if g[:-1] == ctx}
    total = sum(seen.values())
    if total == 0:
        return lower
    D = discounts[k]
    c = seen.get(w, 0)
    return (max(c - D, 0.0) + D * len(seen) * lower) / total


def oracle_model(dataset, order, vocab):
    tables = oracle_tables(dataset, order, vocab.bos)
    discounts = {k: oracle_discount(t) for k, t in tables.items()}
    return tables, discounts


@pytest.fixture
def toy_corpus(tiny_vocab):
    words = ["a", "b", "ab", "ba", "aab"]
    return [encode(w, tiny_vocab, level="char") for w in words]


def test_unigram_nonzero_mass(tiny_vocab):
    model = train_ngram([encode("a", tiny_vocab, level="char")], 1, tiny_vocab)
    dist = model.conditional_dist(())
    assert dist[tiny_vocab.id_of("a")] > 0
    assert dist[tiny_vocab.eos] > 0


def test_count_ordering_preserved(tiny_vocab):
    data = [encode("ab", tiny_vocab, level="char")] * 3 + \
           [encode("aa", tiny_vocab, level="char")]
    model = train_ngram(data, 2, tiny_vocab)
    a, b = tiny_vocab.id_of("a"), tiny_vocab.id_of("b")
    dist = model.conditional_dist((a,))
    assert dist[b] > dist[a]


def test_order_error(tiny_vocab, toy_corpus):
    with pytest.raises(ValueError, match="order"):
        train_ngram(toy_corpus, 0, tiny_vocab)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_conditionals_normalize_over_random_contexts(tiny_vocab, toy_corpus, order):
    model = train_ngram(toy_corpus, order, tiny_vocab)
    rng = np.random.default_rng(0)
    for _ in range(100):
        ctx = tuple(rng.integers(0, tiny_vocab.size, size=rng.integers(0, 4)))
        total = float(model.conditional_dist(ctx).sum())
        assert abs(total - 1.0) <= 1e-9


@pytest.mark.parametrize("order", [1, 2, 3])
def test_conditional_matches_hand_expanded_formula(tiny_vocab, toy_corpus, order):
    model = train_ngram(toy_corpus, order, tiny_vocab)
    tables, discounts = oracle_model(toy_corpus, order, tiny_vocab)
    assert discounts == model.discounts
    rng = np.random.default_rng(1)
    for _ in range(50):
        ctx = tuple(rng.integers(0, tiny_vocab.size, size=rng.integers(0, order)).tolist())
        w = int(rng.integers(0, tiny_vocab.size))
        expect = oracle_prob(tables, discounts, tiny_vocab.size, ctx, w)
        got = math.exp(np.log(model.conditional_dist(ctx)[w]))
        assert got == pytest.approx(expect, rel=1e-12)


def test_backoff_to_unigram(tiny_vocab, toy_corpus):
    model = train_ngram(toy_corpus, 3, tiny_vocab)
    unseen_ctx = (tiny_vocab.eos, tiny_vocab.eos)   # never a context in data
    uni = model.conditional_dist(())
    got = model.conditional_dist(unseen_ctx)
    # both levels above are unseen, so the query falls through to unigram
    assert np.allclose(got, uni, rtol=0, atol=0)


def test_conditional_in_unit_interval(tiny_vocab, toy_corpus):
    model = train_ngram(toy_corpus, 2, tiny_vocab)
    p = math.exp(np.log(model.conditional_dist((tiny_vocab.bos,))[tiny_vocab.id_of("a")]))
    assert 0.0 < p <= 1.0


@pytest.mark.parametrize("vsize,order", [(4, 1), (4, 2), (5, 2), (5, 3)])
def test_fixed_length_normalizes_per_length(vsize, order):
    vocab = Vocabulary(("<s>", "</s>", "<unk>") + tuple("ab"[: vsize - 3]))
    words = ["a", "aa", "ab", "b"] if vsize == 5 else ["a", "aa", ""]
    data = [encode(w, vocab, level="char") for w in words]
    model = train_ngram(data, order, vocab)
    for l in range(2, 5):
        total = 0.0
        for combo in itertools.product(vocab.payload_ids, repeat=l - 2):
            total += math.exp(logprob_fixed_length(model, row(vocab.bos, *combo, vocab.eos))[0])
        assert abs(total - 1.0) <= 1e-9


def test_fixed_length_minimal_sequence_is_certain(tiny_vocab, toy_corpus):
    # only the end symbol is admissible after begin: probability 1, log 0
    model = train_ngram(toy_corpus, 2, tiny_vocab)
    assert logprob_fixed_length(model, row(tiny_vocab.bos, tiny_vocab.eos))[0] == 0.0


def test_fixed_length_hand_computed_chain(tiny_vocab, toy_corpus):
    model = train_ngram(toy_corpus, 2, tiny_vocab)
    tables, discounts = oracle_model(toy_corpus, 2, tiny_vocab)
    a, b = tiny_vocab.id_of("a"), tiny_vocab.id_of("b")
    payload = tiny_vocab.payload_ids

    def renormed(ctx, w):
        probs = {u: oracle_prob(tables, discounts, tiny_vocab.size, ctx, u) for u in payload}
        return probs[w] / sum(probs.values())

    seq = row(tiny_vocab.bos, a, b, tiny_vocab.eos)
    expect = math.log(renormed((tiny_vocab.bos,), a)) + math.log(renormed((a,), b))
    assert logprob_fixed_length(model, seq)[0] == pytest.approx(expect, rel=1e-12)


def assert_rejects_malformed(score, model, vocab):
    bos, eos, a = vocab.bos, vocab.eos, vocab.id_of("a")
    with pytest.raises(ValueError, match="length-0"):
        score(model, row())
    for bad in (row(bos, bos, eos), row(bos, a, eos, eos)):
        with pytest.raises(ValueError, match="boundary symbol inside payload"):
            score(model, bad)
    for bad in (row(a, a, eos), row(bos, a, a), row(bos), np.array([(bos, a, eos), (a, a, eos)])):
        with pytest.raises(ValueError, match=r"\[begin, payload\.\.\., end\]"):
            score(model, bad)


def test_fixed_length_rejects_malformed(tiny_vocab, toy_corpus):
    model = train_ngram(toy_corpus, 2, tiny_vocab)
    assert_rejects_malformed(logprob_fixed_length, model, tiny_vocab)


def test_sentence_logprob_rejects_malformed(tiny_vocab, toy_corpus):
    model = train_ngram(toy_corpus, 2, tiny_vocab)
    assert_rejects_malformed(logprob_sentence, model, tiny_vocab)


def test_sampler_deterministic(tiny_vocab, toy_corpus):
    model = train_ngram(toy_corpus, 2, tiny_vocab)
    s1, lp1 = sample_fixed_length(model, np.random.default_rng(42).random((1, 2)))
    s2, lp2 = sample_fixed_length(model, np.random.default_rng(42).random((1, 2)))
    assert s1.tolist() == s2.tolist() and lp1[0] == lp2[0]


def test_sampler_minimal_length(tiny_vocab, toy_corpus):
    model = train_ngram(toy_corpus, 2, tiny_vocab)
    s, lp = sample_fixed_length(model, np.random.default_rng(0).random((1, 0)))
    assert s.tolist() == [[tiny_vocab.bos, tiny_vocab.eos]] and lp[0] == 0.0


def test_sampler_matches_scorer_chisquare(tiny_vocab, toy_corpus):
    from scipy import stats
    model = train_ngram(toy_corpus, 2, tiny_vocab)
    l = 4
    space = [(tiny_vocab.bos,) + c + (tiny_vocab.eos,)
             for c in itertools.product(tiny_vocab.payload_ids, repeat=l - 2)]
    probs = np.exp(logprob_fixed_length(model, np.array(space)))
    index = {s: i for i, s in enumerate(space)}
    rng = np.random.default_rng(7)
    counts = np.zeros(len(space))
    n = 50_000
    for ids in sample_fixed_length(model, rng.random((n, l - 2)))[0].tolist():
        counts[index[tuple(ids)]] += 1
    stat = float(((counts - n * probs) ** 2 / (n * probs)).sum())
    p = float(stats.chi2.sf(stat, df=len(space) - 1))
    assert p > 0.01


def test_count_increase_monotonicity(tiny_vocab):
    # adding copies of a sequence to a held-fixed corpus never lowers its
    # fixed-length log-probability (checked over seeded random corpora)
    rng = np.random.default_rng(0)
    payload = list(tiny_vocab.payload_ids)
    for trial in range(40):
        words = []
        for _ in range(int(rng.integers(3, 10))):
            w = rng.choice(payload, size=int(rng.integers(1, 4)))
            words.append(Sequence((tiny_vocab.bos, *map(int, w), tiny_vocab.eos)))
        target = words[int(rng.integers(len(words)))]
        base = logprob_fixed_length(train_ngram(words, 2, tiny_vocab), row(*target.ids))[0]
        for extra in (1, 2, 3):
            boosted = train_ngram(words + [target] * extra, 2, tiny_vocab)
            lp = logprob_fixed_length(boosted, row(*target.ids))[0]
            assert lp >= base - 1e-12, f"trial {trial}: {lp} < {base}"
            base = lp


def test_sentence_logprob_sums_conditionals(tiny_vocab, toy_corpus):
    model = train_ngram(toy_corpus, 2, tiny_vocab)
    seq = encode("ab", tiny_vocab, level="char")
    a, b = tiny_vocab.id_of("a"), tiny_vocab.id_of("b")
    expect = (np.log(model.conditional_dist((tiny_vocab.bos,))[a])
              + np.log(model.conditional_dist((a,))[b])
              + np.log(model.conditional_dist((b,))[tiny_vocab.eos]))
    assert logprob_sentence(model, row(*seq.ids))[0] == pytest.approx(expect, rel=1e-12)


# -- the column walk against the per-symbol loops it replaced -----------------


def reference_payload_dist(model, prefix):
    """The payload restriction after a begin-padded prefix, renormalized."""
    ctx = ((model.bos,) * (model.order - 1) + tuple(prefix))[-(model.order - 1):] \
        if model.order > 1 else ()
    dist = np.array(model.conditional_dist(ctx))
    dist[model.bos] = 0.0
    dist[model.eos] = 0.0
    return dist / dist.sum()


def reference_sample_fixed_length(model, l, rng):
    """One draw of length l with one rng.choice per payload symbol."""
    ids = [model.bos]
    lp = 0.0
    for _ in range(l - 2):
        dist = reference_payload_dist(model, ids)
        w = int(rng.choice(model.vocab_size, p=dist))
        ids.append(w)
        lp += float(np.log(dist[w]))
    ids.append(model.eos)
    return tuple(ids), lp


def reference_logprob_fixed_length(model, ids):
    lp = 0.0
    for i in range(1, len(ids) - 1):
        lp += float(np.log(reference_payload_dist(model, ids[:i])[ids[i]]))
    return lp


def reference_logprob_sentence(model, ids):
    ext = (model.bos,) * max(model.order - 2, 0) + tuple(ids)
    lp = 0.0
    for j in range(max(model.order - 1, 1), len(ext)):
        lp += float(np.log(model.conditional_dist(ext[j - model.order + 1: j])[ext[j]]))
    return lp


def assert_walk_matches_reference(model, l, n, seed):
    """Draws, recorded log p, scores and the generator state after the draw
    are exactly those of the per-symbol loops."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ids, lp = sample_fixed_length(model, rng.random((n, l - 2)))
    draws = [reference_sample_fixed_length(model, l, ref_rng) for _ in range(n)]
    assert ids.tolist() == [list(s) for s, _ in draws]
    assert lp.tobytes() == np.array([p for _, p in draws]).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert logprob_fixed_length(model, ids).tobytes() == lp.tobytes()
    sentence = np.array([reference_logprob_sentence(model, s) for s, _ in draws])
    assert logprob_sentence(model, ids).tobytes() == sentence.tobytes()


@pytest.fixture(scope="module")
def pilot():
    words = builtin_pilot_words()
    vocab = build_vocabulary(words, level="char")
    return vocab, [encode(w, vocab, level="char") for w in words]


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_walk_matches_per_symbol_loops(pilot, order):
    vocab, data = pilot
    model = train_ngram(data, order, vocab)
    for l in range(2, 6):
        for seed in range(3):
            assert_walk_matches_reference(model, l, 40, seed)
    # rows of uniformly random payload, mostly in contexts the corpus never has
    rng = np.random.default_rng(order)
    for l in range(2, 6):
        ids = np.column_stack([np.full(30, vocab.bos),
                               rng.choice(vocab.payload_ids, size=(30, l - 2)),
                               np.full(30, vocab.eos)])
        fixed = [reference_logprob_fixed_length(model, tuple(r)) for r in ids.tolist()]
        sentence = [reference_logprob_sentence(model, tuple(r)) for r in ids.tolist()]
        assert logprob_fixed_length(model, ids).tobytes() == np.array(fixed).tobytes()
        assert logprob_sentence(model, ids).tobytes() == np.array(sentence).tobytes()


def test_walk_in_a_context_never_seen(tiny_vocab, toy_corpus):
    model = train_ngram(toy_corpus, 3, tiny_vocab)
    b = tiny_vocab.id_of("b")
    assert (b, b) not in model.tables[3]
    ids = row(tiny_vocab.bos, b, b, b, tiny_vocab.eos)
    assert logprob_fixed_length(model, ids)[0] == reference_logprob_fixed_length(model, ids[0])
    assert logprob_sentence(model, ids)[0] == reference_logprob_sentence(model, tuple(ids[0]))
    for l in range(2, 6):
        assert_walk_matches_reference(model, l, 50, l)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_walk_with_one_payload_symbol(order):
    # V = 3: <unk> is the only payload symbol, so every draw is certain, yet
    # each payload symbol still takes one uniform, as rng.choice does
    vocab = Vocabulary(("<s>", "</s>", "<unk>"))
    model = train_ngram([encode(w, vocab, level="char") for w in ("z", "zz", "")], order, vocab)
    for l in range(2, 6):
        assert_walk_matches_reference(model, l, 5, l)
        ids, lp = sample_fixed_length(model, np.random.default_rng(0).random((5, l - 2)))
        assert (ids[:, 1:-1] == vocab.unk).all() and (lp == 0.0).all()


def test_serialization_roundtrip(tmp_path, tiny_vocab, toy_corpus):
    model = train_ngram(toy_corpus, 3, tiny_vocab)
    path = tmp_path / "m.json"
    save_ngram(model, path)
    clone = load_ngram(path)
    rng = np.random.default_rng(3)
    for _ in range(30):
        ctx = tuple(rng.integers(0, tiny_vocab.size, size=rng.integers(0, 3)).tolist())
        w = int(rng.integers(0, tiny_vocab.size))
        assert np.log(clone.conditional_dist(ctx)[w]) == np.log(model.conditional_dist(ctx)[w])


def test_serialization_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError):
        load_ngram(path)


# -- ARPA export oracle --------------------------------------------------------

def parse_arpa(path):
    grams = {}
    section = None
    for ln in open(path, encoding="utf-8"):
        ln = ln.strip()
        if ln.endswith("-grams:"):
            section = int(ln[1])
            continue
        if not ln or ln.startswith("\\") or ln.startswith("ngram "):
            continue
        parts = ln.split("\t")
        logp = float(parts[0])
        toks = tuple(parts[1].split())
        bow = float(parts[2]) if len(parts) > 2 else 0.0
        grams[toks] = (logp, bow)
    return grams


def arpa_prob(grams, ctx, w):
    """Standard backoff query over the parsed file."""
    if ctx + (w,) in grams:
        return grams[ctx + (w,)][0]
    if not ctx:
        raise KeyError(w)
    bow = grams[ctx][1] if ctx in grams else 0.0
    return bow + arpa_prob(grams, ctx[1:], w)


def test_arpa_export_reconstructs_model(tmp_path, tiny_vocab, toy_corpus):
    model = train_ngram(toy_corpus, 3, tiny_vocab)
    path = tmp_path / "m.arpa"
    export_arpa(model, tiny_vocab, path)
    grams = parse_arpa(path)
    rng = np.random.default_rng(5)
    for _ in range(100):
        ctx = tuple(rng.integers(0, tiny_vocab.size, size=rng.integers(0, 3)).tolist())
        w = int(rng.integers(0, tiny_vocab.size))
        toks = tuple(tiny_vocab.symbol_of(i) for i in ctx)
        wtok = tiny_vocab.symbol_of(w)
        expect = np.log(model.conditional_dist(ctx)[w]) / math.log(10)
        assert arpa_prob(grams, toks, wtok) == pytest.approx(expect, abs=1e-9)
