import numpy as np
import pytest
from hypothesis import given, strategies as st

from trflm import corpus
from trflm.corpus import (LengthPrior, Sequence, build_vocabulary,
                          empirical_length_prior, encode, load_vocabulary,
                          save_vocabulary)


def test_build_vocabulary_direct_count():
    v = build_vocabulary(["a b", "a"], min_count=1)
    assert set(v.symbols) == {"<s>", "</s>", "<unk>", "a", "b"}
    assert v.size == 5


def test_build_vocabulary_threshold():
    v = build_vocabulary(["a b", "a"], min_count=2)
    assert v.size == 4
    assert "b" not in v
    s = encode("b", v)
    assert s.ids == (v.bos, v.unk, v.eos)


def test_build_vocabulary_ordering_and_determinism():
    rng = np.random.default_rng(0)
    lines = [" ".join(rng.choice(list("abcdefgh"), size=5)) for _ in range(100)]
    v1 = build_vocabulary(lines)
    v2 = build_vocabulary(list(lines))
    assert v1.symbols == v2.symbols
    counts = {}
    for ln in lines:
        for t in ln.split():
            counts[t] = counts.get(t, 0) + 1
    ordered = v1.symbols[3:]
    assert list(ordered) == sorted(ordered, key=lambda t: (-counts[t], t))


def test_build_vocabulary_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocabulary([])
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocabulary(["   ", ""])


def test_build_vocabulary_max_size():
    v = build_vocabulary(["a a a b b c"], max_size=4)
    assert v.size == 4 and "a" in v and "b" not in v


def test_encode_char_level_word():
    v = build_vocabulary(["cat dog"], level="char")
    s = encode("cat", v, attach_boundaries=True, level="char")
    assert s.ids == (v.bos, v.id_of("c"), v.id_of("a"), v.id_of("t"), v.eos)


def test_encode_empty_payload():
    v = build_vocabulary(["a"])
    assert encode("", v).ids == (v.bos, v.eos)


def test_encode_unknown_substitution():
    v = build_vocabulary(["az qz"], level="char")
    s = encode("wq", v, level="char")
    assert s.ids == (v.bos, v.unk, v.id_of("q"), v.eos)


def test_encode_length_error_names_line():
    v = build_vocabulary(["a b c"])
    with pytest.raises(ValueError, match="a b c d"):
        encode("a b c d", v, max_len=4)


def test_empirical_length_prior_direct():
    seqs = [Sequence((0,)), Sequence((0,)), Sequence((0, 1))]
    p = empirical_length_prior(seqs, 3)
    assert np.allclose(p.probs, [2 / 3, 1 / 3, 0.0])
    assert p.probs[2] == 0.0


def test_empirical_length_prior_single_length():
    p = empirical_length_prior([Sequence((0, 1))], 2)
    assert p.probs.tolist() == [0.0, 1.0]
    assert p.supported_lengths == (2,)


def test_empirical_length_prior_errors():
    with pytest.raises(ValueError, match="empty"):
        empirical_length_prior([], 3)
    with pytest.raises(ValueError, match="outside"):
        empirical_length_prior([Sequence((0, 1, 2))], 2)


def test_empirical_length_prior_matches_independent_count(tmp_path):
    # independent counting pass on the bundled short-word list
    from trflm.cli import builtin_pilot_words
    words = builtin_pilot_words()
    v = build_vocabulary(words, level="char")
    seqs = [encode(w, v, level="char") for w in words]
    p = empirical_length_prior(seqs, 5)
    assert abs(float(p.probs.sum()) - 1.0) <= 1e-12
    by_len = {}
    for w in words:
        by_len[len(w) + 2] = by_len.get(len(w) + 2, 0) + 1
    for l, c in by_len.items():
        assert p.prob(l) == c / len(words)
    again = empirical_length_prior(list(seqs), 5)
    assert np.array_equal(p.probs, again.probs)   # bit-reproducible


def test_length_prior_validation():
    with pytest.raises(ValueError):
        LengthPrior(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        LengthPrior(np.array([-0.1, 1.1]))
    p = LengthPrior(np.array([0.25, 0.75]))
    assert p.log_prob(1) == pytest.approx(np.log(0.25))
    assert p.log_prob(5) == -np.inf


def test_vocabulary_roundtrip_file(tmp_path):
    v = build_vocabulary(["the cat sat on the mat"], min_count=1)
    path = tmp_path / "vocab.txt"
    save_vocabulary(v, path)
    lines = path.read_text().splitlines()
    assert lines[:3] == ["<s>", "</s>", "<unk>"]
    v2 = load_vocabulary(path)
    assert v2.symbols == v.symbols
    assert v2.id_of("the") == v.id_of("the")


def test_vocabulary_invariants():
    v = build_vocabulary(["x y z"])
    for i in range(v.size):
        assert v.id_of(v.symbol_of(i)) == i
    assert len({v.bos, v.eos, v.unk}) == 3 and max(v.bos, v.eos, v.unk) < v.size
    assert v.size >= 3
    assert set(v.payload_ids) == set(range(v.size)) - {v.bos, v.eos}


def test_tokenize_levels():
    assert corpus.tokenize("a bc", "word") == ["a", "bc"]
    assert corpus.tokenize("a bc", "char") == ["a", "b", "c"]
    with pytest.raises(ValueError):
        corpus.tokenize("a", "phoneme")
