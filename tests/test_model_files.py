"""Every model-file reader either returns a model or raises one ValueError
naming the file it read, whatever the file holds. Each reader is fuzzed from a
small valid document with one key deleted or one value replaced by arbitrary
JSON, NaN and infinity included."""
import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trflm import serialize
from trflm.corpus import LengthPrior, Vocabulary, encode
from trflm.ngram import load_ngram, save_ngram, train_ngram
from trflm.seqnet import (LstmLmConfig, NeuralPotential, PotentialConfig,
                          init_lstm_lm_params, init_potential_params)
from trflm.trf import LstmReference, TrfModel

READERS = {"ngram": load_ngram, "potential": serialize.load_potential,
           "lstm": serialize.load_lstm_lm, "bundle": serialize.load_trf_bundle}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """kind -> (path, document) of a small valid file of each kind; the bundle
    trf.json names the potential, LSTM reference and vocabulary beside it."""
    d = tmp_path_factory.mktemp("models")
    vocab = Vocabulary(("<s>", "</s>", "<unk>", "a", "b"))
    words = [encode(w, vocab, level="char") for w in ("a", "ab", "ba", "b")]
    save_ngram(train_ngram(words, 2, vocab), d / "ngram.json")
    potential = init_potential_params(PotentialConfig(vocab.size, emb_dim=2, hidden_dim=2), 0)
    lstm = init_lstm_lm_params(LstmLmConfig(vocab.size, emb_dim=2, hidden_dim=2, max_len=4), 0)
    serialize.save_lstm_lm(lstm, d / "lstm.json")
    model = TrfModel(NeuralPotential(potential), np.zeros(4),
                     LengthPrior(np.array([0.0, 0.25, 0.5, 0.25])), LstmReference(lstm), vocab)
    serialize.save_trf_bundle(model, d, d / "lstm.json")
    files = {kind: d / f"{kind}.json" for kind in READERS} | {"bundle": d / "trf.json"}
    return {kind: (path, json.loads(path.read_text())) for kind, path in files.items()}


def paths(doc, prefix=()):
    """The path of every value in a JSON document, the root's included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, prefix + (key,))


@st.composite
def mutations(draw, doc):
    """doc with the value at one drawn path deleted or replaced."""
    path = draw(st.sampled_from(list(paths(doc))))
    if not path:
        return draw(JSON)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON)
    return doc


@pytest.mark.parametrize("kind", READERS)
def test_reader_returns_or_names_the_file(model_files, kind):
    path, doc = model_files[kind]
    READERS[kind](path)   # the unfuzzed document is valid
    fuzzed = path.parent / f"fuzzed-{kind}.json"

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(mutations(doc))
    def check(mutated):
        fuzzed.write_text(json.dumps(mutated))
        try:
            READERS[kind](fuzzed)
        except ValueError as exc:
            assert str(fuzzed) in str(exc)

    check()


def test_negative_convolution_size_names_the_file(model_files):
    path, doc = model_files["potential"]
    doc = copy.deepcopy(doc)
    doc["config"]["stack_layers"] = -1
    bad = path.parent / "negative-potential.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="stack_layers must not be negative") as exc:
        serialize.load_potential(bad)
    assert str(bad) in str(exc.value)


@pytest.mark.parametrize("kind", ["potential", "lstm"])
def test_loaded_tensors_are_views_of_one_vector(model_files, kind):
    params = READERS[kind](model_files[kind][0])
    assert all(np.shares_memory(v, params.flat) for v in params.tensors.values())
    params.flat[:] = np.arange(params.flat.size)   # the views tile flat in order
    assert np.array_equal(np.concatenate([v.ravel() for v in params.tensors.values()]),
                          params.flat)


def test_lstm_reference_must_score_the_longest_supported_length(model_files):
    # the bundle's LSTM reference has max_len 4: length 5 needs a longer one
    # only where the length prior supports it
    path, doc = model_files["bundle"]
    longer = path.parent / "longer-bundle.json"
    for pi, supported in (([0.0, 0.25, 0.5, 0.25, 0.0], True),
                          ([0.0, 0.25, 0.5, 0.0, 0.25], False)):
        longer.write_text(json.dumps(dict(doc, pi=pi, zeta=[0.0] * 5)))
        if supported:
            assert serialize.load_trf_bundle(longer).max_len == 5
            continue
        with pytest.raises(ValueError) as exc:
            serialize.load_trf_bundle(longer)
        assert str(exc.value) == (f"model bundle {longer}: {path.parent / 'reference.json'} scores "
                                  "lengths up to 4, but the model supports length 5")
