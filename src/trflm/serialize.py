"""Model file formats: named-tensor parameter files and the model bundle.

Everything is versioned JSON with full-precision decimal floats (shortest
round-tripping repr, which json uses natively), so saved models reload
bit-exactly. Every reader checks what it reads and names a malformed file.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import shutil

import numpy as np

from .corpus import LengthPrior, Vocabulary, load_vocabulary, save_vocabulary
from .ngram import load_ngram
from .seqnet.layers import Params
from .seqnet.lstmlm import LstmLmConfig
from .seqnet.potential import NeuralPotential, PotentialConfig
from .trf import LstmReference, NgramReference, TrfModel, UniformReference
from .util import atomic_write_text, parse_json_file

FORMAT_VERSION = 1


def _save_params(params: Params, path, fmt: str) -> None:
    doc = {
        "format": fmt,
        "version": FORMAT_VERSION,
        "config": params.config.__dict__,
        "tensors": {name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
                    for name, arr in params.tensors.items()},
    }
    atomic_write_text(path, json.dumps(doc))


def _finite_vector(value, what: str) -> np.ndarray:
    """value as a float64 vector, if it is a list of finite numbers."""
    arr = np.array(value if isinstance(value, list) else None)
    if arr.dtype.kind not in "iuf" or arr.ndim != 1 or not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be a list of finite numbers")
    return arr.astype(np.float64, copy=False)


def _params_from_doc(doc, fmt: str, config_class) -> Params:
    """The parameters of a _save_params document, checked against their config."""
    if not isinstance(doc, dict) or doc.get("format") != fmt \
            or doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"not a {fmt} file of version {FORMAT_VERSION}")
    raw = doc.get("config")
    if not isinstance(raw, dict) or not all(type(v) is int for v in raw.values()):
        raise ValueError("'config' must map names to integers")
    try:
        config = config_class(**raw)
    except TypeError as exc:
        raise ValueError(f"bad config: {exc}") from None
    entries = doc.get("tensors")
    if not isinstance(entries, dict):
        raise ValueError("'tensors' must be an object")
    # one shape past the entries at most, however many layers the config asks for
    shapes = dict(itertools.islice(config.param_shapes(), len(entries) + 1))
    if shapes.keys() != entries.keys():
        raise ValueError(f"missing tensors {sorted(shapes.keys() - entries.keys())}, "
                         f"unexpected {sorted(entries.keys() - shapes.keys())}")
    parts = []
    for name, shape in shapes.items():
        entry = entries[name] if isinstance(entries[name], dict) else {}
        parts.append(_finite_vector(entry.get("data"), f"the data of tensor {name!r}"))
        if entry.get("shape") != list(shape) or parts[-1].size != math.prod(shape):
            raise ValueError(f"tensor {name!r} must have shape {list(shape)} and that many values")
    return Params(config, np.concatenate(parts))


def save_potential(params: Params, path) -> None:
    _save_params(params, path, "trflm-potential")


def load_potential(path) -> Params:
    return parse_json_file(path, "potential parameter file",
                           lambda doc: _params_from_doc(doc, "trflm-potential", PotentialConfig))


def save_lstm_lm(params: Params, path) -> None:
    _save_params(params, path, "trflm-lstm-lm")


def load_lstm_lm(path) -> Params:
    return parse_json_file(path, "LSTM LM parameter file",
                           lambda doc: _params_from_doc(doc, "trflm-lstm-lm", LstmLmConfig))


def load_model_file(kind: str, path, vocab: Vocabulary):
    """The parameters of a potential or LSTM LM, or the n-gram model, in path (kind
    "potential", "lstm" or "ngram"), checked against the vocabulary they score:
    its size, and the begin and end ids of an LM."""
    model = {"potential": load_potential, "ngram": load_ngram, "lstm": load_lstm_lm}[kind](path)
    held = model if kind == "ngram" else model.config
    if held.vocab_size != vocab.size:
        raise ValueError(f"{path} was built for a {held.vocab_size}-symbol vocabulary, "
                         f"but the vocabulary has {vocab.size}")
    if kind != "potential" and (held.bos, held.eos) != (vocab.bos, vocab.eos):
        raise ValueError(f"{path} begins and ends sequences with ids {held.bos} and "
                         f"{held.eos}, but the vocabulary with {vocab.bos} and {vocab.eos}")
    return model


REFERENCE_KINDS = ("uniform", "ngram", "lstm")


def load_reference(kind: str, path, vocab: Vocabulary, longest: int):
    """The reference distribution of a kind in REFERENCE_KINDS over vocab; an
    "ngram" or "lstm" reference scores with the model file in path, and an LSTM
    LM must score every length up to longest, the model's (a longer max_len
    only changes q's normalization, which zeta absorbs)."""
    if kind == "uniform":
        return UniformReference(len(vocab.payload_ids))
    model = load_model_file(kind, path, vocab)
    if kind == "lstm" and model.config.max_len < longest:
        raise ValueError(f"{path} scores lengths up to {model.config.max_len}, "
                         f"but the model supports length {longest}")
    return NgramReference(model) if kind == "ngram" else LstmReference(model)


def save_trf_bundle(model: TrfModel, out_dir, reference_file=None) -> None:
    """Writes the bundle trf.json into out_dir beside the files it names by
    relative path: the vocabulary, the potential's parameters and a copy of
    the reference's model file, if any. trf.json embeds zeta, the length
    prior, the reference descriptor and the tokenization level."""
    save_vocabulary(model.vocab, os.path.join(out_dir, "vocab.txt"))
    save_potential(model.potential.params, os.path.join(out_dir, "potential.json"))
    ref_name = None
    if reference_file is not None:
        ref_name = "reference" + os.path.splitext(reference_file)[1]
        shutil.copyfile(reference_file, os.path.join(out_dir, ref_name))
    doc = {
        "format": "trflm-bundle",
        "version": FORMAT_VERSION,
        "potential_file": "potential.json",
        "vocab_file": "vocab.txt",
        "level": model.level,
        "zeta": model.zeta.tolist(),
        "pi": model.length_prior.probs.tolist(),
        "reference": {"kind": model.reference.kind, "file": ref_name},
    }
    atomic_write_text(os.path.join(out_dir, "trf.json"), json.dumps(doc, indent=1))


def _bundle_from_doc(doc, base: str) -> TrfModel:
    if not isinstance(doc, dict) or doc.get("format") != "trflm-bundle" \
            or doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"not a trflm-bundle file of version {FORMAT_VERSION}")
    ref = doc.get("reference") if isinstance(doc.get("reference"), dict) else {}

    def resolve(where: dict, key: str) -> str:
        p = where.get(key)
        if not isinstance(p, str):
            raise ValueError(f"{key!r} must be a file name")
        return p if os.path.isabs(p) else os.path.join(base, p)

    vocab = load_vocabulary(resolve(doc, "vocab_file"))
    potential = load_model_file("potential", resolve(doc, "potential_file"), vocab)
    kind = ref.get("kind")
    if kind not in REFERENCE_KINDS:
        raise ValueError(f"'reference' must name a known kind, not {kind!r}")
    prior = LengthPrior(_finite_vector(doc.get("pi"), "'pi'"))
    reference = load_reference(kind, None if kind == "uniform" else resolve(ref, "file"), vocab,
                               max(prior.supported_lengths))
    return TrfModel(NeuralPotential(potential), _finite_vector(doc.get("zeta"), "'zeta'"),
                    prior, reference, vocab, doc.get("level", "word"))


def load_trf_bundle(path) -> TrfModel:
    """Loads a bundle and cross-checks it and the files it names; a malformed
    one raises ValueError naming it."""
    base = os.path.dirname(os.path.abspath(path))
    return parse_json_file(path, "model bundle", lambda doc: _bundle_from_doc(doc, base))
