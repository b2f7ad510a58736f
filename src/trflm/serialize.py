"""Model file formats: named-tensor parameter files and the model bundle.

Everything is versioned JSON with full-precision decimal floats (shortest
round-tripping repr, which json uses natively), so saved models reload
bit-exactly.
"""
from __future__ import annotations

import json
import os

import numpy as np

from .corpus import LengthPrior
from .ngram import load_ngram
from .seqnet.lstmlm import LstmLmConfig, LstmLmParams
from .seqnet.potential import NeuralPotential, PotentialConfig, PotentialParams
from .trf import LstmReference, NgramReference, TrfModel, UniformReference
from .util import atomic_write_text, read_json

FORMAT_VERSION = 1


def _tensors_doc(tensors: dict[str, np.ndarray]) -> dict:
    return {name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
            for name, arr in tensors.items()}


def _tensors_from_doc(doc: dict) -> dict[str, np.ndarray]:
    return {name: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
            for name, entry in doc.items()}


def save_potential(params: PotentialParams, path) -> None:
    doc = {
        "format": "trflm-potential",
        "version": FORMAT_VERSION,
        "config": params.config.__dict__,
        "tensors": _tensors_doc(params.tensors),
    }
    atomic_write_text(path, json.dumps(doc))


def load_potential(path) -> PotentialParams:
    doc = read_json(path, "potential parameter file")
    if doc.get("format") != "trflm-potential" or doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"not a readable potential parameter file: {path}")
    return PotentialParams(PotentialConfig(**doc["config"]), _tensors_from_doc(doc["tensors"]))


def save_lstm_lm(params: LstmLmParams, path) -> None:
    doc = {
        "format": "trflm-lstm-lm",
        "version": FORMAT_VERSION,
        "config": params.config.__dict__,
        "tensors": _tensors_doc(params.tensors),
    }
    atomic_write_text(path, json.dumps(doc))


def load_lstm_lm(path) -> LstmLmParams:
    doc = read_json(path, "LSTM LM parameter file")
    if doc.get("format") != "trflm-lstm-lm" or doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"not a readable LSTM LM parameter file: {path}")
    return LstmLmParams(LstmLmConfig(**doc["config"]), _tensors_from_doc(doc["tensors"]))


def save_trf_bundle(model: TrfModel, path, potential_file: str,
                    vocab_file: str, reference_file: str | None = None) -> None:
    """The bundle references the potential parameter file and vocabulary by
    relative path and embeds zeta, the length prior, the reference descriptor,
    and the tokenization level."""
    ref = model.reference
    doc = {
        "format": "trflm-bundle",
        "version": FORMAT_VERSION,
        "potential_file": potential_file,
        "vocab_file": vocab_file,
        "level": model.level,
        "zeta": model.zeta.tolist(),
        "pi": model.length_prior.probs.tolist(),
        "reference": {"kind": ref.kind, "file": reference_file},
    }
    atomic_write_text(path, json.dumps(doc, indent=1))


def load_trf_bundle(path) -> TrfModel:
    """Loads and cross-checks a bundle; a malformed one raises ValueError
    naming it."""
    from .corpus import load_vocabulary
    doc = read_json(path, "model bundle")
    if not isinstance(doc, dict) or doc.get("format") != "trflm-bundle" \
            or doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"not a readable model bundle: {path}")
    missing = [k for k in ("potential_file", "vocab_file", "zeta", "pi", "reference")
               if k not in doc]
    if missing:
        raise ValueError(f"model bundle {path} lacks {', '.join(map(repr, missing))}")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    vocab = load_vocabulary(resolve(doc["vocab_file"]))

    def check_vocab_size(what, size):
        if size != vocab.size:
            raise ValueError(f"model bundle {path}: the {what} was built for a {size}-symbol "
                             f"vocabulary, but {doc['vocab_file']} has {vocab.size}")

    potential = NeuralPotential(load_potential(resolve(doc["potential_file"])))
    check_vocab_size("potential", potential.config.vocab_size)
    kind = doc["reference"].get("kind")
    ref_file = doc["reference"].get("file")
    if kind == "uniform":
        reference = UniformReference(len(vocab.payload_ids))
    elif kind == "ngram":
        reference = NgramReference(load_ngram(resolve(ref_file)))
        check_vocab_size("n-gram reference", reference.model.vocab_size)
    elif kind == "lstm":
        reference = LstmReference(load_lstm_lm(resolve(ref_file)))
        check_vocab_size("LSTM reference", reference.params.config.vocab_size)
    else:
        raise ValueError(f"model bundle {path}: unknown reference kind {kind!r}")
    try:
        return TrfModel(potential, np.array(doc["zeta"]), LengthPrior(np.array(doc["pi"])),
                        reference, vocab, doc.get("level", "word"))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model bundle {path}: {exc}") from None
