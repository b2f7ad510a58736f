"""Text ingestion: vocabulary, id-sequence encoding, empirical length statistics.

A Sequence is the trans-dimensional state (l, x^l): a tuple of symbol ids whose
length l counts every symbol, boundary symbols included. With boundaries
attached a word of 3 characters encodes to l = 5.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .util import atomic_write_text, read_text

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
RESERVED = (BOS, EOS, UNK)


def tokenize(line: str, level: str = "word") -> list[str]:
    if level == "word":
        return line.split()
    if level == "char":
        return [ch for ch in line if not ch.isspace()]
    raise ValueError(f"unknown tokenization level: {level!r}")


@dataclass(frozen=True)
class Vocabulary:
    """Bidirectional symbol<->id map. Ids 0..2 are the reserved begin/end/unknown."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 3 or self.symbols[:3] != RESERVED:
            raise ValueError("vocabulary must start with the reserved symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols in vocabulary")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    @property
    def size(self) -> int:
        return len(self.symbols)

    bos = property(lambda self: 0)
    eos = property(lambda self: 1)
    unk = property(lambda self: 2)

    @cached_property
    def payload_ids(self) -> tuple[int, ...]:
        """All ids except the two boundary symbols (unknown is ordinary payload)."""
        return tuple(i for i in range(self.size) if i not in (self.bos, self.eos))

    def id_of(self, token: str) -> int:
        return self._index.get(token, self.unk)

    def symbol_of(self, idx: int) -> str:
        return self.symbols[idx]

    def __contains__(self, token: str) -> bool:
        return token in self._index


@dataclass(frozen=True)
class Sequence:
    """A bounded-length id sequence; len() is the trans-dimensional length l."""

    ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class LengthPrior:
    """Probabilities pi_1..pi_m over sequence lengths; probs[l-1] = pi_l."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("length prior must be a nonempty vector")
        if not np.all(p >= 0) or abs(float(p.sum()) - 1.0) > 1e-12:   # NaN fails both
            raise ValueError("length prior entries must be >= 0 and sum to 1")

    @property
    def m(self) -> int:
        return int(self.probs.size)

    def prob(self, l: int) -> float:
        return float(self.probs[l - 1]) if 1 <= l <= self.m else 0.0

    def log_prob(self, l: int) -> float:
        p = self.prob(l)
        return float(np.log(p)) if p > 0 else -np.inf

    @property
    def supported_lengths(self) -> tuple[int, ...]:
        return tuple(int(l) for l in np.flatnonzero(self.probs > 0) + 1)


def build_vocabulary(corpus_lines, min_count: int = 1, max_size: int | None = None,
                     level: str = "word") -> Vocabulary:
    """Count tokens, keep those with count >= min_count, order by descending
    count with lexicographic tie-break. Reserved symbols are always present."""
    counts = Counter()
    for line in corpus_lines:
        counts.update(tokenize(line, level))
    for r in RESERVED:
        counts.pop(r, None)
    if not counts:
        raise ValueError("empty corpus: no tokens to build a vocabulary from")
    kept = sorted((t for t, c in counts.items() if c >= min_count),
                  key=lambda t: (-counts[t], t))
    if max_size is not None and max_size > 0:
        kept = kept[: max(0, max_size - len(RESERVED))]
    return Vocabulary(RESERVED + tuple(kept))


def encode(line: str, vocab: Vocabulary, level: str = "word",
           max_len: int | None = None) -> Sequence:
    """The line's tokens between the begin and end symbols."""
    ids = [vocab.bos] + [vocab.id_of(t) for t in tokenize(line, level)] + [vocab.eos]
    if max_len is not None and len(ids) > max_len:
        raise ValueError(f"encoded length {len(ids)} exceeds maximum {max_len} "
                         f"for line: {line!r}")
    return Sequence(tuple(ids))


def encode_corpus(lines, vocab: Vocabulary, level: str = "word",
                  max_len: int | None = None) -> list[Sequence]:
    return [encode(ln, vocab, level, max_len) for ln in lines]


def empirical_length_prior(dataset, m: int) -> LengthPrior:
    """pi_l = (# length-l sequences) / total; unseen lengths get exact 0."""
    if not dataset:
        raise ValueError("empty dataset: cannot estimate a length prior")
    counts = np.zeros(m, dtype=np.float64)
    for seq in dataset:
        l = len(seq)
        if not 1 <= l <= m:
            raise ValueError(f"sequence length {l} outside 1..{m}")
        counts[l - 1] += 1
    return LengthPrior(counts / counts.sum())


def read_corpus(path) -> list[str]:
    return [ln for ln in read_text(path, "corpus").split("\n") if ln.strip()]


def save_vocabulary(vocab: Vocabulary, path) -> None:
    """One token per line; the 3 reserved symbols head the file; id = line index."""
    atomic_write_text(path, "".join(s + "\n" for s in vocab.symbols))


def load_vocabulary(path) -> Vocabulary:
    """The vocabulary saved by save_vocabulary. Each symbol must be one
    whitespace-free token, as tokenize yields: an empty line or one with
    whitespace inside could never match a token."""
    try:
        with open(path, encoding="utf-8") as f:
            symbols = tuple(ln.rstrip("\n") for ln in f)
        for i, s in enumerate(symbols):
            if s.split() != [s]:
                raise ValueError(f"line {i + 1}: symbol {s!r} is empty or holds whitespace")
        return Vocabulary(symbols)
    except ValueError as exc:   # a symbol no tokenizer yields, a repeated one, or not UTF-8
        raise ValueError(f"vocabulary file {path}: {exc}") from None


def check_rows(ids: np.ndarray, vocab_size: int, bos: int, eos: int) -> None:
    """Raises ValueError unless every row of the (N, l) ids is [begin,
    payload..., end] over ids below vocab_size, with no boundary symbol inside
    the payload."""
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise ValueError("symbol id out of vocabulary range")
    if ids.shape[1] < 2 or (ids[:, 0] != bos).any() or (ids[:, -1] != eos).any():
        raise ValueError("sequences must be [begin, payload..., end]")
    if ((ids[:, 1:-1] == bos) | (ids[:, 1:-1] == eos)).any():
        raise ValueError("boundary symbol inside payload")


def length_buckets(seqs):
    """(row indices, (N, l) int64 ids) for each length l of seqs, ascending in
    l, rows in input order."""
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(seqs):
        groups.setdefault(len(s), []).append(i)
    for l in sorted(groups):
        idx = groups[l]
        yield idx, np.array([seqs[i].ids for i in idx], dtype=np.int64)
