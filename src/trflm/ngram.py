"""Interpolated Kneser-Ney n-gram language model.

Serves three roles: the fixed-length noise component for contrastive training,
a sentence-level rescoring baseline, and an optional reference distribution.

Smoothing recipe: one discount per order, D = n1/(n1 + 2*n2) from the
count-of-counts of that order's table (absolute 0.5 fallback when n1 or n2 is
zero). The highest order uses raw counts; every lower order uses continuation
counts (number of distinct one-symbol-longer contexts). The unigram level
interpolates with the uniform distribution over the full vocabulary, so every
symbol has nonzero mass and every conditional sums to exactly 1.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import Vocabulary, check_rows
from .util import atomic_write_text, parse_json_file

FORMAT_VERSION = 1


@dataclass
class NGramModel:
    order: int
    vocab_size: int
    bos: int
    eos: int
    # tables[k][context_tuple][next_id] -> count; raw at k == order, continuation below
    tables: dict[int, dict[tuple, Counter]]
    discounts: dict[int, float]
    _rows: dict[tuple, np.ndarray] = field(default_factory=dict, repr=False)

    def conditional_dist(self, context) -> np.ndarray:
        """P(. | context) over all vocab_size next symbols; sums to 1 exactly."""
        ctx = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        return self.table_row(ctx, False)[0]

    def _dist(self, ctx: tuple) -> np.ndarray:
        V = self.vocab_size
        if len(ctx) == 0:
            lower = np.full(V, 1.0 / V)
        else:
            lower = self.conditional_dist(ctx[1:])
        k = len(ctx) + 1
        counts = self.tables[k].get(ctx)
        if not counts:
            return np.array(lower)  # unseen context: full backoff
        vec = np.zeros(V)
        for w, c in counts.items():
            vec[w] = c
        total = vec.sum()
        types = int(np.count_nonzero(vec))
        D = self.discounts[k]
        return (np.maximum(vec - D, 0.0) + D * types * lower) / total

    def table_row(self, ctx: tuple, payload: bool) -> np.ndarray:
        """Built once per context: P(. | ctx) as a read-only (1, V) row, or
        with payload set the (2, V) CDF, built as Generator.choice builds it,
        and probabilities of the renormalized payload restriction."""
        row = self._rows.get((payload, ctx))
        if row is None:
            if payload:
                p = self.table_row(ctx, False)[0].copy()
                p[self.bos] = p[self.eos] = 0.0
                p /= p.sum()
                cdf = p.cumsum()
                row = np.array([cdf / cdf[-1], p])
            else:
                row = self._dist(ctx)[None]
                row.flags.writeable = False
            self._rows[(payload, ctx)] = row
        return row


def train_ngram(dataset, order: int, vocab: Vocabulary) -> NGramModel:
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not dataset:
        raise ValueError("empty dataset")
    tables: dict[int, dict[tuple, Counter]] = {k: {} for k in range(1, order + 1)}
    top = tables[order]
    for seq in dataset:   # every symbol after begin, in its begin-padded context
        ext = (vocab.bos,) * max(order - 2, 0) + tuple(seq.ids)
        for j in range(max(order - 1, 1), len(ext)):
            top.setdefault(ext[j - order + 1: j], Counter())[ext[j]] += 1
    # continuation counts: distinct one-longer contexts per (ctx, w)
    for k in range(order - 1, 0, -1):
        lower = tables[k]
        for vctx, counts in tables[k + 1].items():
            ctx = vctx[1:]
            tgt = lower.setdefault(ctx, Counter())
            for w in counts:
                tgt[w] += 1
    discounts = {}
    for k in range(1, order + 1):
        cofc = Counter()
        for counts in tables[k].values():
            for c in counts.values():
                cofc[c] += 1
        n1, n2 = cofc.get(1, 0), cofc.get(2, 0)
        discounts[k] = n1 / (n1 + 2.0 * n2) if n1 > 0 and n2 > 0 else 0.5
    return NGramModel(order, vocab.size, vocab.bos, vocab.eos, tables, discounts)


def _walk(model: NGramModel, ids: np.ndarray, payload: bool, u=None) -> np.ndarray:
    """Sum of log P(symbol | context) over the (N, l) ids, one column at a time
    from table_row: the payload columns under the payload restriction, each
    first drawn into ids with the (N, l-2) uniforms u when given, as
    Generator.choice draws; else every column after begin, unrestricted."""
    n, l = ids.shape
    k = model.order - 1
    ext = np.concatenate([np.full((n, k), model.bos, ids.dtype), ids], axis=1)   # begin-padded
    lp = np.zeros(n)
    for j in range(1, l - 1 if payload else l):
        contexts = map(tuple, ext[:, j:j + k].tolist())
        rows = np.array([model.table_row(c, payload) for c in contexts])
        if u is not None:   # the first CDF entry above the uniform
            ext[:, j + k] = ids[:, j] = (rows[:, 0] > u[:, j - 1, None]).argmax(axis=1)
        lp += np.log(rows[np.arange(n), -1, ext[:, j + k]])
    return lp


def logprob_fixed_length(model: NGramModel, ids: np.ndarray) -> np.ndarray:
    """log p_n(x^l) of each (N, l) row under the given-length restriction: payload
    conditionals renormalized, the end symbol certain. Sums to 1 over a length."""
    check_rows(ids, model.vocab_size, model.bos, model.eos)
    return _walk(model, ids, True)


def sample_fixed_length(model: NGramModel, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, l) ids drawn from the length-l restriction with (N, l-2) uniforms, and
    their log p, by the walk logprob_fixed_length scores with. rng.random's
    uniforms taken row after row are those of one rng.choice per symbol."""
    ids = np.full((u.shape[0], u.shape[1] + 2), model.bos, dtype=np.int64)
    ids[:, -1] = model.eos
    return ids, _walk(model, ids, True, u)


def logprob_sentence(model: NGramModel, ids: np.ndarray) -> np.ndarray:
    """Joint log-probability of each row of the (N, l) ids, the end symbol
    predicted too (no length restriction); the rescoring baseline score."""
    check_rows(ids, model.vocab_size, model.bos, model.eos)
    return _walk(model, ids, False)


# -- serialization ------------------------------------------------------------

def _ctx_key(ctx: tuple) -> str:
    return " ".join(str(i) for i in ctx)


def to_json_dict(model: NGramModel) -> dict:
    return {
        "format": "trflm-ngram",
        "version": FORMAT_VERSION,
        "order": model.order,
        "vocab_size": model.vocab_size,
        "bos": model.bos,
        "eos": model.eos,
        "discounts": {str(k): model.discounts[k] for k in sorted(model.discounts)},
        "tables": {
            str(k): {_ctx_key(ctx): {str(w): c for w, c in sorted(counts.items())}
                     for ctx, counts in sorted(model.tables[k].items())}
            for k in sorted(model.tables)
        },
    }


def from_json_dict(doc) -> NGramModel:
    """The model of a to_json_dict document; a document of another shape raises
    ValueError saying what is wrong."""
    if not isinstance(doc, dict) or doc.get("format") != "trflm-ngram" \
            or doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"not a trflm-ngram file of version {FORMAT_VERSION}")
    order, size, bos, eos = head = [doc.get(k) for k in ("order", "vocab_size", "bos", "eos")]
    if not all(type(v) is int for v in head) or order < 1 or bos == eos \
            or not (0 <= bos < size and 0 <= eos < size):
        raise ValueError("order >= 1, vocab_size, and distinct bos and eos below it must be ints")
    tables, discounts = doc.get("tables"), doc.get("discounts")
    if not all(isinstance(v, dict) and len(v) == order for v in (tables, discounts)) \
            or not tables.keys() == discounts.keys() == set(map(str, range(1, order + 1))) \
            or not all(type(d) in (int, float) and 0 <= d <= 1 for d in discounts.values()):
        raise ValueError(f"tables and discounts (in [0, 1]) must be keyed by the orders 1..{order}")
    model = NGramModel(order, size, bos, eos, {}, {int(k): d for k, d in discounts.items()})
    for k, ctxs in tables.items():
        problem = ValueError(f"the order-{k} table must map {int(k) - 1} context ids to "
                             f"positive counts of ids below {size}")
        if not isinstance(ctxs, dict) or not all(isinstance(c, dict) for c in ctxs.values()):
            raise problem
        model.tables[int(k)] = table = {
            tuple(map(int, key.split())): Counter({int(w): c for w, c in counts.items()})
            for key, counts in ctxs.items()}
        if not all(len(ctx) == int(k) - 1 and all(0 <= i < size for i in ctx + tuple(counts))
                   and all(type(c) is int and c > 0 for c in counts.values())
                   for ctx, counts in table.items()):
            raise problem
    return model


def save_ngram(model: NGramModel, path) -> None:
    atomic_write_text(path, json.dumps(to_json_dict(model), indent=1))


def load_ngram(path) -> NGramModel:
    return parse_json_file(path, "n-gram model file", from_json_dict)


# -- ARPA export --------------------------------------------------------------

def export_arpa(model: NGramModel, vocab: Vocabulary, path) -> None:
    """Standard \\data\\ / \\n-grams: backoff file equivalent to this model.

    Listed k-grams carry the interpolated probability; backoff weights are the
    leftover-mass ratio, which reproduces the interpolated model exactly for
    unlisted continuations.
    """
    entries: dict[int, dict[tuple, dict]] = {k: {} for k in range(1, model.order + 1)}
    for k in range(1, model.order + 1):
        for ctx, counts in model.tables[k].items():
            for w in counts:
                entries[k].setdefault(ctx, {})[w] = None
    # every vocabulary symbol is a listed 1-gram (smoothing gives all of them mass)
    entries[1].setdefault((), {})
    for w in range(model.vocab_size):
        entries[1][()].setdefault(w, None)
    # every context of a listed (k+1)-gram must itself be a listed k-gram
    for k in range(model.order - 1, 0, -1):
        for ctx in entries[k + 1]:
            entries[k].setdefault(ctx[:-1], {}).setdefault(ctx[-1], None)

    def log10(p):
        return float(np.log10(p))

    lines = ["\\data\\"]
    sections = {}
    for k in range(1, model.order + 1):
        rows = []
        for ctx in sorted(entries[k]):
            dist = model.conditional_dist(ctx)
            words = sorted(entries[k][ctx])
            for w in words:
                gram = ctx + (w,)
                toks = " ".join(vocab.symbol_of(i) for i in gram)
                row = f"{log10(dist[gram[-1]])!r}\t{toks}"
                if k < model.order and gram in entries[k + 1]:
                    seen = sorted(entries[k + 1][gram])
                    hi = model.conditional_dist(gram)
                    lo = model.conditional_dist(gram[1:])
                    num = 1.0 - float(np.sum(hi[seen]))
                    den = 1.0 - float(np.sum(lo[seen]))
                    bow = num / den if den > 0 else 1.0
                    row += f"\t{log10(max(bow, 1e-99))!r}"
                rows.append(row)
        sections[k] = rows
        lines.append(f"ngram {k}={len(rows)}")
    for k in range(1, model.order + 1):
        lines.append("")
        lines.append(f"\\{k}-grams:")
        lines.extend(sections[k])
    lines.append("")
    lines.append("\\end\\")
    atomic_write_text(path, "\n".join(lines) + "\n")
