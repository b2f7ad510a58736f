"""N-best rescoring, log-linear model combination, and word error rate.

N-best file format, one hypothesis per line:

    <utt-id> <rank> <acoustic-score|NA> <token ...>

References file: `<utt-id> <token ...>`. Scores combine log-linearly:
sum_i weight_i * logprob_i(hyp), plus the acoustic score verbatim when
present. Combination weights are tuned by grid search over the weight simplex
(step 0.1) to minimize WER on a development set.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import ngram as ngram_mod
from .corpus import Vocabulary, encode, length_buckets
from .seqnet import Params, lstmlm
from .trf import TrfModel, log_joint_batch
from .util import atomic_write_text, fmt, read_text


@dataclass(frozen=True)
class Hypothesis:
    text: str
    acoustic: float | None
    rank: int


@dataclass(frozen=True)
class NBestList:
    utt_id: str
    hypotheses: tuple[Hypothesis, ...]

    def __post_init__(self):
        if not self.hypotheses:
            raise ValueError(f"utterance {self.utt_id!r} has no hypotheses")


def read_nbest_file(path) -> list[NBestList]:
    """Malformed lines raise ValueError naming the file and the line, and a
    file without hypotheses one naming the file."""
    by_utt: dict[str, list[Hypothesis]] = {}
    order: list[str] = []
    for lineno, ln in enumerate(read_text(path, "n-best file").split("\n"), 1):
        fields = ln.split()
        if not fields:
            continue
        where = f"{path}:{lineno}"
        if len(fields) < 3:
            raise ValueError(f"{where}: expected '<utt-id> <rank> <acoustic-score|NA> "
                             f"<token ...>', got {ln.strip()!r}")
        utt, rank, ac, *toks = fields
        try:
            rank = int(rank)
        except ValueError:
            raise ValueError(f"{where}: rank must be an integer, got {rank!r}") from None
        acoustic = None
        if ac != "NA":
            try:
                acoustic = float(ac)
            except ValueError:
                acoustic = np.nan
            if not np.isfinite(acoustic):
                raise ValueError(f"{where}: acoustic score must be a finite number "
                                 f"or NA, got {ac!r}")
        if utt not in by_utt:
            by_utt[utt] = []
            order.append(utt)
        by_utt[utt].append(Hypothesis(" ".join(toks), acoustic, rank))
    if not order:
        raise ValueError(f"{path}: the n-best file holds no hypotheses")
    return [NBestList(u, tuple(sorted(by_utt[u], key=lambda h: h.rank)))
            for u in order]


def read_refs_file(path) -> dict[str, str]:
    """Malformed lines raise ValueError naming the file and the line."""
    refs = {}
    for lineno, ln in enumerate(read_text(path, "reference file").split("\n"), 1):
        if not ln.strip():
            continue
        utt, *toks = ln.split()
        if not toks:
            raise ValueError(f"{path}:{lineno}: reference {utt!r} has no tokens")
        if utt in refs:
            raise ValueError(f"{path}:{lineno}: reference {utt!r} is repeated")
        refs[utt] = " ".join(toks)
    return refs


def write_nbest_file(nbests, path) -> None:
    lines = []
    for nb in nbests:
        for h in nb.hypotheses:
            ac = "NA" if h.acoustic is None else fmt(h.acoustic)
            lines.append(f"{nb.utt_id} {h.rank} {ac} {h.text}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_refs_file(refs: dict, path) -> None:
    atomic_write_text(path, "".join(f"{u} {t}\n" for u, t in refs.items()))


# -- sentence scorers ----------------------------------------------------------
#
# A scorer maps texts to sentence log-probabilities in one batch:
# logprob_batch(texts) -> (n,) float64 array.

class _Scorer:
    """Scores the texts' length buckets with self._score(ids) -> (N,)."""

    def logprob_batch(self, texts) -> np.ndarray:
        seqs = [encode(t, self.vocab, self.level) for t in texts]
        out = np.empty(len(seqs))
        for idx, ids in length_buckets(seqs):
            out[idx] = self._score(ids)
        return out

    def logprob(self, text: str) -> float:
        """One text through logprob_batch, for callers that score one text."""
        return float(self.logprob_batch([text])[0])


class NgramScorer(_Scorer):
    kind = "ngram"

    def __init__(self, model: ngram_mod.NGramModel, vocab: Vocabulary, level: str = "word"):
        self.model, self.vocab, self.level = model, vocab, level

    def _score(self, ids: np.ndarray) -> np.ndarray:
        return ngram_mod.logprob_sentence(self.model, ids)


class LstmScorer(_Scorer):
    """Zero probability (-inf) for a sentence longer than the LSTM's max_len;
    such a sentence is never forwarded."""

    kind = "lstm"

    def __init__(self, params: Params, vocab: Vocabulary, level: str = "word"):
        self.params, self.vocab, self.level = params, vocab, level

    def _score(self, ids: np.ndarray) -> np.ndarray:
        if ids.shape[1] > self.params.config.max_len:
            return np.full(ids.shape[0], -np.inf)
        return lstmlm.lstm_lm_logprob_batch(self.params, ids)


class TrfScorer(_Scorer):
    """Scores with the stored zeta; no normalization oracle at inference."""

    kind = "trf"

    def __init__(self, model: TrfModel, level: str = "word"):
        self.model, self.vocab, self.level = model, model.vocab, level

    def _score(self, ids: np.ndarray) -> np.ndarray:
        return log_joint_batch(self.model, ids)


# -- word error rate -----------------------------------------------------------

@dataclass(frozen=True)
class WerResult:
    substitutions: int
    insertions: int
    deletions: int
    ref_tokens: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def rate(self) -> float:
        return self.errors / self.ref_tokens


def wer(reference: str, hypothesis: str) -> WerResult:
    """Unit-cost Levenshtein alignment between token sequences."""
    ref = reference.split()
    hyp = hypothesis.split()
    if not ref:
        raise ValueError("reference must be nonempty")
    n, m = len(ref), len(hyp)
    # Python lists: indexing one is several times faster than a numpy scalar.
    cost = [list(range(m + 1))] + [[i] + [0] * m for i in range(1, n + 1)]
    for i in range(1, n + 1):
        prev, row, r = cost[i - 1], cost[i], ref[i - 1]
        for j in range(1, m + 1):
            row[j] = min(prev[j - 1] + (r != hyp[j - 1]), prev[j] + 1, row[j - 1] + 1)
    s = ins = dele = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and cost[i][j] == cost[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            s += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif i > 0 and cost[i][j] == cost[i - 1][j] + 1:
            dele += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return WerResult(s, ins, dele, n)


def corpus_wer(refs: dict[str, str], best: dict[str, str]) -> WerResult:
    """Pooled error counts over utterances: sum(S+I+D) / sum(ref lengths)."""
    s = i = d = n = 0
    for utt, ref in refs.items():
        r = wer(ref, best[utt])
        s, i, d, n = s + r.substitutions, i + r.insertions, d + r.deletions, n + r.ref_tokens
    return WerResult(s, i, d, n)


# -- weight tuning -------------------------------------------------------------

GRID_TICKS = 10   # the weight grid's step is 1 / GRID_TICKS = 0.1


def _simplex_grid(k: int):
    """All nonnegative weight vectors of k entries summing to 1 in steps of
    0.1, in lexicographic order."""
    for head in itertools.product(range(GRID_TICKS + 1), repeat=k - 1):
        if sum(head) <= GRID_TICKS:
            yield tuple(c / GRID_TICKS for c in (*head, GRID_TICKS - sum(head)))


@dataclass(frozen=True)
class ScoreTable:
    """Scored n-best lists as (U, H) arrays padded to the longest list: member
    log-probs (U, H, M), acoustic scores (0 for NA), ranks, and a mask of the
    real hypotheses."""
    scores: np.ndarray
    acoustic: np.ndarray
    rank: np.ndarray
    real: np.ndarray


def precompute_member_scores(members, nbests) -> ScoreTable:
    """The score table of the n-best lists. Each member scores the hypotheses
    of all utterances in one logprob_batch call; the mask's cells, read
    row-major, are those hypotheses in order."""
    hyps = [h for nb in nbests for h in nb.hypotheses]
    lengths = np.array([len(nb.hypotheses) for nb in nbests])
    real = np.arange(lengths.max()) < lengths[:, None]
    table = ScoreTable(np.zeros(real.shape + (len(members),)), np.zeros(real.shape),
                       np.zeros(real.shape, dtype=np.int64), real)
    texts = [x.text for x in hyps]
    table.scores[real] = np.column_stack(
        [np.asarray(m.logprob_batch(texts), dtype=np.float64) for m in members])
    table.acoustic[real] = [0.0 if x.acoustic is None else x.acoustic for x in hyps]
    table.rank[real] = [x.rank for x in hyps]
    return table


def _pick(table: ScoreTable, w: np.ndarray) -> np.ndarray:
    """Index of each utterance's best hypothesis under member weights w: the
    highest combined score, ties to the lowest rank; padding never wins."""
    totals = np.zeros(table.real.shape)
    for m in np.flatnonzero(w):   # skip weight 0 so a -inf member score cannot poison it
        totals += w[m] * table.scores[:, :, m]
    totals += table.acoustic
    top = np.where(table.real, totals, -np.inf).max(axis=1, keepdims=True)
    tied = table.real & (totals == top)
    return np.where(tied, table.rank, np.iinfo(np.int64).max).argmin(axis=1)


def rescore_with_weights(table: ScoreTable, weights, nbests) -> dict[str, str]:
    """Best hypothesis per utterance of the table's n-best lists under the
    given member weights."""
    picks = _pick(table, np.asarray(weights, dtype=np.float64))
    return {nb.utt_id: nb.hypotheses[i].text for nb, i in zip(nbests, picks)}


def grid_search_weights(table: ScoreTable, nbests, refs):
    """Simplex grid search minimizing corpus WER; first minimizer wins. Each
    hypothesis's word errors are computed once."""
    if {nb.utt_id for nb in nbests} != set(refs):
        raise ValueError("n-best lists and references cover different utterances")
    errors = np.zeros(table.real.shape, dtype=np.int64)
    errors[table.real] = [wer(refs[nb.utt_id], h.text).errors
                          for nb in nbests for h in nb.hypotheses]
    ref_tokens = sum(len(r.split()) for r in refs.values())
    rows = np.arange(len(nbests))
    best_w, best_rate = None, np.inf
    for w in _simplex_grid(table.scores.shape[2]):
        rate = int(errors[rows, _pick(table, np.asarray(w))].sum()) / ref_tokens
        if rate < best_rate - 1e-15:
            best_w, best_rate = w, rate
    return best_w, best_rate


# -- synthetic benchmark -------------------------------------------------------

def make_nbest_benchmark(source: ngram_mod.NGramModel, vocab: Vocabulary,
                         length_prior, rng: np.random.Generator, n_utts: int = 40,
                         n_hyps: int = 8, level: str = "char", tag: str = "utt"):
    """References sampled from a known n-gram model; hypotheses are the
    reference plus payload corruptions, with acoustic scores that lose one per
    injected error, plus N(0, 0.8^2) noise. Corruption keeps payload lengths
    within the prior's support."""
    sep = " " if level == "word" else ""
    # the unknown symbol never appears in real hypothesis text
    payload = [i for i in range(vocab.size)
               if i not in (vocab.bos, vocab.eos, vocab.unk)]
    if not payload:
        raise ValueError("benchmark needs at least one non-reserved symbol")
    min_l = min(length_prior.supported_lengths)
    max_l = max(length_prior.supported_lengths)
    if max_l <= 2:
        raise ValueError("benchmark references need at least one payload symbol")

    def to_text(ids):
        return sep.join(vocab.symbol_of(i) for i in ids)

    nbests, refs = [], {}
    for u in range(n_utts):
        while True:
            l = int(rng.choice(length_prior.m, p=length_prior.probs)) + 1
            (ids,), _ = ngram_mod.sample_fixed_length(source, rng.random((1, l - 2)))
            if l > 2 and vocab.unk not in ids:   # nonempty, renderable reference
                break
        ref_ids = ids[1:-1].tolist()
        refs[f"{tag}{u:04d}"] = to_text(ref_ids)
        seen = {tuple(ref_ids)}
        hyps = [(ref_ids, 0)]
        while len(hyps) < n_hyps:
            ids = list(ref_ids)
            n_edits = int(rng.integers(1, 3))
            for _ in range(n_edits):
                ops = []
                if ids:
                    ops.append("sub")
                if len(ids) >= min_l - 1:      # deletion keeps payload in support
                    ops.append("del")
                if len(ids) <= max_l - 3:      # insertion keeps payload in support
                    ops.append("ins")
                op = ops[int(rng.integers(len(ops)))]
                if op == "sub":
                    ids[int(rng.integers(len(ids)))] = int(rng.choice(payload))
                elif op == "del":
                    del ids[int(rng.integers(len(ids)))]
                else:
                    ids.insert(int(rng.integers(len(ids) + 1)), int(rng.choice(payload)))
            if tuple(ids) not in seen:
                seen.add(tuple(ids))
                hyps.append((ids, n_edits))
        hyp_objs = []
        for rank, (ids, n_edits) in enumerate(hyps):
            ac = -n_edits + float(rng.normal(0.0, 0.8))
            hyp_objs.append(Hypothesis(to_text(ids), ac, rank))
        perm = rng.permutation(len(hyp_objs))
        hyp_objs = tuple(Hypothesis(hyp_objs[i].text, hyp_objs[i].acoustic, r)
                         for r, i in enumerate(perm))
        nbests.append(NBestList(f"{tag}{u:04d}", hyp_objs))
    return nbests, refs
