"""Output checks for the benchmark workloads.

Each check compares what a trflm command wrote against a computation made
here, or against a property the output must have. The computations use only
trflm's public scoring entry points (`phi_batch`, a reference's `log_q_batch`,
the noise density); enumeration, log-sum-exp, the NCE objective and the edit
distance are written out again here. A check raises CheckFailed with the
reason; selftest.py shows that each one rejects a corrupted input.
"""
from __future__ import annotations

import re

import numpy as np

TOL = 1e-9


class CheckFailed(Exception):
    pass


def parse_enumerate_z(stdout: str) -> dict[int, float]:
    """{l: log_Z} from the lines `trflm enumerate-z` prints."""
    found = {int(l): float(z) for l, z in re.findall(r"^l=(\d+) log_Z=(\S+)", stdout, re.M)}
    if not found:
        raise CheckFailed("enumerate-z printed no log_Z lines")
    return found


def _logsumexp(x: np.ndarray) -> float:
    hi = float(np.max(x))
    return hi + float(np.log(np.sum(np.exp(x - hi))))


def enumerate_scores(model, chunk: int = 4096) -> dict[int, np.ndarray]:
    """log q(x) + phi(x) for every sequence of every supported length, in
    mixed-radix order over the sorted payload symbols."""
    payload = np.array(sorted(model.vocab.payload_ids), dtype=np.int64)
    v = len(payload)
    scores = {}
    for l in model.length_prior.supported_lengths:
        p = l - 2
        total = v ** p
        parts = []
        for lo in range(0, total, chunk):
            code = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
            ids = np.empty((code.size, l), dtype=np.int64)
            ids[:, 0] = model.vocab.bos
            ids[:, -1] = model.vocab.eos
            for j in range(p, 0, -1):
                ids[:, j] = payload[code % v]
                code //= v
            parts.append(model.reference.log_q_batch(ids) + model.potential.phi_batch(ids))
        scores[l] = np.concatenate(parts)
    return scores


def check_log_z(scores: dict[int, np.ndarray], printed: dict[int, float]) -> None:
    """Each printed log_Z equals this module's log-sum-exp within TOL."""
    if set(printed) != set(scores):
        raise CheckFailed(f"log_Z printed for lengths {sorted(printed)}, "
                          f"supported lengths are {sorted(scores)}")
    for l, s in scores.items():
        own = _logsumexp(s)
        if not abs(own - printed[l]) <= TOL:
            raise CheckFailed(f"l={l}: printed log_Z {printed[l]!r}, enumerated {own!r}")


def check_total_mass(scores: dict[int, np.ndarray], printed: dict[int, float],
                     length_probs: np.ndarray) -> None:
    """sum_l pi_l sum_x q(x) e^phi(x) / Z_l is 1 within TOL under the printed Z_l."""
    mass = sum(float(length_probs[l - 1]) * float(np.exp(s - printed[l]).sum())
               for l, s in scores.items())
    if not abs(mass - 1.0) <= TOL:
        raise CheckFailed(f"total mass {mass!r} under the printed normalizers")


def check_zeta_convergence(epochs_csv: str) -> None:
    """Criterion 3 on metrics_epochs.csv: best zeta_gap_sq < 2.0 and < 5% of
    its initial value, and the oracle-normalized valid NLL falls."""
    rows = [ln.split(",") for ln in epochs_csv.strip().splitlines()[1:]]
    if not rows:
        raise CheckFailed("metrics_epochs.csv has no epochs")
    gaps = [float(r[5]) for r in rows]
    valid = [float(r[4]) for r in rows]
    best = min(gaps)
    if not (best < 2.0 and best < 0.05 * gaps[0]):
        raise CheckFailed(f"best zeta_gap_sq {best} (initial {gaps[0]}): "
                          "not below 2.0 and 5% of the initial value")
    if not valid[-1] < valid[0]:
        raise CheckFailed(f"valid_nll did not fall: {valid[0]} -> {valid[-1]}")


def log_density(model, seqs) -> np.ndarray:
    """log pi_l + log q(x) + phi(x) - zeta_l per sequence, under the stored zeta."""
    out = np.empty(len(seqs))
    by_len: dict[int, list[int]] = {}
    for i, s in enumerate(seqs):
        by_len.setdefault(len(s), []).append(i)
    for l, idx in by_len.items():
        ids = np.array([seqs[i].ids for i in idx], dtype=np.int64)
        out[idx] = (np.log(model.length_prior.probs[l - 1]) + model.reference.log_q_batch(ids)
                    + model.potential.phi_batch(ids) - model.zeta[l - 1])
    return out


def nce_objective(log_p_data, log_pn_data, log_p_noise, log_pn_noise, nu: int) -> float:
    """J = mean_D log sigma(d) + nu mean_B log sigma(-d), d = log p - log nu - log p_n."""
    d_data = log_p_data - np.log(nu) - log_pn_data
    d_noise = log_p_noise - np.log(nu) - log_pn_noise
    return float(np.mean(-np.logaddexp(0.0, -d_data))
                 + nu * np.mean(-np.logaddexp(0.0, d_noise)))


def check_objective_gain(j_initial: list[float], j_trained: list[float]) -> None:
    """J on held-out noise samples is higher after training than at init."""
    for k, (a, b) in enumerate(zip(j_initial, j_trained)):
        if not b > a:
            raise CheckFailed(f"noise sample {k}: J {a!r} at init, {b!r} after training")


def edit_distance(ref: list[str], hyp: list[str]) -> int:
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h))
        prev = cur
    return prev[-1]


def parse_best(best_txt: str) -> dict[str, str]:
    best = {}
    for ln in best_txt.splitlines():
        utt, _, text = ln.partition(" ")
        best[utt] = text
    return best


def check_rescore(nbests, refs: dict[str, str], best_txt: str, report_csv: str) -> None:
    """best.txt picks one hypothesis of each utterance's own list; the
    combined row of wer_report.csv matches an edit distance computed here
    (S+I+D, I-D and the reference token count do not depend on which optimal
    alignment is reported); every row's WER is its errors over its tokens;
    the combined WER is no higher than any single member's."""
    best = parse_best(best_txt)
    if set(best) != set(refs):
        raise CheckFailed("best.txt and the references cover different utterances")
    for nb in nbests:
        if best[nb.utt_id] not in {h.text for h in nb.hypotheses}:
            raise CheckFailed(f"{nb.utt_id}: picked {best[nb.utt_id]!r}, not in its n-best list")
    errors = sum(edit_distance(refs[u].split(), best[u].split()) for u in refs)
    ref_tokens = sum(len(refs[u].split()) for u in refs)
    growth = sum(len(best[u].split()) - len(refs[u].split()) for u in refs)

    rows = [ln.split(",") for ln in report_csv.strip().splitlines()[1:]]
    if not rows or rows[-1][0] != "combined":
        raise CheckFailed("wer_report.csv has no combined row")
    for name, _, s, i, d, n, rate in rows:
        s, i, d, n = int(s), int(i), int(d), int(n)
        if n != ref_tokens:
            raise CheckFailed(f"{name}: ref_tokens {n}, references hold {ref_tokens}")
        if float(rate) != (s + i + d) / n:
            raise CheckFailed(f"{name}: wer {rate} is not (S+I+D)/ref_tokens")
    name, _, s, i, d, n, rate = rows[-1]
    if int(s) + int(i) + int(d) != errors or int(i) - int(d) != growth:
        raise CheckFailed(f"combined S/I/D {s}/{i}/{d}: edit distance gives {errors} "
                          f"errors and insertions - deletions = {growth}")
    best_single = min(float(r[6]) for r in rows[:-1])
    if float(rate) > best_single:
        raise CheckFailed(f"combined WER {rate} above a single member's {best_single}")
