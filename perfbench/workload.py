"""One benchmark workload in one process (started by run.py).

Every trflm command runs in this process through `trflm.cli.main`, in a work
directory under `.perfbench_out/` of the checkout. A measured run:

  1. sets up: makes the inputs from the seed and trains the fixed models;
  2. repeats cycles until --seconds have passed and the workload's minimum
     number of cycles is reached. A cycle runs the workload's own commands
     (the round) and one call of each sampled command (`enumerate-z`, and
     `rescore` or `train-trf` where the round does not run it), which
     measures the end-to-end metrics the round itself does not. Every
     `setup_every` cycles a further set-up runs in a scratch directory.
     `pilot-train` runs its round once, before the cycles, because it takes
     most of a run and writes the bundle the sampled commands read.

CPU speed on a shared host drifts by tens of percent over seconds to minutes,
so every metric is the median of samples spread over the whole run rather
than taken in one burst. The outputs are then checked (checks.py) and one
JSON line is printed.

With --trace 1 the run instead makes pairs of an untraced and a traced pass of
one set-up and one round until --seconds have passed, and prints the
per-layer metrics of the last traced pass plus the tracing overhead.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from trflm import cli, corpus as corpus_mod, evalkit, ngram as ngram_mod, serialize  # noqa: E402
from trflm.nce import Adam  # noqa: E402
from trflm.noise import NoiseDistribution, draw_noise_batch, noise_logprob  # noqa: E402
from trflm.seqnet import NeuralPotential, init_potential_params  # noqa: E402
from trflm.trf import TrfModel, zeta_init_vector  # noqa: E402
from trflm.util import derive_rng  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

PILOT_INI = os.path.join(ROOT, "configs", "pilot.ini")
REFS_INI = os.path.join(HERE, "configs", "refs.ini")
PAPER_INI = os.path.join(HERE, "configs", "paper.ini")
WORDS = os.path.join(ROOT, "src", "trflm", "data", "pilot_words.txt")
OUT = os.path.join(ROOT, ".perfbench_out")

N_UTTS = 100          # utterances per n-best file
N_HYPS = 10           # hypotheses per utterance
NOISE_SAMPLES = 3     # held-out noise samples for the NCE objective check


class CommandFailed(Exception):
    pass


class Runner:
    """Runs trflm commands in-process, timing each one by command name."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.times: dict[str, list[float]] = defaultdict(list)
        self.epoch_times: list[float] = []
        self.outputs: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def cli(self, *argv: str) -> None:
        self.attempted += 1
        out = io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out):
                rc = cli.main(list(argv))
        except Exception as exc:
            self.failed += 1
            raise CommandFailed(f"trflm {' '.join(argv)}: {exc!r}") from exc
        elapsed = time.perf_counter() - t0
        if rc != 0:
            self.failed += 1
            raise CommandFailed(f"trflm {' '.join(argv)} exited with {rc}")
        self.times[argv[0]].append(elapsed)
        self.outputs[argv[0]] = out.getvalue()
        if argv[0] == "train-trf":
            epochs = int(re.search(r"epochs=(\d+)", out.getvalue()).group(1))
            self.epoch_times.append(elapsed / epochs)


# -- inputs --------------------------------------------------------------------

def write_words(seed: int) -> None:
    """The bundled word list with words permuted among positions of the same
    length, so every seed splits into the committed pilot's length mix."""
    with open(WORDS, encoding="utf-8") as f:
        words = [w for w in f.read().splitlines() if w]
    rng = np.random.default_rng([seed, 1])
    by_len: dict[int, list[int]] = defaultdict(list)
    for i, w in enumerate(words):
        by_len[len(w)].append(i)
    shuffled = list(words)
    for positions in by_len.values():
        for dst, src in zip(positions, rng.permutation(positions)):
            shuffled[dst] = words[src]
    with open("words.txt", "w", encoding="utf-8") as f:
        f.write("".join(w + "\n" for w in shuffled))


def write_nbest(seed: int) -> None:
    """Synthetic n-best lists whose references come from a KN 5-gram of the
    training split."""
    lines = corpus_mod.read_corpus("pilot/train.txt")
    vocab = corpus_mod.build_vocabulary(lines, 1, None, "char")
    data = corpus_mod.encode_corpus(lines, vocab, "char", 5)
    prior = corpus_mod.empirical_length_prior(data, 5)
    source = ngram_mod.train_ngram(data, 5, vocab)
    nbests, refs = evalkit.make_nbest_benchmark(
        source, vocab, prior, np.random.default_rng([seed, 2]),
        n_utts=N_UTTS, n_hyps=N_HYPS, level="char")
    evalkit.write_nbest_file(nbests, "nbest.txt")
    evalkit.write_refs_file(refs, "refs.txt")


def write_rescore_config(members: str, vocab: str) -> None:
    with open("rescore.ini", "w", encoding="utf-8") as f:
        f.write(f"[rescore]\nvocab = {vocab}\nlevel = char\nmembers = {members}\n"
                "weights = grid\n\n[output]\ndir = rescored\n")


def make_inputs(s: Runner, seed: int) -> None:
    write_words(seed)
    s.cli("make-pilot", "--out", "pilot", "--words", "words.txt")
    write_nbest(seed)


# -- workloads -----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    setup: Callable[[Runner, int], None]
    round: tuple[str, ...]     # the workload's own commands, traced with --trace 1
    sampled: tuple[str, ...]   # commands run in each cycle for the other metrics
    cycles: int                # cycles per measured run at least
    setup_every: int           # a further set-up after every this many cycles
    config: str                # the config of the workload's train-trf
    bundle: str                # the TRF bundle enumerate-z and the checks read
    members: int               # rescoring members
    seeded: bool = True        # the seed also sets TRFLM_SEED, the training seeds
    round_once: bool = False   # the round runs once before the cycles, not in each

    @property
    def cycle(self) -> tuple[str, ...]:
        return self.sampled if self.round_once else self.round + self.sampled

    def run(self, s: Runner, command: str) -> None:
        if command == "train-trf":
            s.cli("train-trf", "-c", self.config)
        elif command == "enumerate-z":
            s.cli("enumerate-z", "--model", self.bundle)
        else:
            s.cli("rescore", "-c", "rescore.ini", "--nbest", "nbest.txt", "--refs", "refs.txt")


def setup_pilot(s: Runner, seed: int) -> None:
    s.cli("make-pilot", "--out", "pilot")    # the committed split
    write_nbest(seed)
    write_rescore_config("trf:pilot/run/trf.json", "pilot/run/vocab.txt")


def setup_paper(s: Runner, seed: int) -> None:
    make_inputs(s, seed)
    s.cli("train-lstm", "-c", REFS_INI)
    write_rescore_config("trf:paper/trf.json", "paper/vocab.txt")


def setup_rescore(s: Runner, seed: int) -> None:
    make_inputs(s, seed)
    s.cli("train-ngram", "-c", REFS_INI)
    s.cli("train-lstm", "-c", REFS_INI)
    s.cli("train-trf", "-c", PAPER_INI)
    write_rescore_config("ngram:ref/ngram.json lstm:ref/lstm.json trf:paper/trf.json",
                         "ref/vocab.txt")


# --seconds bounds the measuring time, so a slow host does not lengthen the
# runs; the minimum cycles only matter for pilot-train, whose round takes most
# of a run.
WORKLOADS = {
    "pilot-train": Workload(
        setup_pilot, ("train-trf", "enumerate-z"), ("enumerate-z", "rescore"),
        cycles=8, setup_every=1, config=PILOT_INI, bundle="pilot/run/trf.json",
        members=1, seeded=False, round_once=True),
    "paper-train": Workload(
        setup_paper, ("train-trf",), ("enumerate-z", "rescore"),
        cycles=3, setup_every=2, config=PAPER_INI, bundle="paper/trf.json", members=1),
    # train-trf retrains the TRF member of the set-up in place, with the same
    # seed, and gives train_epoch_s more samples than the set-ups alone.
    "rescore": Workload(
        setup_rescore, ("rescore",), ("train-trf", "enumerate-z"),
        cycles=3, setup_every=2, config=PAPER_INI, bundle="paper/trf.json", members=3),
}


def fresh_dir(*parts: str) -> str:
    d = os.path.join(OUT, *parts)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def do_setup(wl: Workload, s: Runner, seed: int, *where: str) -> float:
    os.chdir(fresh_dir(*where))
    t0 = time.perf_counter()
    wl.setup(s, seed)
    return time.perf_counter() - t0


# -- output checks ---------------------------------------------------------------

def objective_before_after(trained: TrfModel, seed: int) -> tuple[list[float], list[float]]:
    """NCE objective J of the seeded initial model and of the trained model,
    on the whole training set against noise samples the training never drew."""
    cfg = configparser.ConfigParser()
    cfg.read(PAPER_INI)
    nu = cfg.getint("noise", "nu")
    vocab = trained.vocab
    data = corpus_mod.encode_corpus(corpus_mod.read_corpus("pilot/train.txt"), vocab,
                                    "char", trained.max_len)
    nd = NoiseDistribution(trained.length_prior,
                           ngram_mod.train_ngram(data, cfg.getint("noise", "order"), vocab))
    initial = TrfModel(
        NeuralPotential(init_potential_params(trained.potential.config, derive_rng(seed, "init"))),
        zeta_init_vector(cfg.get("model", "zeta_init"), trained.max_len, vocab.size),
        trained.length_prior, trained.reference, vocab)
    log_pn_data = np.array([noise_logprob(nd, x) for x in data])
    j_initial, j_trained = [], []
    for k in range(NOISE_SAMPLES):
        batch = draw_noise_batch(nd, len(data), nu, np.random.default_rng([seed, 3, k]))
        for model, out in ((initial, j_initial), (trained, j_trained)):
            out.append(checks.nce_objective(
                checks.log_density(model, data), log_pn_data,
                checks.log_density(model, batch.sequences), batch.log_pn, nu))
    return j_initial, j_trained


def gather(name: str, seed: int, s: Runner) -> dict:
    """The outputs the checks read, from the current work directory."""
    wl = WORKLOADS[name]
    model = serialize.load_trf_bundle(wl.bundle)
    with open("rescored/best.txt", encoding="utf-8") as f:
        best = f.read()
    with open("rescored/wer_report.csv", encoding="utf-8") as f:
        report = f.read()
    art = {"model": model, "scores": checks.enumerate_scores(model),
           "printed": checks.parse_enumerate_z(s.outputs["enumerate-z"]),
           "nbests": evalkit.read_nbest_file("nbest.txt"),
           "refs": evalkit.read_refs_file("refs.txt"), "best": best, "report": report}
    if name == "pilot-train":
        with open("pilot/run/metrics_epochs.csv", encoding="utf-8") as f:
            art["epochs_csv"] = f.read()
    if name == "paper-train":
        art["j_initial"], art["j_trained"] = objective_before_after(model, seed)
        print(f"nce objective J at init {art['j_initial']} after training {art['j_trained']}")
    return art


def verify(art: dict) -> None:
    checks.check_log_z(art["scores"], art["printed"])
    checks.check_total_mass(art["scores"], art["printed"], art["model"].length_prior.probs)
    checks.check_rescore(art["nbests"], art["refs"], art["best"], art["report"])
    if "epochs_csv" in art:
        checks.check_zeta_convergence(art["epochs_csv"])
    if "j_initial" in art:
        checks.check_objective_gain(art["j_initial"], art["j_trained"])


def correct(name: str, seed: int, s: Runner) -> bool:
    try:
        verify(gather(name, seed, s))
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return False
    return True


# -- measured run ----------------------------------------------------------------

def measure(name: str, seed: int, seconds: float) -> dict:
    wl = WORKLOADS[name]
    s = Runner()
    where = f"{name}-s{seed}"
    setup_times = [do_setup(wl, s, seed, where, "run")]
    run_dir = os.getcwd()
    t0 = time.perf_counter()
    if wl.round_once:
        for command in wl.round:
            wl.run(s, command)
    cycles = 0
    while cycles < wl.cycles or time.perf_counter() - t0 < seconds:
        for command in wl.cycle:
            wl.run(s, command)
        cycles += 1
        if cycles % wl.setup_every == 0:
            setup_times.append(do_setup(wl, s, seed, where, "setup-sample"))
            os.chdir(run_dir)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"cycles={cycles} setups={[round(t, 3) for t in setup_times]} "
          f"times={ {k: [round(t, 3) for t in v] for k, v in s.times.items()} }")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_epoch_s": (statistics.median(s.epoch_times), "s/epoch"),
        "enumerate_z_s": (statistics.median(s.times["enumerate-z"]), "s"),
        "rescore_utt_per_s": (statistics.median(N_UTTS / t for t in s.times["rescore"]), "utt/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return {"correct": correct(name, seed, s), "attempted": s.attempted, "failed": s.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# -- traced run ------------------------------------------------------------------

LAYER_FUNCTIONS = ("lstm_forward", "lstm_backward", "conv1d_forward", "conv1d_backward")


def install_tracing(t: Tracer) -> None:
    """Spans around the public functions of each trflm module, with counts."""
    from trflm import ngram, nce, noise, trf
    from trflm.seqnet import layers, lstmlm, potential

    def forward_rows(args, result):
        rows = len(result[0])
        counts = {"potential.forward_rows": rows}
        if t.inside("nce.gradients"):
            counts["potential.forward_rows_in_step"] = rows
        return counts

    t.install(noise, "draw_noise_batch", "noise.draw",
              lambda a, r: {"noise.seqs_drawn": len(r.sequences)})
    t.install(ngram, "logprob_fixed_length", "ngram.fixed_logprob")
    t.install(ngram, "logprob_sentence", "ngram.sentence_logprob")
    for fn in LAYER_FUNCTIONS:
        t.install(layers, fn, f"layers.{fn}")
    t.install(potential, "potential_phi_batch", "potential.forward", forward_rows)
    t.install(potential, "potential_backward_batch", "potential.backward",
              lambda a, r: {"potential.backward_rows": len(a[2])})
    t.install(lstmlm, "lstm_lm_logprob_batch", "lstmlm.logprob",
              lambda a, r: {"lstmlm.logprob_rows": len(r)})
    t.install(lstmlm, "lstm_lm_train_step", "lstmlm.train_step")
    t.install(trf, "exact_log_z", "trf.exact_log_z",
              lambda a, r: {"trf.enumerated_seqs": len(a[0].vocab.payload_ids) ** (a[1] - 2)})
    t.install(trf, "nll", "trf.nll")
    t.install(trf, "log_joint", "trf.log_joint_single")
    t.install(nce, "nce_gradients", "nce.gradients",
              lambda a, r: {"nce.step_rows": len(a[2]) + len(a[3].sequences)})
    t.install(Adam, "step", "nce.optimizer")
    t.install(evalkit, "precompute_member_scores", "evalkit.member_scoring")
    for scorer in (evalkit.NgramScorer, evalkit.LstmScorer, evalkit.TrfScorer):
        t.install(scorer, "logprob", "evalkit.member_logprob")
    t.install(evalkit, "grid_search_weights", "evalkit.grid_search")
    t.install(evalkit, "wer", "evalkit.wer")
    for fn in ("load_potential", "load_lstm_lm", "load_trf_bundle"):
        t.install(serialize, fn, "serialize.load")
    for fn in ("save_potential", "save_lstm_lm", "save_trf_bundle"):
        t.install(serialize, fn, "serialize.save")


def layer_metrics(t: Tracer, wl: Workload) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced round; lstmlm.train_step_s is that of
    the traced set-up, where the LSTM LM is trained."""
    m: dict[str, tuple[float, str]] = {}

    def timed(name: str, scope: str = "round") -> float:
        inclusive, own = t.group_times(name, scope)
        m[f"{name}_s"] = (inclusive, "s")
        m[f"{name}_self_s"] = (own, "s")
        return inclusive

    def calls(name: str) -> int:
        return t.calls(name, "round")

    def count(key: str) -> float:
        return t.count(key, "round")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    draw_s = timed("noise.draw")
    m["noise.seqs_drawn"] = (count("noise.seqs_drawn"), "count")
    m["noise.draw_us_per_seq"] = (1e6 * ratio(draw_s, count("noise.seqs_drawn")), "us")
    timed("ngram.fixed_logprob")
    m["ngram.fixed_logprob_calls"] = (calls("ngram.fixed_logprob"), "count")
    timed("ngram.sentence_logprob")
    for fn in LAYER_FUNCTIONS:
        timed(f"layers.{fn}")
        m[f"layers.{fn}_calls"] = (calls(f"layers.{fn}"), "count")
    timed("potential.forward")
    rows = count("potential.forward_rows")
    m["potential.forward_calls"] = (calls("potential.forward"), "count")
    m["potential.forward_rows"] = (rows, "count")
    timed("potential.backward")
    m["potential.backward_rows"] = (count("potential.backward_rows"), "count")
    m["potential.rows_per_call"] = (ratio(rows, calls("potential.forward")), "rows")
    m["potential.forward_rows_per_step_row"] = (
        ratio(count("potential.forward_rows_in_step"), count("nce.step_rows")), "ratio")
    timed("lstmlm.logprob")
    m["lstmlm.logprob_rows"] = (count("lstmlm.logprob_rows"), "count")
    timed("lstmlm.train_step", scope="setup")
    timed("trf.exact_log_z")
    m["trf.enumerated_seqs"] = (count("trf.enumerated_seqs"), "count")
    timed("trf.nll")
    m["trf.log_joint_single_calls"] = (calls("trf.log_joint_single"), "count")
    m["nce.steps"] = (calls("nce.gradients"), "count")
    timed("nce.gradients")
    timed("nce.optimizer")
    timed("evalkit.member_scoring")
    pairs = calls("cli.rescore") * N_UTTS * N_HYPS * wl.members
    m["evalkit.member_scores_per_hyp"] = (ratio(calls("evalkit.member_logprob"), pairs), "ratio")
    timed("evalkit.grid_search")
    m["evalkit.wer_calls"] = (calls("evalkit.wer"), "count")
    timed("evalkit.wer")
    timed("serialize.load")
    timed("serialize.save")
    m["trace.spans"] = (len(t.start), "count")
    return m


def trace_pass(wl: Workload, name: str, seed: int, tracer: Tracer | None) -> tuple[float, Runner]:
    """One set-up and one round in a fresh directory. With a tracer they run
    inside the spans `setup` and `round`."""
    s = Runner(tracer)
    scope = tracer.span if tracer else (lambda _: contextlib.nullcontext())
    if tracer:
        install_tracing(tracer)
    t0 = time.perf_counter()
    try:
        with scope("setup"):
            do_setup(wl, s, seed, f"{name}-s{seed}-trace", "traced" if tracer else "plain")
        with scope("round"):
            for command in wl.round:
                wl.run(s, command)
    finally:
        if tracer:
            tracer.uninstall()
    return time.perf_counter() - t0, s


def traced(name: str, seed: int, seconds: float) -> dict:
    """Pairs of an untraced and a traced pass, repeated until --seconds have
    passed. The tracing overhead compares the mean wall times of the two
    kinds; the per-layer metrics come from the last traced pass."""
    wl = WORKLOADS[name]
    plain, traced_walls, runners = [], [], []
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        wall, s = trace_pass(wl, name, seed, None)
        plain.append(wall)
        runners.append(s)
        tracer = Tracer()
        wall, s = trace_pass(wl, name, seed, tracer)
        traced_walls.append(wall)
        runners.append(s)
    for command in wl.sampled:     # outputs for the checks, outside the trace
        wl.run(s, command)
    tracer.save(os.path.join(OUT, f"{name}-s{seed}-trace", "spans"))
    metrics = layer_metrics(tracer, wl)
    overhead = statistics.mean(traced_walls) / statistics.mean(plain) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    print(f"untraced {plain} traced {traced_walls} spans={len(tracer.start)}")
    return {"correct": correct(name, seed, s),
            "attempted": sum(x.attempted for x in runners),
            "failed": sum(x.failed for x in runners),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if WORKLOADS[args.workload].seeded:
        os.environ["TRFLM_SEED"] = str(args.seed)
    print("machine " + json.dumps(machine()))
    try:
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except CommandFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
