"""Command-line entry point and experiment configuration.

Configs are INI files (key/value with sections); unknown sections or keys are
rejected, referenced paths must exist at load. The environment variables
TRFLM_SEED and TRFLM_OUTDIR override the configured seed and output
directory.
"""
from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from importlib import resources

import numpy as np

from . import corpus as corpus_mod
from . import evalkit, ngram as ngram_mod, serialize
from .nce import Diverged, NceConfig, train as nce_train
from .noise import NoiseDistribution
from .seqnet import (LstmLmConfig, PotentialConfig, NeuralPotential,
                     init_lstm_lm_params, init_potential_params,
                     lstm_lm_logprob_batch, lstm_lm_train_epoch)
from .trf import (DEFAULT_ENUM_BUDGET, TrfModel, exact_zeta, nll as trf_nll,
                  with_exact_zeta, zeta_init_vector)
from .util import atomic_write_text, derive_rng, fmt, read_text, retain_freed_memory


class ConfigError(Exception):
    pass


# section -> key -> (type, default); REQUIRED means no default
REQUIRED = object()
SCHEMA = {
    "corpus": {
        "train": (str, REQUIRED), "valid": (str, None),
        "level": (str, "word"), "max_len": (int, REQUIRED),
        "min_count": (int, 1), "max_vocab": (int, 0),
    },
    "model": {
        "emb_dim": (int, 16), "bank_width": (int, 0), "bank_channels": (int, 0),
        "stack_layers": (int, 0), "hidden_dim": (int, 16),
        "reference": (str, "uniform"), "reference_file": (str, None),
        "zeta_init": (str, "l-log-v"),
    },
    "noise": {"order": (int, 2), "nu": (int, 10)},
    "training": {
        "batch_size": (int, 10), "epochs": (int, 20),
        "lr_theta": (float, 1e-3), "lr_zeta": (float, 1e-2), "seed": (int, 0),
        "oracle_metrics": (bool, False),
        # accepted, with their one value, for configs that still name them
        "optimizer": (str, "adam"), "schedule": (str, "fixed"),
    },
    "lstm": {
        "emb_dim": (int, 16), "hidden_dim": (int, 16), "layers": (int, 1),
        "lr": (float, 0.5), "epochs": (int, 20), "batch_size": (int, 10),
        "seed": (int, 0),
    },
    "ngram": {"order": (int, 5)},
    "rescore": {
        "vocab": (str, REQUIRED), "level": (str, "word"),
        "members": (str, REQUIRED), "weights": (str, "grid"),
    },
    "output": {"dir": (str, REQUIRED)},
}
PATH_KEYS = (("corpus", "train"), ("corpus", "valid"), ("model", "reference_file"),
             ("rescore", "vocab"))


class ExperimentConfig:
    """Validated view of an INI config: raw pairs plus typed access."""

    def __init__(self, raw: dict[str, dict[str, str]], base_dir: str = "."):
        self.raw = raw
        self.base_dir = base_dir
        for section, pairs in raw.items():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key in pairs:
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def get(self, section: str, key: str):
        typ, default = SCHEMA[section][key]
        raw = self.raw.get(section, {}).get(key)
        if raw is None:
            if default is REQUIRED:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")
            return default
        if typ is bool:
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ConfigError(f"key {key!r} in [{section}] must be a boolean, got {raw!r}")
        try:
            return typ(raw)
        except ValueError:
            raise ConfigError(f"key {key!r} in [{section}] must be {typ.__name__}, got {raw!r}")

    def path(self, section: str, key: str):
        value = self.get(section, key)
        if value is None:
            return None
        return value if os.path.isabs(value) else os.path.join(self.base_dir, value)

    def require_section(self, *sections):
        for s in sections:
            if s not in self.raw:
                raise ConfigError(f"missing required config section [{s}]")

    def dump(self) -> str:
        lines = []
        for section, pairs in self.raw.items():
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v}" for k, v in pairs.items())
            lines.append("")
        return "\n".join(lines)


def parse_config_text(text: str, base_dir: str = ".") -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_string(text)
    raw = {s: dict(cp.items(s)) for s in cp.sections()}
    if seed := os.environ.get("TRFLM_SEED"):
        for section in ("training", "lstm"):
            if section in raw:
                raw[section]["seed"] = seed
    if outdir := os.environ.get("TRFLM_OUTDIR"):
        raw.setdefault("output", {})["dir"] = outdir
    return ExperimentConfig(raw, base_dir)


def load_config(path, check_paths: bool = True) -> ExperimentConfig:
    text = read_text(path, "config file")
    try:
        cfg = parse_config_text(text, base_dir=os.getcwd())
    except configparser.Error as exc:   # on one line, naming the file, not '<string>'
        raise ConfigError(" ".join(str(exc).replace("'<string>'", repr(str(path))).split()))
    if check_paths:
        for section, key in PATH_KEYS:
            if section in cfg.raw and key in cfg.raw[section]:
                p = cfg.path(section, key)
                if not os.path.exists(p):
                    raise ConfigError(f"path for {key!r} in [{section}] does not exist: {p!r}")
    return cfg


# -- shared assembly -----------------------------------------------------------

def _load_corpus(cfg: ExperimentConfig):
    level = cfg.get("corpus", "level")
    max_len = cfg.get("corpus", "max_len")
    train_lines = corpus_mod.read_corpus(cfg.path("corpus", "train"))
    vocab = corpus_mod.build_vocabulary(
        train_lines, cfg.get("corpus", "min_count"),
        cfg.get("corpus", "max_vocab") or None, level)
    train = corpus_mod.encode_corpus(train_lines, vocab, level, max_len)
    valid = None
    if cfg.get("corpus", "valid"):
        valid = corpus_mod.encode_corpus(
            corpus_mod.read_corpus(cfg.path("corpus", "valid")), vocab, level, max_len)
    return vocab, train, valid, level, max_len


def _outdir(cfg: ExperimentConfig) -> str:
    d = cfg.get("output", "dir")
    os.makedirs(d, exist_ok=True)
    return d


def _reference(cfg: ExperimentConfig, vocab, longest: int):
    """The [model] reference of a model whose longest supported length is
    longest, and the file it was loaded from (None for uniform)."""
    kind = cfg.get("model", "reference")
    if kind not in serialize.REFERENCE_KINDS:
        raise ConfigError(f"unknown reference kind {kind!r} in [model]")
    ref_file = None if kind == "uniform" else cfg.path("model", "reference_file")
    if kind != "uniform" and ref_file is None:
        raise ConfigError(f"reference {kind!r} needs key 'reference_file' in [model]")
    return serialize.load_reference(kind, ref_file, vocab, longest), ref_file


def nce_config(cfg: ExperimentConfig) -> NceConfig:
    """The NCE recipe of the [noise] and [training] sections."""
    for key in ("optimizer", "schedule"):
        value, default = cfg.get("training", key), SCHEMA["training"][key][1]
        if value != default:
            raise ConfigError(f"key {key!r} in [training] must be {default!r}, got {value!r}")
    try:
        return NceConfig(
            nu=cfg.get("noise", "nu"), batch_size=cfg.get("training", "batch_size"),
            epochs=cfg.get("training", "epochs"),
            lr_theta=cfg.get("training", "lr_theta"), lr_zeta=cfg.get("training", "lr_zeta"),
            seed=cfg.get("training", "seed"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# -- commands ------------------------------------------------------------------

def builtin_pilot_words() -> list[str]:
    text = resources.files("trflm.data").joinpath("pilot_words.txt").read_text("utf-8")
    return [w for w in text.splitlines() if w]


def split_pilot(words):
    """(train, valid): every 13th word from the 7th is held out."""
    return [w for i, w in enumerate(words) if i % 13 != 6], words[6::13]


def cmd_make_pilot(args) -> int:
    if args.words:
        raw = [w.strip().lower() for w in read_text(args.words, "word list").split("\n")
               if w.strip()]
    else:
        raw = builtin_pilot_words()
    seen = set()
    words = []
    for w in raw:
        if len(w) <= args.max_chars and w not in seen:
            seen.add(w)
            words.append(w)
    if not words:
        raise ValueError("no words of the requested length in the input list")
    train, valid = split_pilot(words)
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "train.txt"), "".join(w + "\n" for w in train))
    atomic_write_text(os.path.join(args.out, "valid.txt"), "".join(w + "\n" for w in valid))
    print(f"pilot corpus: {len(train)} train / {len(valid)} valid words in {args.out}")
    return 0


def cmd_train_ngram(args) -> int:
    cfg = load_config(args.config)
    cfg.require_section("corpus", "ngram", "output")
    vocab, train, valid, level, _ = _load_corpus(cfg)
    model = ngram_mod.train_ngram(train, cfg.get("ngram", "order"), vocab)
    out = _outdir(cfg)
    corpus_mod.save_vocabulary(vocab, os.path.join(out, "vocab.txt"))
    ngram_mod.save_ngram(model, os.path.join(out, "ngram.json"))
    ngram_mod.export_arpa(model, vocab, os.path.join(out, "ngram.arpa"))

    def mean_logprob(seqs):
        rows = np.empty(len(seqs))   # in corpus order, so the sum adds them in that order
        for idx, ids in corpus_mod.length_buckets(seqs):
            rows[idx] = ngram_mod.logprob_sentence(model, ids)
        return sum(map(float, rows)) / len(seqs)

    train_lp = mean_logprob(train)
    valid_lp = fmt(mean_logprob(valid)) if valid else ""
    atomic_write_text(os.path.join(out, "metrics.csv"),
                      "order,train_sentences,train_logprob_per_sentence,valid_logprob_per_sentence\n"
                      f"{model.order},{len(train)},{fmt(train_lp)},{valid_lp}\n")
    print(f"train-ngram: order={model.order} V={vocab.size} train_sentences={len(train)}"
          + (f" valid_logprob_per_sentence={valid_lp}" if valid_lp else ""))
    return 0


def cmd_train_lstm(args) -> int:
    cfg = load_config(args.config)
    cfg.require_section("corpus", "lstm", "output")
    vocab, train, valid, level, max_len = _load_corpus(cfg)
    lstm_cfg = LstmLmConfig(
        vocab_size=vocab.size, emb_dim=cfg.get("lstm", "emb_dim"),
        hidden_dim=cfg.get("lstm", "hidden_dim"), num_layers=cfg.get("lstm", "layers"),
        max_len=max_len, bos=vocab.bos, eos=vocab.eos)
    seed = cfg.get("lstm", "seed")
    params = init_lstm_lm_params(lstm_cfg, derive_rng(seed, "lstm-init"))
    rng = derive_rng(seed, "lstm-shuffle")
    lr = cfg.get("lstm", "lr")
    if not lr > 0:
        raise ConfigError(f"key 'lr' in [lstm] must be positive, got {lr}")
    bsz, epochs = cfg.get("lstm", "batch_size"), cfg.get("lstm", "epochs")
    for key, value in (("batch_size", bsz), ("epochs", epochs)):
        if value < 1:
            raise ConfigError(f"key {key!r} in [lstm] must be at least 1, got {value}")
    buckets = list(corpus_mod.length_buckets(train))
    initial_nll = -sum(float(lstm_lm_logprob_batch(params, ids).sum())
                       for _, ids in buckets) / len(train)
    rows = ["epoch,train_nll,valid_nll"]
    for epoch in range(epochs):
        valid_sums = []
        with np.errstate(over="ignore", invalid="ignore"):
            losses = lstm_lm_train_epoch(params, buckets, rng, bsz, lr)
            for _, ids in corpus_mod.length_buckets(valid or []):
                valid_sums.append(float(-lstm_lm_logprob_batch(params, ids).sum()))
        if not (np.isfinite(losses + valid_sums).all() and np.isfinite(params.flat).all()):
            raise Diverged(f"training diverged: non-finite loss or weights in epoch {epoch}")
        train_nll = float(np.mean(losses))
        if train_nll > 2 * initial_nll:
            raise Diverged(f"training diverged: train NLL {fmt(train_nll)} in epoch {epoch} "
                           f"is over twice the initial {fmt(initial_nll)}")
        valid_nll = fmt(sum(valid_sums) / len(valid)) if valid else ""
        rows.append(f"{epoch},{fmt(train_nll)},{valid_nll}")
    out = _outdir(cfg)
    atomic_write_text(os.path.join(out, "metrics_epochs.csv"), "\n".join(rows) + "\n")
    corpus_mod.save_vocabulary(vocab, os.path.join(out, "vocab.txt"))
    serialize.save_lstm_lm(params, os.path.join(out, "lstm.json"))
    print(f"train-lstm: epochs={epochs} final_train_nll={rows[-1].split(',')[1]}")
    return 0


def cmd_train_trf(args) -> int:
    cfg = load_config(args.config)
    cfg.require_section("corpus", "model", "noise", "training", "output")
    nce_cfg = nce_config(cfg)
    vocab, train, valid, level, max_len = _load_corpus(cfg)
    pot_cfg = PotentialConfig(
        vocab_size=vocab.size, emb_dim=cfg.get("model", "emb_dim"),
        bank_width=cfg.get("model", "bank_width"),
        bank_channels=cfg.get("model", "bank_channels"),
        stack_layers=cfg.get("model", "stack_layers"),
        hidden_dim=cfg.get("model", "hidden_dim"))
    prior = corpus_mod.empirical_length_prior(train, max_len)
    reference, ref_file = _reference(cfg, vocab, max(prior.supported_lengths))
    noise_base = ngram_mod.train_ngram(train, cfg.get("noise", "order"), vocab)
    nd = NoiseDistribution(prior, noise_base)

    seed = cfg.get("training", "seed")
    params = init_potential_params(pot_cfg, derive_rng(seed, "init"))
    model = TrfModel(NeuralPotential(params),
                     zeta_init_vector(cfg.get("model", "zeta_init"), max_len, vocab.size),
                     prior, reference, vocab, level)

    result = nce_train(model, nd, train, nce_cfg, valid=valid,
                       oracle_metrics=cfg.get("training", "oracle_metrics"))

    out = _outdir(cfg)
    steps = ["step,epoch,j,post_data,post_noise,grad_norm_theta,grad_norm_zeta"]
    steps += [f"{i},{epoch},{fmt(s.j)},{fmt(s.mean_post_data)},{fmt(s.mean_post_noise)},"
              f"{fmt(s.grad_norm_theta)},{fmt(s.grad_norm_zeta)}"
              for i, (epoch, s) in enumerate(result.steps)]
    atomic_write_text(os.path.join(out, "metrics_steps.csv"), "\n".join(steps) + "\n")
    epochs = ["epoch,lr_theta,lr_zeta,train_nll,valid_nll,zeta_gap_sq"]
    epochs += [f"{r.epoch},{fmt(nce_cfg.lr_theta)},{fmt(nce_cfg.lr_zeta)},{fmt(r.train_nll)},"
               f"{'' if r.valid_nll is None else fmt(r.valid_nll)},"
               f"{'' if r.zeta_gap_sq is None else fmt(r.zeta_gap_sq)}" for r in result.epochs]
    atomic_write_text(os.path.join(out, "metrics_epochs.csv"), "\n".join(epochs) + "\n")

    ngram_mod.save_ngram(noise_base, os.path.join(out, "noise_ngram.json"))
    serialize.save_trf_bundle(model, out, ref_file)
    last = result.epochs[-1]
    gap = "" if last.zeta_gap_sq is None else f" zeta_gap_sq={fmt(last.zeta_gap_sq)}"
    print(f"train-trf: epochs={len(result.epochs)} steps={len(result.steps)} "
          f"train_nll={fmt(last.train_nll)}{gap}")
    return 0


def cmd_eval(args) -> int:
    model = serialize.load_trf_bundle(args.model)
    lines = corpus_mod.read_corpus(args.data)
    data = corpus_mod.encode_corpus(lines, model.vocab, model.level, model.max_len)
    if args.exact_z:
        lengths = sorted({len(x) for x in data if model.length_prior.prob(len(x)) > 0})
        try:
            model = with_exact_zeta(model, lengths, args.budget)
        except ValueError as exc:
            raise ValueError(f"{exc} (drop --exact-z to use the stored normalizers)") from None
    print(f"eval: sentences={len(data)} zeta={'exact' if args.exact_z else 'stored'} "
          f"nll={fmt(trf_nll(model, data))}")
    return 0


def cmd_enumerate_z(args) -> int:
    model = serialize.load_trf_bundle(args.model)
    try:
        lengths = [int(l) for l in args.lengths or model.supported_lengths]
    except ValueError:
        raise ValueError(f"--lengths must be integers, got {' '.join(args.lengths)}") from None
    zs = exact_zeta(model, lengths, args.budget)
    for l in lengths:
        stored = float(model.zeta[l - 1])
        print(f"l={l} log_Z={fmt(zs[l])} zeta_stored={fmt(stored)} gap={fmt(stored - zs[l])}")
    return 0


def _build_members(cfg: ExperimentConfig, vocab, level):
    entries = cfg.get("rescore", "members").split()
    if not entries:
        raise ConfigError("key 'members' in [rescore] must list at least one kind:path entry")
    members = []
    for entry in entries:
        kind, _, path = entry.partition(":")
        path = path if os.path.isabs(path) else os.path.join(cfg.base_dir, path)
        if not os.path.exists(path):
            raise ConfigError(f"member model file does not exist: {path}")
        if kind in ("ngram", "lstm"):
            scorer = evalkit.NgramScorer if kind == "ngram" else evalkit.LstmScorer
            members.append(scorer(serialize.load_model_file(kind, path, vocab), vocab, level))
        elif kind == "trf":
            model = serialize.load_trf_bundle(path)
            if model.level != level:
                raise ConfigError(f"member {path} tokenizes at level {model.level!r}, "
                                  f"but [rescore] level is {level!r}")
            members.append(evalkit.TrfScorer(model, level))
        else:
            raise ConfigError(f"unknown member kind {kind!r} in [rescore] members")
    return members


def _explicit_weights(text: str, n_members: int) -> tuple[float, ...]:
    """The weights of key 'weights' in [rescore]: one finite number per member."""
    problem = (f"key 'weights' in [rescore] must list one finite number per member "
               f"({n_members}), got {text!r}")
    try:
        weights = tuple(float(x) for x in text.split())
    except ValueError:
        raise ConfigError(problem) from None
    if len(weights) != n_members or not all(map(math.isfinite, weights)):
        raise ConfigError(problem)
    return weights


def cmd_rescore(args) -> int:
    cfg = load_config(args.config)
    cfg.require_section("rescore", "output")
    vocab = corpus_mod.load_vocabulary(cfg.path("rescore", "vocab"))
    level = cfg.get("rescore", "level")
    members = _build_members(cfg, vocab, level)
    weights_cfg = cfg.get("rescore", "weights")
    weights = None if weights_cfg == "grid" else _explicit_weights(weights_cfg, len(members))
    nbests = evalkit.read_nbest_file(args.nbest)
    refs = evalkit.read_refs_file(args.refs)
    nbest_ids = {nb.utt_id for nb in nbests}
    if nbest_ids != set(refs):
        raise ValueError(f"utterance ids disagree between n-best and references: "
                         f"{sorted(nbest_ids ^ set(refs))}")

    table = evalkit.precompute_member_scores(members, nbests)
    if weights is None:
        weights, _ = evalkit.grid_search_weights(table, nbests, refs)
    corners = [tuple(1.0 if j == i else 0.0 for j in range(len(members)))
               for i in range(len(members))]
    rows = ["model,weights,substitutions,insertions,deletions,ref_tokens,wer"]
    # the combined row comes last: its picks are the ones best.txt holds
    for name, w in [*zip((m.kind for m in members), corners), ("combined", weights)]:
        best = evalkit.rescore_with_weights(table, w, nbests)
        r = evalkit.corpus_wer(refs, best)
        rows.append(f"{name},{'|'.join(map(fmt, w))},{r.substitutions},{r.insertions},"
                    f"{r.deletions},{r.ref_tokens},{fmt(r.rate)}")
    out = _outdir(cfg)
    atomic_write_text(os.path.join(out, "wer_report.csv"), "\n".join(rows) + "\n")
    atomic_write_text(os.path.join(out, "best.txt"),
                      "".join(f"{u} {t}\n" for u, t in sorted(best.items())))
    print(f"rescore: combined wer={fmt(r.rate)} weights={weights}")
    return 0


def cmd_gradcheck(args) -> int:
    from . import gradcheck as gc
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    reports = gc.run_suite(range(args.seeds))
    worst = max(reports, key=lambda r: r.max_rel_error / r.threshold)
    for r in reports:
        if args.verbose or not r.passed:
            print(f"{r.label}: max_rel_error={r.max_rel_error:.3e} "
                  f"worst_block={r.worst_tensor} {'ok' if r.passed else 'FAIL'}")
    ok = all(r.passed for r in reports)
    print(f"gradcheck: {'pass' if ok else 'FAIL'} checks={len(reports)} "
          f"worst={worst.label}/{worst.worst_tensor} ({worst.max_rel_error:.3e})")
    return 0 if ok else 1


def main(argv=None) -> int:
    retain_freed_memory()
    parser = argparse.ArgumentParser(prog="trflm")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-pilot", help="write the short-word pilot corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--words", help="optional source word list (default: bundled)")
    p.add_argument("--max-chars", type=int, default=3)
    p.set_defaults(func=cmd_make_pilot)

    for name, fn in (("train-ngram", cmd_train_ngram), ("train-lstm", cmd_train_lstm),
                     ("train-trf", cmd_train_trf)):
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=True)
        p.set_defaults(func=fn)

    p = sub.add_parser("eval", help="NLL of a dataset under a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--exact-z", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("enumerate-z", help="brute-force log-normalizers")
    p.add_argument("--model", required=True)
    p.add_argument("--lengths", nargs="*")
    p.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)
    p.set_defaults(func=cmd_enumerate_z)

    p = sub.add_parser("rescore")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--nbest", required=True)
    p.add_argument("--refs", required=True)
    p.set_defaults(func=cmd_rescore)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, Diverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
