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
import shutil
import sys
from importlib import resources

import numpy as np

from . import corpus as corpus_mod
from . import evalkit, ngram as ngram_mod, serialize
from .nce import NceConfig, train as nce_train
from .noise import NoiseDistribution
from .seqnet import (LstmLmConfig, PotentialConfig, NeuralPotential,
                     init_lstm_lm_params, init_potential_params,
                     lstm_lm_logprob_batch, lstm_lm_train_step)
from .trf import (DEFAULT_ENUM_BUDGET, LstmReference, NgramReference, TrfModel,
                  UniformReference, exact_zeta, nll as trf_nll, with_exact_zeta,
                  zeta_init_vector)
from .util import atomic_write_text, derive_rng, fmt, read_text


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
        "optimizer": (str, "adam"), "optimizer_zeta": (str, None),
        "lr_theta": (float, 1e-3), "lr_zeta": (float, 1e-2),
        "schedule": (str, "fixed"), "seed": (int, 0),
        "oracle_metrics": (bool, False), "oracle_budget": (int, DEFAULT_ENUM_BUDGET),
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
                    raise ConfigError(f"path for {key!r} in [{section}] does not exist: {p}")
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


def _reference(cfg: ExperimentConfig, vocab):
    kind = cfg.get("model", "reference")
    ref_file = cfg.path("model", "reference_file")
    if kind == "uniform":
        return UniformReference(len(vocab.payload_ids)), None
    if kind not in ("ngram", "lstm"):
        raise ConfigError(f"unknown reference kind {kind!r} in [model]")
    if ref_file is None:
        raise ConfigError(f"reference {kind!r} needs key 'reference_file' in [model]")
    model = serialize.load_model_file(kind, ref_file, vocab)
    return (NgramReference(model) if kind == "ngram" else LstmReference(model)), ref_file


# -- commands ------------------------------------------------------------------

def builtin_pilot_words() -> list[str]:
    text = resources.files("trflm.data").joinpath("pilot_words.txt").read_text("utf-8")
    return [w for w in text.splitlines() if w]


def split_pilot(words, valid_every: int = 13, offset: int = 6):
    train = [w for i, w in enumerate(words) if i % valid_every != offset]
    valid = [w for i, w in enumerate(words) if i % valid_every == offset]
    return train, valid


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
        print("no words of the requested length in the input list", file=sys.stderr)
        return 2
    train, valid = split_pilot(words, args.valid_every)
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
    train_lp = sum(ngram_mod.logprob_sentence(model, s) for s in train) / len(train)
    valid_lp = ""
    if valid:
        valid_lp = fmt(sum(ngram_mod.logprob_sentence(model, s) for s in valid) / len(valid))
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
    bsz = cfg.get("lstm", "batch_size")
    out = _outdir(cfg)
    rows = ["epoch,train_nll,valid_nll"]
    for epoch in range(cfg.get("lstm", "epochs")):
        order = rng.permutation(len(train))
        losses = []
        for i in range(0, len(train), bsz):
            batch = [train[j] for j in order[i:i + bsz]]
            params, nll_step = lstm_lm_train_step(params, batch, lr)
            losses.append(nll_step)
        valid_nll = ""
        if valid:
            vals = [float(-lstm_lm_logprob_batch(params, ids).sum())
                    for _, ids in corpus_mod.length_buckets(valid)]
            valid_nll = fmt(sum(vals) / len(valid))
        rows.append(f"{epoch},{fmt(float(np.mean(losses)))},{valid_nll}")
    atomic_write_text(os.path.join(out, "metrics_epochs.csv"), "\n".join(rows) + "\n")
    corpus_mod.save_vocabulary(vocab, os.path.join(out, "vocab.txt"))
    serialize.save_lstm_lm(params, os.path.join(out, "lstm.json"))
    print(f"train-lstm: epochs={cfg.get('lstm', 'epochs')} final_train_nll={rows[-1].split(',')[1]}")
    return 0


def cmd_train_trf(args) -> int:
    cfg = load_config(args.config)
    cfg.require_section("corpus", "model", "noise", "training", "output")
    vocab, train, valid, level, max_len = _load_corpus(cfg)
    prior = corpus_mod.empirical_length_prior(train, max_len)
    noise_base = ngram_mod.train_ngram(train, cfg.get("noise", "order"), vocab)
    nd = NoiseDistribution(prior, noise_base)

    pot_cfg = PotentialConfig(
        vocab_size=vocab.size, emb_dim=cfg.get("model", "emb_dim"),
        bank_width=cfg.get("model", "bank_width"),
        bank_channels=cfg.get("model", "bank_channels"),
        stack_layers=cfg.get("model", "stack_layers"),
        hidden_dim=cfg.get("model", "hidden_dim"))
    seed = cfg.get("training", "seed")
    params = init_potential_params(pot_cfg, derive_rng(seed, "init"))
    reference, ref_file = _reference(cfg, vocab)
    model = TrfModel(NeuralPotential(params),
                     zeta_init_vector(cfg.get("model", "zeta_init"), max_len, vocab.size),
                     prior, reference, vocab, level)

    nce_cfg = NceConfig(
        nu=cfg.get("noise", "nu"), batch_size=cfg.get("training", "batch_size"),
        epochs=cfg.get("training", "epochs"),
        lr_theta=cfg.get("training", "lr_theta"), lr_zeta=cfg.get("training", "lr_zeta"),
        optimizer_theta=cfg.get("training", "optimizer"),
        optimizer_zeta=cfg.get("training", "optimizer_zeta") or cfg.get("training", "optimizer"),
        schedule=cfg.get("training", "schedule"), seed=seed)

    out = _outdir(cfg)
    steps_tmp = os.path.join(out, "metrics_steps.csv.tmp")
    epochs_tmp = os.path.join(out, "metrics_epochs.csv.tmp")
    with open(steps_tmp, "w", encoding="utf-8") as step_log, \
            open(epochs_tmp, "w", encoding="utf-8") as epoch_log:
        result = nce_train(model, nd, train, nce_cfg, valid=valid,
                           oracle_metrics=cfg.get("training", "oracle_metrics"),
                           oracle_budget=cfg.get("training", "oracle_budget"),
                           step_log=step_log, epoch_log=epoch_log)
    os.replace(steps_tmp, os.path.join(out, "metrics_steps.csv"))
    os.replace(epochs_tmp, os.path.join(out, "metrics_epochs.csv"))

    corpus_mod.save_vocabulary(vocab, os.path.join(out, "vocab.txt"))
    serialize.save_potential(params, os.path.join(out, "potential.json"))
    ngram_mod.save_ngram(noise_base, os.path.join(out, "noise_ngram.json"))
    bundle_ref = None
    if ref_file is not None:
        bundle_ref = "reference" + os.path.splitext(ref_file)[1]
        shutil.copyfile(ref_file, os.path.join(out, bundle_ref))
    serialize.save_trf_bundle(model, os.path.join(out, "trf.json"),
                              "potential.json", "vocab.txt", bundle_ref)
    last = result.epochs[-1]
    gap = "" if last.zeta_gap_sq is None else f" zeta_gap_sq={fmt(last.zeta_gap_sq)}"
    print(f"train-trf: epochs={len(result.epochs)} steps={result.steps} "
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
            print(f"eval: {exc} (drop --exact-z to use the stored normalizers)",
                  file=sys.stderr)
            return 2
    print(f"eval: sentences={len(data)} zeta={'exact' if args.exact_z else 'stored'} "
          f"nll={fmt(trf_nll(model, data))}")
    return 0


def cmd_enumerate_z(args) -> int:
    model = serialize.load_trf_bundle(args.model)
    lengths = [int(l) for l in args.lengths] if args.lengths else list(model.supported_lengths)
    zs = exact_zeta(model, lengths, args.budget)
    for l in lengths:
        stored = float(model.zeta[l - 1])
        print(f"l={l} log_Z={fmt(zs[l])} zeta_stored={fmt(stored)} gap={fmt(stored - zs[l])}")
    return 0


def _build_members(cfg: ExperimentConfig, vocab, level):
    members = []
    names = []
    for entry in cfg.get("rescore", "members").split():
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
        names.append(kind)
    return members, names


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
    members, names = _build_members(cfg, vocab, level)
    weights_cfg = cfg.get("rescore", "weights")
    weights = None if weights_cfg == "grid" else _explicit_weights(weights_cfg, len(members))
    nbests = evalkit.read_nbest_file(args.nbest)
    refs = evalkit.read_refs_file(args.refs)
    nbest_ids = {nb.utt_id for nb in nbests}
    if nbest_ids != set(refs):
        missing = sorted(nbest_ids ^ set(refs))
        print(f"rescore: utterance ids disagree between n-best and references: {missing}",
              file=sys.stderr)
        return 2

    scores = evalkit.precompute_member_scores(members, nbests)
    rows = ["model,weights,substitutions,insertions,deletions,ref_tokens,wer"]
    for i, name in enumerate(names):
        w = tuple(1.0 if j == i else 0.0 for j in range(len(members)))
        best = evalkit.rescore_with_weights(members, w, nbests, scores)
        r = evalkit.corpus_wer(refs, best)
        rows.append(f"{name},{'|'.join(map(fmt, w))},{r.substitutions},{r.insertions},"
                    f"{r.deletions},{r.ref_tokens},{fmt(r.rate)}")
    if weights is None:
        weights, _ = evalkit.grid_search_weights(members, nbests, refs, scores=scores)
    best = evalkit.rescore_with_weights(members, weights, nbests, scores)
    r = evalkit.corpus_wer(refs, best)
    rows.append(f"combined,{'|'.join(map(fmt, weights))},{r.substitutions},{r.insertions},"
                f"{r.deletions},{r.ref_tokens},{fmt(r.rate)}")
    out = _outdir(cfg)
    atomic_write_text(os.path.join(out, "wer_report.csv"), "\n".join(rows) + "\n")
    atomic_write_text(os.path.join(out, "best.txt"),
                      "".join(f"{u} {t}\n" for u, t in sorted(best.items())))
    print(f"rescore: combined wer={fmt(r.rate)} weights={weights}")
    return 0


def cmd_gradcheck(args) -> int:
    from . import gradcheck as gc
    reports = gc.run_suite(range(args.seeds), args.step)
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
    parser = argparse.ArgumentParser(prog="trflm")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-pilot", help="write the short-word pilot corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--words", help="optional source word list (default: bundled)")
    p.add_argument("--max-chars", type=int, default=3)
    p.add_argument("--valid-every", type=int, default=13)
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
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
