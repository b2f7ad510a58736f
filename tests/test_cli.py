import json
import os

import numpy as np
import pytest

from trflm import cli
from trflm.cli import (ConfigError, ExperimentConfig, builtin_pilot_words,
                       load_config, main, nce_config, parse_config_text, split_pilot)
from trflm.nce import NceConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


MICRO_CONFIG = """\
[corpus]
train = micro/train.txt
valid = micro/valid.txt
level = char
max_len = 5
min_count = 1

[model]
emb_dim = 4
hidden_dim = 4
reference = uniform
zeta_init = linear

[noise]
order = 2
nu = 2

[training]
batch_size = 4
epochs = 2
lr_theta = 0.001
lr_zeta = 0.01
seed = 0
oracle_metrics = true

[lstm]
emb_dim = 4
hidden_dim = 4
layers = 1
lr = 0.5
epochs = 3
batch_size = 4
seed = 0

[ngram]
order = 3

[output]
dir = micro/out
"""


def with_setting(section, key, value):
    """MICRO_CONFIG with `key = value` in [section], in place of any line setting key."""
    head, sep, tail = MICRO_CONFIG.partition(f"[{section}]\n")
    body, _, rest = tail.partition("\n\n")
    lines = [ln for ln in body.splitlines() if ln.split(" = ")[0] != key]
    return head + sep + "\n".join(lines + [f"{key} = {value}"]) + "\n\n" + rest


@pytest.fixture
def micro(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.makedirs("micro")
    words = ["an", "at", "on", "no", "ton", "not", "tan", "ant", "a", "to", "oat", "nan"]
    with open("micro/train.txt", "w") as f:
        f.write("".join(w + "\n" for w in words))
    with open("micro/valid.txt", "w") as f:
        f.write("na\ntot\n")
    with open("micro.ini", "w") as f:
        f.write(MICRO_CONFIG)
    return tmp_path


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config_text("[training]\nfrobnicate = 1\n")


def test_config_rejects_unknown_section():
    with pytest.raises(ConfigError, match="decoder"):
        parse_config_text("[decoder]\nbeam = 5\n")


def test_config_missing_required_key():
    cfg = parse_config_text("[corpus]\nlevel = word\n")
    with pytest.raises(ConfigError, match="train"):
        cfg.get("corpus", "train")


def test_config_type_errors_name_key():
    cfg = parse_config_text("[training]\nepochs = soon\n")
    with pytest.raises(ConfigError, match="epochs"):
        cfg.get("training", "epochs")
    cfg = parse_config_text("[training]\noracle_metrics = maybe\n")
    with pytest.raises(ConfigError, match="oracle_metrics"):
        cfg.get("training", "oracle_metrics")


@pytest.mark.parametrize("text", ["[corpus\ntrain = t.txt\n", "[ngram]\norder = 2\n[ngram]\n",
                                  "[ngram]\norder\n"])
def test_malformed_config_text_is_one_config_error(tmp_path, monkeypatch, capsys, text):
    monkeypatch.chdir(tmp_path)
    with open("bad.ini", "w") as f:
        f.write(text)
    assert main(["train-ngram", "-c", "bad.ini"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "'bad.ini'" in err


@pytest.mark.parametrize("path", ["configs/pilot.ini", "perfbench/configs/paper.ini",
                                  "perfbench/configs/refs.ini"])
def test_committed_configs_load(path):
    # the benchmark runs these configs; a schema change that breaks one fails here
    cfg = load_config(os.path.join(REPO, path), check_paths=False)
    for section, pairs in cfg.raw.items():
        for key in pairs:
            cfg.get(section, key)
    if "training" in cfg.raw:
        assert isinstance(nce_config(cfg), NceConfig)


@pytest.mark.parametrize("key,value", [("optimizer", "sgd"), ("schedule", "halve-each-epoch"),
                                       ("optimizer_zeta", "adam"), ("oracle_budget", "5")])
def test_training_recipe_takes_no_options(micro, capsys, key, value):
    with open("micro.ini", "w") as f:
        f.write(with_setting("training", key, value))
    assert main(["train-trf", "-c", "micro.ini"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error: ") and repr(key) in err and err.count("\n") == 1
    assert not out and not os.path.exists("micro/out")


@pytest.mark.parametrize("argv,setting,says", [
    (["train-trf"], ("training", "epochs", "0"), "config error: epochs must be at least 1"),
    (["train-trf"], ("training", "batch_size", "0"),
     "config error: batch_size must be at least 1"),
    (["train-trf"], ("training", "lr_theta", "1e300"),
     "error: training diverged: non-finite gradient in 'emb' at step 1"),
    (["train-lstm"], ("lstm", "batch_size", "0"),
     "config error: key 'batch_size' in [lstm] must be at least 1"),
    (["train-lstm"], ("lstm", "epochs", "0"),
     "config error: key 'epochs' in [lstm] must be at least 1"),
    (["train-lstm"], ("lstm", "lr", "nan"), "config error: key 'lr' in [lstm] must be positive"),
    (["train-lstm"], ("lstm", "lr", "-0.5"), "config error: key 'lr' in [lstm] must be positive"),
    (["train-lstm"], ("lstm", "lr", "inf"),
     "error: training diverged: non-finite loss or weights in epoch 0"),
    (["train-lstm"], ("lstm", "lr", "1e6"), "error: training diverged: train NLL "),
    (["train-lstm"], ("lstm", "lr", "1e300"), "error: training diverged: "),
    (["make-pilot", "--out", "p", "--max-chars", "0"], None,
     "error: no words of the requested length in the input list"),
    (["gradcheck", "--seeds", "0"], None, "error: --seeds must be at least 1"),
], ids=["training-epochs", "training-batch_size", "training-lr_theta", "lstm-batch_size",
        "lstm-epochs", "lstm-lr-nan", "lstm-lr-negative", "lstm-lr-diverges", "lstm-lr-1e6",
        "lstm-lr-1e300", "max-chars", "seeds"])
def test_bad_setting_is_one_error_line(micro, capsys, argv, setting, says):
    if setting:
        argv = argv + ["-c", "micro.ini"]
        with open("micro.ini", "w") as f:
            f.write(with_setting(*setting))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith(says) and err.count("\n") == 1 and not out
    assert not os.path.exists("micro/out") and not os.path.exists("p")   # no partial output


def test_negative_convolution_sizes_are_one_error_line(micro, capsys):
    # -1 is truthy, so such a model would pass for one with convolutions
    sizes = "bank_width = -1\nbank_channels = -5\nstack_layers = -2\n"
    with open("micro.ini", "w") as f:
        f.write(MICRO_CONFIG.replace("[model]\n", "[model]\n" + sizes))
    assert main(["train-trf", "-c", "micro.ini"]) == 2
    out, err = capsys.readouterr()
    assert err == "error: bank_width must not be negative, got -1\n" and not out
    assert not os.path.exists("micro/out")


@pytest.mark.parametrize("argv", [["gradcheck", "--step", "1e-3"],
                                  ["make-pilot", "--out", "p", "--valid-every", "7"]],
                         ids=["step", "valid-every"])
def test_fixed_settings_are_not_options(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not os.path.exists("p")


@pytest.mark.parametrize("argv", [["train-trf", "-c", "d"], ["eval", "--model", "d", "--data", "d"],
                                  ["make-pilot", "--out", "p", "--words", "d"]],
                         ids=["train-trf", "eval", "make-pilot"])
def test_directory_as_input_file_is_one_error_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    os.mkdir("d")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "'d'" in err and err.count("\n") == 1 and not out
    assert not os.path.exists("p")


def test_config_roundtrip_idempotent():
    cfg = parse_config_text(MICRO_CONFIG)
    once = cfg.dump()
    twice = parse_config_text(once).dump()
    assert once == twice


def test_env_overrides(monkeypatch):
    monkeypatch.setenv("TRFLM_SEED", "99")
    monkeypatch.setenv("TRFLM_OUTDIR", "/tmp/elsewhere")
    cfg = parse_config_text(MICRO_CONFIG)
    assert cfg.get("training", "seed") == 99
    assert cfg.get("lstm", "seed") == 99
    assert cfg.get("output", "dir") == "/tmp/elsewhere"


def test_load_config_checks_paths(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open("c.ini", "w") as f:
        f.write(MICRO_CONFIG)
    with pytest.raises(ConfigError, match="train"):
        load_config("c.ini")


def test_builtin_pilot_words_all_short():
    words = builtin_pilot_words()
    assert len(words) > 400
    assert all(1 <= len(w) <= 3 for w in words)
    assert len(set(words)) == len(words)
    train, valid = split_pilot(words)
    assert set(train) | set(valid) == set(words)
    assert not set(train) & set(valid)


def test_make_pilot_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["make-pilot", "--out", "p1"]) == 0
    assert main(["make-pilot", "--out", "p2"]) == 0
    for name in ("train.txt", "valid.txt"):
        a = (tmp_path / "p1" / name).read_bytes()
        b = (tmp_path / "p2" / name).read_bytes()
        assert a == b and a


def test_make_pilot_filters_user_list(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open("words.txt", "w") as f:
        f.write("Aardvark\ncat\nDOG\nox\nox\nelephant\n")
    assert main(["make-pilot", "--out", "p", "--words", "words.txt"]) == 0
    kept = (tmp_path / "p" / "train.txt").read_text().split() + \
           (tmp_path / "p" / "valid.txt").read_text().split()
    assert sorted(kept) == ["cat", "dog", "ox"]


def test_train_ngram_writes_artifacts(micro):
    assert main(["train-ngram", "-c", "micro.ini"]) == 0
    assert os.path.exists("micro/out/ngram.json")
    assert os.path.exists("micro/out/ngram.arpa")
    assert os.path.exists("micro/out/vocab.txt")
    arpa = open("micro/out/ngram.arpa").read()
    assert arpa.startswith("\\data\\") and arpa.rstrip().endswith("\\end\\")
    metrics = open("micro/out/metrics.csv").read().strip().splitlines()
    assert metrics[0].startswith("order,") and len(metrics) == 2


def test_missing_corpus_is_clean_error(micro, capsys):
    os.remove("micro/train.txt")
    assert main(["train-ngram", "-c", "micro.ini"]) == 2
    assert "train" in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["config", "corpus", "nbest", "refs", "words"])
def test_text_that_is_not_utf8_names_the_file(micro, capsys, reader):
    argv = ["train-ngram", "-c", "micro.ini"]
    bad = {"config": "micro.ini", "corpus": "micro/train.txt", "words": "words.txt",
           "nbest": "nbest.txt", "refs": "refs.txt"}[reader]
    if reader in ("nbest", "refs"):
        assert main(argv) == 0
        argv = write_rescore_inputs("micro/out/vocab.txt", "ngram:micro/out/ngram.json")
    elif reader == "words":
        argv = ["make-pilot", "--out", "p", "--words", bad]
    with open(bad, "ab") as f:
        f.write("caf\u00e9\n".encode("latin-1") if reader == "config" else b"\xff\xfe\n")
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and bad in err and "utf-8" in err
    assert err.count("\n") == 1 and not out


def test_train_lstm_writes_artifacts(micro):
    assert main(["train-lstm", "-c", "micro.ini"]) == 0
    assert os.path.exists("micro/out/lstm.json")
    rows = open("micro/out/metrics_epochs.csv").read().strip().splitlines()
    assert rows[0] == "epoch,train_nll,valid_nll"
    assert len(rows) == 4


def test_train_lstm_out_of_range_ids_are_one_error_line(micro, capsys, monkeypatch):
    # a training row holding an id past the vocabulary is refused before any step
    from trflm.corpus import Sequence
    from trflm.seqnet import lstmlm

    encode = cli.corpus_mod.encode_corpus

    def out_of_range(lines, vocab, level, max_len):
        rows = encode(lines, vocab, level, max_len)
        if len(rows) > 2:                     # the training corpus, not the valid set
            rows[3] = Sequence((vocab.bos, vocab.size, vocab.eos))
        return rows

    steps = []
    step = lstmlm.lstm_lm_train_step
    monkeypatch.setattr(cli.corpus_mod, "encode_corpus", out_of_range)
    monkeypatch.setattr(lstmlm, "lstm_lm_train_step",
                        lambda *a, **k: steps.append(1) or step(*a, **k))
    assert main(["train-lstm", "-c", "micro.ini"]) == 2
    out, err = capsys.readouterr()
    assert err == "error: symbol id out of vocabulary range\n" and not out
    assert not steps and not os.path.exists("micro/out")


def test_train_trf_eval_enumerate_roundtrip(micro, capsys):
    assert main(["train-trf", "-c", "micro.ini"]) == 0
    for name in ("trf.json", "potential.json", "vocab.txt", "noise_ngram.json",
                 "metrics_steps.csv", "metrics_epochs.csv"):
        assert os.path.exists(f"micro/out/{name}")
    capsys.readouterr()

    assert main(["eval", "--model", "micro/out/trf.json", "--data", "micro/valid.txt"]) == 0
    out_stored = capsys.readouterr().out
    assert "nll=" in out_stored and "zeta=stored" in out_stored

    assert main(["eval", "--model", "micro/out/trf.json", "--data", "micro/valid.txt",
                 "--exact-z"]) == 0
    assert "zeta=exact" in capsys.readouterr().out

    assert main(["enumerate-z", "--model", "micro/out/trf.json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3 and all("log_Z=" in ln for ln in lines)


def test_eval_budget_error_suggests_flag(micro, capsys):
    main(["train-trf", "-c", "micro.ini"])
    capsys.readouterr()
    assert main(["eval", "--model", "micro/out/trf.json", "--data", "micro/valid.txt",
                 "--exact-z", "--budget", "2"]) == 2
    err = capsys.readouterr().err
    assert "--exact-z" in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eval_rejects_malformed_model(micro, capsys):
    with open("bad.json", "w") as f:
        json.dump({"format": "not-a-bundle"}, f)
    assert main(["eval", "--model", "bad.json", "--data", "micro/valid.txt"]) == 2
    assert "bundle" in capsys.readouterr().err


def test_eval_stored_matches_exact_after_sync(micro, capsys):
    # sync the stored normalizers to the oracle, then the two paths agree
    from trflm import serialize
    from trflm.trf import exact_zeta, nll, with_exact_zeta
    from trflm import corpus as corpus_mod
    main(["train-trf", "-c", "micro.ini"])
    model = serialize.load_trf_bundle("micro/out/trf.json")
    for l, z in exact_zeta(model).items():
        model.zeta[l - 1] = z
    data = corpus_mod.encode_corpus(corpus_mod.read_corpus("micro/valid.txt"),
                                    model.vocab, "char", model.max_len)
    assert nll(model, data) == pytest.approx(nll(with_exact_zeta(model), data), abs=1e-12)


def test_train_trf_deterministic_metrics(micro):
    assert main(["train-trf", "-c", "micro.ini"]) == 0
    first = open("micro/out/metrics_steps.csv").read()
    assert main(["train-trf", "-c", "micro.ini"]) == 0
    assert open("micro/out/metrics_steps.csv").read() == first


def test_train_ngram_and_lstm_deterministic_artifacts(micro):
    assert main(["train-ngram", "-c", "micro.ini"]) == 0
    assert main(["train-lstm", "-c", "micro.ini"]) == 0
    snaps = {name: open(f"micro/out/{name}", "rb").read()
             for name in ("ngram.json", "ngram.arpa", "lstm.json", "metrics_epochs.csv")}
    assert main(["train-ngram", "-c", "micro.ini"]) == 0
    assert main(["train-lstm", "-c", "micro.ini"]) == 0
    for name, data in snaps.items():
        assert open(f"micro/out/{name}", "rb").read() == data


def train_rescore_members(weights):
    """Train the micro n-gram, LSTM and TRF models and write rescore.ini
    combining them with the given weights."""
    main(["train-ngram", "-c", "micro.ini"])
    main(["train-lstm", "-c", "micro.ini"])
    main(["train-trf", "-c", "micro.ini"])
    with open("rescore.ini", "w") as f:
        f.write("[rescore]\n"
                "vocab = micro/out/vocab.txt\n"
                "level = char\n"
                "members = ngram:micro/out/ngram.json lstm:micro/out/lstm.json"
                " trf:micro/out/trf.json\n"
                f"weights = {weights}\n"
                "[output]\n"
                "dir = micro/out\n")


def write_micro_nbest(n_utts=6, n_hyps=4):
    from trflm import evalkit, ngram as ngram_mod
    from trflm.corpus import LengthPrior, load_vocabulary
    vocab = load_vocabulary("micro/out/vocab.txt")
    model = ngram_mod.load_ngram("micro/out/ngram.json")
    prior = LengthPrior(np.array([0, 0, 0.5, 0.5, 0.0]))
    nbests, refs = evalkit.make_nbest_benchmark(model, vocab, prior,
                                                np.random.default_rng(1),
                                                n_utts=n_utts, n_hyps=n_hyps)
    evalkit.write_nbest_file(nbests, "nbest.txt")
    evalkit.write_refs_file(refs, "refs.txt")


def test_rescore_end_to_end(micro, capsys):
    train_rescore_members("grid")
    capsys.readouterr()
    write_micro_nbest()
    assert main(["rescore", "-c", "rescore.ini", "--nbest", "nbest.txt",
                 "--refs", "refs.txt"]) == 0
    report = open("micro/out/wer_report.csv").read().strip().splitlines()
    assert report[0].startswith("model,")
    assert [r.split(",")[0] for r in report[1:]] == ["ngram", "lstm", "trf", "combined"]
    assert os.path.exists("micro/out/best.txt")


def test_rescore_scores_each_hypothesis_once_per_member(micro, capsys, monkeypatch):
    from collections import Counter
    from trflm import evalkit
    train_rescore_members("grid")
    write_micro_nbest(n_utts=6, n_hyps=4)
    calls, rows = Counter(), Counter()
    for scorer in (evalkit.NgramScorer, evalkit.LstmScorer, evalkit.TrfScorer):
        def counted(self, texts, real=scorer.logprob_batch):
            calls[self.kind] += 1
            rows[self.kind] += len(texts)
            return real(self, texts)
        monkeypatch.setattr(scorer, "logprob_batch", counted)
    assert main(["rescore", "-c", "rescore.ini", "--nbest", "nbest.txt",
                 "--refs", "refs.txt"]) == 0
    assert calls == {"ngram": 1, "lstm": 1, "trf": 1}
    assert rows == {"ngram": 24, "lstm": 24, "trf": 24}


def test_rescore_overlong_hypothesis_is_never_picked(micro, capsys):
    # "tota" encodes to length 6, past the LSTM's and the TRF's max_len of 5
    train_rescore_members("0.2 0.8 0.0")
    with open("nbest.txt", "w") as f:
        f.write("uttA 0 50.0 t o t a\nuttA 1 0.0 t o\nuttA 2 -1.0 t a\n"
                "uttB 0 0.0 a n\nuttB 1 -1.0 n a\n")
    with open("refs.txt", "w") as f:
        f.write("uttA t o\nuttB a n\n")
    capsys.readouterr()
    assert main(["rescore", "-c", "rescore.ini", "--nbest", "nbest.txt",
                 "--refs", "refs.txt"]) == 0
    best = dict(ln.split(" ", 1) for ln in open("micro/out/best.txt").read().splitlines())
    assert best["uttA"] != "t o t a"
    report = open("micro/out/wer_report.csv").read().strip().splitlines()
    assert [r.split(",")[0] for r in report[1:]] == ["ngram", "lstm", "trf", "combined"]


def test_reference_vocab_mismatch_is_clean_error(micro, capsys):
    # reference model trained on one corpus cannot back a model over another
    from trflm import ngram as ngram_mod
    from trflm.corpus import build_vocabulary, encode_corpus
    other_vocab = build_vocabulary(["xyz", "zzz"], level="char")
    other = ngram_mod.train_ngram(encode_corpus(["xyz"], other_vocab, "char"), 2, other_vocab)
    ngram_mod.save_ngram(other, "other.json")
    with open("ref.ini", "w") as f:
        f.write(MICRO_CONFIG.replace("reference = uniform",
                                     "reference = ngram\nreference_file = other.json"))
    assert main(["train-trf", "-c", "ref.ini"]) == 2
    assert "vocabulary" in capsys.readouterr().err


def test_rescore_id_mismatch_lists_ids(micro, capsys):
    main(["train-ngram", "-c", "micro.ini"])
    capsys.readouterr()
    with open("nbest.txt", "w") as f:
        f.write("uttA 0 NA a t\n")
    with open("refs.txt", "w") as f:
        f.write("uttB a t\n")
    with open("rescore.ini", "w") as f:
        f.write("[rescore]\nvocab = micro/out/vocab.txt\nlevel = char\n"
                "members = ngram:micro/out/ngram.json\n[output]\ndir = micro/out\n")
    assert main(["rescore", "-c", "rescore.ini", "--nbest", "nbest.txt",
                 "--refs", "refs.txt"]) == 2
    err = capsys.readouterr().err
    assert "uttA" in err and "uttB" in err
    assert err.startswith("error: utterance ids disagree") and err.count("\n") == 1


def test_gradcheck_cli_passes_and_detects_faults(capsys, monkeypatch):
    from trflm import gradcheck as gc
    instances = []
    real_instance = gc._random_instance
    monkeypatch.setattr(gc, "_random_instance",
                        lambda seed: instances.append(seed) or real_instance(seed))
    assert main(["gradcheck", "--seeds", "2", "--verbose"]) == 0
    assert instances == [0, 1]   # one instance per seed serves its three checks
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[:-1]] == [
        f"{label} seed={seed}" for seed in (0, 1) for label in ("phi/theta", "J/theta", "J/zeta")]
    assert "pass" in out[-1]

    real = gc.potential_backward_batch

    def corrupted(params, cache, scales):
        grads = real(params, cache, scales)
        params.views(grads)["att_beta"] *= 1.01
        return grads

    monkeypatch.setattr(gc, "potential_backward_batch", corrupted)
    assert main(["gradcheck", "--seeds", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "att_beta" in out


def test_serialize_roundtrip_bitexact(micro):
    from trflm import serialize
    main(["train-trf", "-c", "micro.ini"])
    model = serialize.load_trf_bundle("micro/out/trf.json")
    again = serialize.load_trf_bundle("micro/out/trf.json")
    for k, v in model.potential.params.tensors.items():
        assert np.array_equal(v, again.potential.params.tensors[k])
    ids = np.array([(model.vocab.bos, model.vocab.payload_ids[0], model.vocab.eos)])
    assert model.potential.phi_batch(ids)[0] == again.potential.phi_batch(ids)[0]


NGRAM_RESCORE_INI = ("[rescore]\nvocab = micro/out/vocab.txt\nlevel = char\n"
                     "members = ngram:micro/out/ngram.json\n[output]\ndir = micro/out\n")


@pytest.mark.parametrize("which,line,message", [
    ("nbest", "uttA 0", "expected '<utt-id> <rank>"),
    ("nbest", "uttA first -1.0 a t", "rank must be an integer, got 'first'"),
    ("nbest", "uttA 0 loud a t", "acoustic score must be a finite number or NA, got 'loud'"),
    ("refs", "uttA", "reference 'uttA' has no tokens"),
    ("refs", "uttA a n", "reference 'uttA' is repeated"),
])
def test_rescore_malformed_line_names_file_and_line(micro, capsys, which, line, message):
    main(["train-ngram", "-c", "micro.ini"])
    files = {"nbest": ["uttA 0 NA a t", "uttA 1 -2.0 a n"], "refs": ["uttA a t"]}
    files[which].append(line)
    for name, lines in files.items():
        with open(f"{name}.txt", "w") as f:
            f.write("\n".join(lines) + "\n")
    with open("rescore.ini", "w") as f:
        f.write(NGRAM_RESCORE_INI)
    capsys.readouterr()
    assert main(["rescore", "-c", "rescore.ini", "--nbest", "nbest.txt",
                 "--refs", "refs.txt"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {which}.txt:{len(files[which])}: {message}")
    assert err.count("\n") == 1


def test_rescore_empty_nbest_file_is_one_error_line(micro, capsys):
    main(["train-ngram", "-c", "micro.ini"])
    for name, text in (("nbest.txt", "\n"), ("refs.txt", "uttA a t\n"),
                       ("rescore.ini", NGRAM_RESCORE_INI)):
        with open(name, "w") as f:
            f.write(text)
    capsys.readouterr()
    assert main(["rescore", "-c", "rescore.ini", "--nbest", "nbest.txt",
                 "--refs", "refs.txt"]) == 2
    assert capsys.readouterr() == ("", "error: nbest.txt: the n-best file holds no hypotheses\n")


def write_rescore_inputs(vocab, members, level="char", weights="grid"):
    """rescore.ini over the given members, and a one-utterance n-best list with
    its reference; returns the rescore command line."""
    with open("rescore.ini", "w") as f:
        f.write(f"[rescore]\nvocab = {vocab}\nlevel = {level}\nmembers = {members}\n"
                f"weights = {weights}\n[output]\ndir = out\n")
    with open("nbest.txt", "w") as f:
        f.write("uttA 0 NA a t\n")
    with open("refs.txt", "w") as f:
        f.write("uttA a t\n")
    return ["rescore", "-c", "rescore.ini", "--nbest", "nbest.txt", "--refs", "refs.txt"]


def test_rescore_rejects_malformed_weights(micro, capsys):
    main(["train-ngram", "-c", "micro.ini"])
    members = "ngram:micro/out/ngram.json ngram:micro/out/ngram.json"
    # not a number, not finite, and one weight for two members
    for weights in ("x 1", "nan 1", "1 inf", "1"):
        argv = write_rescore_inputs("micro/out/vocab.txt", members, weights=weights)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: key 'weights' in [rescore]") and repr(weights) in err
        assert err.count("\n") == 1


def test_rescore_rejects_empty_members(micro, capsys):
    main(["train-ngram", "-c", "micro.ini"])
    argv = write_rescore_inputs("micro/out/vocab.txt", "")
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "config error: key 'members' in [rescore] must list at least one kind:path entry\n")


@pytest.fixture(scope="module")
def trained_micro(tmp_path_factory):
    """A directory holding the micro corpus and the TRF, n-gram and LSTM LM
    trained on it."""
    d = tmp_path_factory.mktemp("trained")
    cwd = os.getcwd()
    os.chdir(d)
    try:
        os.makedirs("micro")
        with open("micro/train.txt", "w") as f:
            f.write("an\nat\non\nno\nton\nnot\ntan\nant\na\nto\noat\nnan\n")
        with open("micro.ini", "w") as f:
            f.write(MICRO_CONFIG.replace("valid = micro/valid.txt\n", ""))
        for command in ("train-trf", "train-ngram", "train-lstm"):
            assert main([command, "-c", "micro.ini"]) == 0
    finally:
        os.chdir(cwd)
    return d / "micro" / "out"


def test_enumerate_z_past_the_model_lengths(trained_micro, capsys):
    assert main(["enumerate-z", "--model", str(trained_micro / "trf.json"), "--lengths", "6"]) == 2
    out, err = capsys.readouterr()
    assert err == "error: length 6 is past the model's lengths 2..5\n" and not out


def test_enumerate_z_repeated_length_enumerates_once(trained_micro, capsys, monkeypatch):
    from trflm import trf
    calls = []
    real = trf.exact_log_z
    monkeypatch.setattr(trf, "exact_log_z",
                        lambda model, l, budget: calls.append(l) or real(model, l, budget))
    assert main(["enumerate-z", "--model", str(trained_micro / "trf.json"),
                 "--lengths", "3", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert calls == [3] and len(out) == 2 and out[0] == out[1] and out[0].startswith("l=3 ")


def test_enumerate_z_lengths_must_be_integers(trained_micro, capsys):
    assert main(["enumerate-z", "--model", str(trained_micro / "trf.json"),
                 "--lengths", "3", "abc"]) == 2
    out, err = capsys.readouterr()
    assert err == "error: --lengths must be integers, got 3 abc\n" and not out


@pytest.mark.parametrize("command", ["rescore", "enumerate-z"])
@pytest.mark.parametrize("fault", ["pi", "zeta", "vocab_file", "potential_file", "vocab_size",
                                   "not_json", "level"])
def test_malformed_bundle_is_clean_error(trained_micro, tmp_path, monkeypatch, capsys,
                                         command, fault):
    monkeypatch.chdir(tmp_path)
    with open(trained_micro / "trf.json") as f:
        doc = json.load(f)
    doc["vocab_file"] = str(trained_micro / "vocab.txt")
    doc["potential_file"] = str(trained_micro / "potential.json")
    if fault == "vocab_size":
        # one symbol more than the potential was trained on
        with open(trained_micro / "vocab.txt") as f:
            symbols = f.read()
        with open("vocab.txt", "w") as f:
            f.write(symbols + "q\n")
        doc["vocab_file"] = "vocab.txt"
    elif fault == "level":
        doc["level"] = "phoneme"
    elif fault != "not_json":
        del doc[fault]
    with open("bad.json", "w") as f:
        json.dump(doc, f)
        if fault == "not_json":
            f.write(",")
    if command == "rescore":
        argv = write_rescore_inputs(trained_micro / "vocab.txt", "trf:bad.json")
    else:
        argv = ["enumerate-z", "--model", "bad.json"]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: model bundle ") and "bad.json" in captured.err
    assert captured.err.count("\n") == 1
    expect = {"vocab_size": "vocabulary", "not_json": "not JSON",
              "level": "'phoneme'"}.get(fault, repr(fault))
    assert expect in captured.err
    assert captured.out == ""


def reference_config(trained_micro, kind, path):
    """ref.ini: the micro configuration over trained_micro's corpus with the
    reference of a kind read from path; returns the train-trf command line."""
    text = MICRO_CONFIG.replace("valid = micro/valid.txt\n", "")
    text = text.replace("micro/train.txt", str(trained_micro.parent / "train.txt"))
    text = text.replace("reference = uniform", f"reference = {kind}\nreference_file = {path}")
    with open("ref.ini", "w") as f:
        f.write(text.replace("dir = micro/out", "dir = out"))
    return ["train-trf", "-c", "ref.ini"]


@pytest.mark.parametrize("command", ["enumerate-z", "eval", "train-trf"])
def test_lstm_reference_must_score_the_longest_length(trained_micro, tmp_path, monkeypatch,
                                                      capsys, command):
    # the micro model supports lengths up to 5; an LSTM LM of max_len 4 cannot score them
    monkeypatch.chdir(tmp_path)
    with open(trained_micro / "lstm.json") as f:
        doc = json.load(f)
    with open(trained_micro / "trf.json") as f:
        bundle = json.load(f)
    bundle.update(vocab_file=str(trained_micro / "vocab.txt"),
                  potential_file=str(trained_micro / "potential.json"),
                  reference={"kind": "lstm", "file": "lstm.json"})
    with open("bundle.json", "w") as f:
        json.dump(bundle, f)
    argv = {"enumerate-z": ["enumerate-z", "--model", "bundle.json"],
            "eval": ["eval", "--model", "bundle.json",
                     "--data", str(trained_micro.parent / "train.txt")],
            "train-trf": reference_config(trained_micro, "lstm", "lstm.json")}[command]
    for max_len, code in ((4, 2), (6, 0)):   # a longer max_len is valid: zeta absorbs it
        doc["config"]["max_len"] = max_len
        with open("lstm.json", "w") as f:
            json.dump(doc, f)
        capsys.readouterr()
        assert main(argv) == code, max_len
        if code:
            out, err = capsys.readouterr()
            assert err.startswith("error: ") and err.count("\n") == 1 and not out
            assert f"{tmp_path / 'lstm.json'} scores lengths up to 4, but the model supports " \
                "length 5" in err
            assert not os.path.exists("out")


@pytest.mark.parametrize("use", ["reference", "member"])
@pytest.mark.parametrize("kind", ["ngram", "lstm"])
def test_lm_with_swapped_begin_and_end_ids_is_refused_at_load(trained_micro, tmp_path,
                                                              monkeypatch, capsys, kind, use):
    monkeypatch.chdir(tmp_path)
    with open(trained_micro / f"{kind}.json") as f:
        doc = json.load(f)
    ends = doc if kind == "ngram" else doc["config"]
    ends["bos"], ends["eos"] = ends["eos"], ends["bos"]
    with open("lm.json", "w") as f:
        json.dump(doc, f)
    if use == "member":
        argv = write_rescore_inputs(trained_micro / "vocab.txt", f"{kind}:lm.json")
    else:
        argv = reference_config(trained_micro, kind, "lm.json")
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {tmp_path / 'lm.json'} begins and ends "
                                       "sequences with ids 1 and 0, but the vocabulary "
                                       "with 0 and 1\n")
    assert not os.path.exists("out")


@pytest.mark.parametrize("kind", ["ngram", "lstm", "potential"])
def test_model_file_not_json_names_the_file(trained_micro, tmp_path, monkeypatch, capsys, kind):
    monkeypatch.chdir(tmp_path)
    with open("bad.json", "w") as f:
        f.write("not json\n")
    member = f"{kind}:bad.json"
    if kind == "potential":
        with open(trained_micro / "trf.json") as f:
            doc = json.load(f)
        doc["vocab_file"] = str(trained_micro / "vocab.txt")
        doc["potential_file"] = "bad.json"
        with open("bundle.json", "w") as f:
            json.dump(doc, f)
        member = "trf:bundle.json"
    argv = write_rescore_inputs(trained_micro / "vocab.txt", member)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{tmp_path / 'bad.json'} is not JSON" in err


def test_rescore_rejects_trf_member_of_another_level(trained_micro, tmp_path, monkeypatch,
                                                     capsys):
    # the micro TRF was trained on characters; word-level text would be
    # encoded into different sequences than the ones it was trained on
    monkeypatch.chdir(tmp_path)
    argv = write_rescore_inputs(trained_micro / "vocab.txt",
                                f"trf:{trained_micro / 'trf.json'}", level="word")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: member ") and err.count("\n") == 1
    assert "level 'char'" in err and "level is 'word'" in err


def test_rescore_vocabulary_error_names_the_file(trained_micro, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    symbols = (trained_micro / "vocab.txt").read_text()
    (tmp_path / "vocab.txt").write_text(symbols + symbols.splitlines()[-1] + "\n")
    argv = write_rescore_inputs("vocab.txt", f"ngram:{trained_micro / 'ngram.json'}")
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: vocabulary file {tmp_path / 'vocab.txt'}: "
                                       "duplicate symbols in vocabulary\n")


@pytest.mark.parametrize("symbol", ["", "a b"], ids=["empty", "space"])
@pytest.mark.parametrize("reader", ["rescore", "bundle"])
def test_vocabulary_symbol_no_tokenizer_yields_is_one_error_line(
        trained_micro, tmp_path, monkeypatch, capsys, reader, symbol):
    # rescore reads the vocabulary file itself; a trf member reads its bundle's
    monkeypatch.chdir(tmp_path)
    symbols = (trained_micro / "vocab.txt").read_text().splitlines()
    (tmp_path / "bad.txt").write_text("\n".join(symbols[:4] + [symbol] + symbols[5:]) + "\n")
    if reader == "rescore":
        argv = write_rescore_inputs("bad.txt", f"ngram:{trained_micro / 'ngram.json'}")
    else:
        with open(trained_micro / "trf.json") as f:
            doc = json.load(f)
        doc["vocab_file"] = str(tmp_path / "bad.txt")
        doc["potential_file"] = str(trained_micro / "potential.json")
        with open("bundle.json", "w") as f:
            json.dump(doc, f)
        argv = write_rescore_inputs(trained_micro / "vocab.txt", "trf:bundle.json")
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert (f"vocabulary file {tmp_path / 'bad.txt'}: line 5: symbol {symbol!r} "
            "is empty or holds whitespace") in captured.err
    assert captured.out == ""


def faulty_model_file(kind, fault, doc):
    """A potential or LSTM LM parameter document with one fault, or the whole
    document of a faulty n-gram file."""
    if kind == "ngram":
        return {"list": [1], "no_tables": {"format": "trflm-ngram", "version": 1},
                "empty": {}}[fault]
    emb = doc["tensors"]["emb"]
    if fault == "missing_tensor":
        del doc["tensors"]["emb"]
    elif fault == "wrong_shape":   # one row short, with the data to match
        emb["shape"][0] -= 1
        del emb["data"][-emb["shape"][1]:]
    elif fault == "config_key":
        doc["config"]["frobnicate"] = 1
    elif fault == "tensors_not_object":
        doc["tensors"] = list(doc["tensors"])
    else:
        emb["data"][0] = float("nan")
    return doc


TENSOR_FILE_FAULTS = ["missing_tensor", "wrong_shape", "config_key", "tensors_not_object", "nan"]


@pytest.mark.parametrize("command", ["enumerate-z", "rescore"])
@pytest.mark.parametrize("kind,fault", [(kind, fault) for kind in ("potential", "lstm")
                                        for fault in TENSOR_FILE_FAULTS]
                         + [("ngram", fault) for fault in ("list", "no_tables", "empty")])
def test_malformed_model_file_is_one_error_line(trained_micro, tmp_path, monkeypatch, capsys,
                                                command, kind, fault):
    # enumerate-z reads the bad file through a bundle, as its potential or
    # reference; rescore reads it as a member, or through a trf member's bundle
    monkeypatch.chdir(tmp_path)
    with open(trained_micro / f"{kind}.json") as f:
        doc = faulty_model_file(kind, fault, json.load(f))
    with open("bad.json", "w") as f:
        json.dump(doc, f)
    with open(trained_micro / "trf.json") as f:
        bundle = json.load(f)
    bundle["vocab_file"] = str(trained_micro / "vocab.txt")
    bundle["potential_file"] = str(trained_micro / "potential.json")
    if kind == "potential":
        bundle["potential_file"] = "bad.json"
    else:
        bundle["reference"] = {"kind": kind, "file": "bad.json"}
    with open("bundle.json", "w") as f:
        json.dump(bundle, f)
    if command == "enumerate-z":
        argv = ["enumerate-z", "--model", "bundle.json"]
    else:
        member = "trf:bundle.json" if kind == "potential" else f"{kind}:bad.json"
        argv = write_rescore_inputs(trained_micro / "vocab.txt", member)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(tmp_path / "bad.json") in captured.err
    assert captured.out == ""
