import itertools

import numpy as np
import pytest

from trflm import gradcheck
from trflm.corpus import Sequence, length_buckets
from trflm.gradcheck import numeric_grad_tensors, relative_errors
from trflm.seqnet import (LstmLmConfig, PotentialConfig, init_lstm_lm_params,
                          init_potential_params, layers, lstm_lm_logprob_batch,
                          lstm_lm_loss_grads, lstm_lm_train_epoch, lstm_lm_train_step,
                          lstmlm, potential, potential_backward_batch, potential_phi_batch)
from trflm.seqnet.layers import conv1d_backward, conv1d_forward, lstm_backward, lstm_forward


def small_params(seed=0, **kw):
    cfg = PotentialConfig(vocab_size=kw.pop("vocab_size", 5), emb_dim=4,
                          bank_width=2, bank_channels=3, stack_layers=2,
                          hidden_dim=4, **kw)
    return init_potential_params(cfg, seed)


def seq(*ids):
    return Sequence(tuple(ids))


def phi_of(params, x):
    """phi of one sequence through the batch API with N = 1, and its cache."""
    phi, cache = potential_phi_batch(params, np.array([x.ids]))
    return float(phi[0]), cache


NETWORK_CONFIGS = pytest.mark.parametrize("config", [
    PotentialConfig(vocab_size=29, emb_dim=16, hidden_dim=16),
    PotentialConfig(vocab_size=29, emb_dim=16, bank_width=3, bank_channels=8,
                    stack_layers=2, hidden_dim=16),
    LstmLmConfig(vocab_size=29, emb_dim=12, hidden_dim=24, max_len=5),
], ids=["pilot-potential", "paper-potential", "refs-lstm-lm"])


@NETWORK_CONFIGS
def test_init_params_draws_each_tensor_in_turn(config):
    # one draw over the flat vector gives the weights of one draw per tensor
    params = layers.init_params(config, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    for name, shape in config.param_shapes():
        assert np.array_equal(params.tensors[name], rng.uniform(-0.1, 0.1, size=shape)), name
    assert all(np.shares_memory(v, params.flat) for v in params.tensors.values())


@NETWORK_CONFIGS
def test_views_read_a_layout_computed_once(config, monkeypatch):
    params = layers.init_params(config, 3)
    calls = []
    shapes = type(config).param_shapes

    def counting(self):
        calls.append(1)
        return shapes(self)

    monkeypatch.setattr(type(config), "param_shapes", counting)
    grad = np.arange(params.flat.size, dtype=np.float64)
    for _ in range(3):
        views = params.views(grad)
    assert not calls
    assert list(views) == [name for name, _ in shapes(config)]
    for name, shape in shapes(config):
        assert views[name].shape == shape and np.shares_memory(views[name], grad), name
        assert np.array_equal(views[name], params.views(grad)[name])
    assert sum(v.size for v in views.values()) == grad.size
    views["bias" if "bias" in views else "out_b"][...] = -1.0
    assert (grad == -1.0).sum() == (1 if "bias" in views else config.vocab_size)


def test_zero_attention_score_collapses_to_bias():
    params = small_params()
    params.tensors["att_beta"][:] = 0.0
    c = float(params.tensors["bias"])
    phi, _ = phi_of(params, seq(0, 3, 4, 1))
    assert phi == c


def test_bias_additivity():
    params = small_params()
    x = seq(0, 3, 4, 3, 1)
    phi0, _ = phi_of(params, x)
    params.tensors["bias"] += 2.5
    phi1, _ = phi_of(params, x)
    assert phi1 == pytest.approx(phi0 + 2.5, abs=1e-12)


@pytest.mark.parametrize("width", range(1, 7))
@pytest.mark.parametrize("length", range(1, 7))
def test_conv_preserves_time_resolution(width, length):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, length, 3))
    w = rng.normal(size=(width, 3, 5))
    y, _ = conv1d_forward(x, w, np.zeros(5))
    assert y.shape == (2, length, 5)


def direct_conv1d(x, w, b):
    """y[n, t] = b + sum_j x[n, t + j - (k-1)//2] @ w[j] over the taps that
    fall inside the sequence, one output at a time."""
    k = w.shape[0]
    n, length, _ = x.shape
    y = np.empty((n, length, w.shape[2]))
    for i, t in itertools.product(range(n), range(length)):
        y[i, t] = b
        for j in range(k):
            if 0 <= t + j - (k - 1) // 2 < length:
                y[i, t] += x[i, t + j - (k - 1) // 2] @ w[j]
    return y


# widths 1..6 over lengths 1..6: windows wider than the sequence read mostly padding
CONV_GRID = list(itertools.product(range(1, 7), range(1, 7)))


def test_conv1d_matches_direct_convolution():
    for width, length in CONV_GRID:
        rng = np.random.default_rng([width, length])
        x = rng.normal(size=(4, length, 3))
        w = rng.normal(size=(width, 3, 5))
        b = rng.normal(size=5)
        y, _ = conv1d_forward(x, w, b)
        assert np.abs(y - direct_conv1d(x, w, b)).max() < 1e-12, (width, length)


def test_conv1d_backward_is_the_adjoint():
    # <conv(x; w, 0), dy> = <x, dx> and <conv(x; w, b), dy> - <b, sum dy> = <w, dW>
    for width, length in CONV_GRID:
        rng = np.random.default_rng([width, length, 1])
        x = rng.normal(size=(4, length, 3))
        w = rng.normal(size=(width, 3, 5))
        b = rng.normal(size=5)
        dy = rng.normal(size=(4, length, 5))
        y, cache = conv1d_forward(x, w, b)
        dx, dw, db = conv1d_backward(dy, cache)
        assert dx.shape == x.shape and dw.shape == w.shape and db.shape == b.shape
        y0, _ = conv1d_forward(x, w, np.zeros(5))
        assert abs((y0 * dy).sum() - (x * dx).sum()) < 1e-12, (width, length)
        assert abs((y * dy).sum() - b @ dy.sum(axis=(0, 1)) - (w * dw).sum()) < 1e-12
        assert np.abs(db - dy.sum(axis=(0, 1))).max() < 1e-12


def reference_bank(params, x, dy):
    """The bank as separate per-width convolutions spliced by concatenate:
    its preactivations, and the weight and input gradients of an upstream
    gradient dy on them."""
    cfg, t = params.config, params.tensors
    f = cfg.bank_channels
    pre, grads, dx = [], {}, 0.0
    for k in range(1, cfg.bank_width + 1):
        y, cache = conv1d_forward(x, t[f"bank{k}_w"], t[f"bank{k}_b"])
        pre.append(y)
        dxk, grads[f"bank{k}_w"], grads[f"bank{k}_b"] = conv1d_backward(
            dy[:, :, (k - 1) * f:k * f], cache)
        dx = dx + dxk
    return np.concatenate(pre, axis=2), grads, dx


@pytest.mark.parametrize("bank_width", [1, 2, 3])
@pytest.mark.parametrize("length", [1, 2, 5])
def test_bank_matches_separate_convolutions(bank_width, length):
    cfg = PotentialConfig(vocab_size=7, emb_dim=4, bank_width=bank_width, bank_channels=3,
                          stack_layers=1, hidden_dim=3)
    params = init_potential_params(cfg, 5)
    rng = np.random.default_rng([bank_width, length])
    x = rng.normal(size=(6, length, 4))
    dy = rng.normal(size=(6, length, 3 * bank_width))
    ref_pre, ref_grads, ref_dx = reference_bank(params, x, dy)
    # the bank is the first of the potential's convolution layers
    w, b = next(potential._conv_layers(cfg, params.tensors))
    pre, ck = conv1d_forward(x, w, b)
    dx, dw, db = conv1d_backward(dy, ck)
    grads = dict(potential._conv_grads(cfg, 0, dw, db))
    assert np.abs(pre - ref_pre).max() < 1e-12
    assert np.abs(dx - ref_dx).max() < 1e-12
    assert grads.keys() == ref_grads.keys()
    for name, want in ref_grads.items():
        assert np.abs(grads[name] - want).max() < 1e-12, name


def reference_preactivations(params, ids):
    """Every ReLU preactivation of the convolutions, the bank's per width."""
    cfg, t = params.config, params.tensors
    x = t["emb"][ids]
    bank, _, _ = reference_bank(params, x, np.zeros(x.shape[:2] + (cfg.bank_width
                                                                  * cfg.bank_channels,)))
    pre, x = [bank], np.maximum(bank, 0.0)
    for i in range(1, cfg.stack_layers + 1):
        y, _ = conv1d_forward(x, t[f"stack{i}_w"], t[f"stack{i}_b"])
        pre.append(y)
        x = np.maximum(y, 0.0)
    return pre


def test_every_intermediate_keeps_length():
    params = small_params()
    for l in range(1, 6):
        ids = np.array([[0] + [3] * (l - 1)])
        phi, cache = potential_phi_batch(params, ids)
        assert len(cache["conv"]) == 1 + params.config.stack_layers
        for (ck, pre), want in zip(cache["conv"], reference_preactivations(params, ids)):
            assert pre.shape[1] == l
            # every layer's preactivations, the bank's with every width's channels
            assert np.abs(pre - want).max() < 1e-12
        assert cache["h"].shape[1] == l


def test_kink_audit_sees_every_bank_preactivation():
    params = small_params(seed=2)
    seqs = [seq(0, 3, 4, 1), seq(0, 2, 1), seq(0, 4, 4, 3, 2, 1)]
    want = min(float(np.abs(p).min()) for s in seqs
               for p in reference_preactivations(params, np.array([s.ids])))
    assert gradcheck._min_conv_preactivation(params, seqs) == pytest.approx(want, abs=1e-12)
    # a preactivation of any bank width at the kink is the smallest one the audit sees
    t = params.tensors
    for k in (1, 2):
        keep = t[f"bank{k}_b"].copy()
        channel = (k - 1) * params.config.bank_channels + 1
        t[f"bank{k}_b"][1] -= reference_preactivations(
            params, np.array([seqs[1].ids]))[0][0, 1, channel]
        assert gradcheck._min_conv_preactivation(params, seqs) < 1e-12, k
        t[f"bank{k}_b"][...] = keep


def test_forward_bit_deterministic():
    params = small_params(seed=3)
    x = seq(0, 3, 4, 1)
    phis = {phi_of(params, x)[0] for _ in range(5)}
    assert len(phis) == 1


def test_bias_gradient_is_upstream_scale():
    params = small_params()
    x = seq(0, 4, 1)
    _, cache = phi_of(params, x)
    grads = potential_backward_batch(params, cache, np.array([3.25]))
    assert float(params.views(grads)["bias"]) == 3.25


def test_zero_upstream_gives_zero_gradient():
    params = small_params()
    _, cache = phi_of(params, seq(0, 4, 1))
    grads = potential_backward_batch(params, cache, np.array([0.0]))
    assert np.all(grads == 0.0)


def test_dimension_errors():
    params = small_params()
    with pytest.raises(ValueError, match="vocabulary"):
        phi_of(params, seq(0, 99, 1))
    with pytest.raises(ValueError):
        PotentialConfig(vocab_size=5, bank_width=3, bank_channels=4, stack_layers=0)


@pytest.mark.parametrize("seed", range(3))
def test_potential_gradient_matches_finite_differences(seed, seed_reports):
    report = seed_reports(seed)[0]
    assert report.passed, f"{report.worst_tensor}: {report.max_rel_error}"


@pytest.mark.parametrize("bank_width,stack_layers", [(0, 1), (0, 2), (1, 1)])
def test_convolution_shapes_gradient_matches_finite_differences(bank_width, stack_layers):
    # shapes gradcheck's random instances never draw: a stack with no bank, a width-1 bank
    cfg = PotentialConfig(vocab_size=6, emb_dim=3, bank_width=bank_width, bank_channels=2,
                          stack_layers=stack_layers, hidden_dim=4)
    seqs = [seq(0, 3, 4, 5, 1), seq(0, 5, 2, 3, 1), seq(0, 4, 4, 2, 1)]
    ids = np.array([s.ids for s in seqs])
    params = next(p for p in (init_potential_params(cfg, s) for s in range(100))
                  if gradcheck._min_conv_preactivation(p, seqs) > gradcheck.KINK_MARGIN)
    scales = np.array([1.7, -0.6, 0.9])
    _, cache = potential_phi_batch(params, ids)
    assert len(cache["conv"]) == (bank_width > 0) + stack_layers
    analytic = params.views(potential_backward_batch(params, cache, scales))
    numeric = numeric_grad_tensors(
        lambda: float(scales @ potential_phi_batch(params, ids)[0]), params.tensors)
    errs = relative_errors(analytic, numeric)
    assert max(errs.values()) < 1e-5, errs


def test_lstm_layer_gradient():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 4, 3))
    tensors = {"w": rng.uniform(-0.3, 0.3, (3 + 5, 20)), "b": rng.uniform(-0.1, 0.1, 20)}
    dh = rng.normal(size=(2, 4, 5))

    h, cache = lstm_forward(x, tensors["w"], tensors["b"])
    _, dw, db = lstm_backward(dh, cache)
    numeric = numeric_grad_tensors(
        lambda: float((lstm_forward(x, tensors["w"], tensors["b"])[0] * dh).sum()),
        tensors)
    errs = relative_errors({"w": dw, "b": db}, numeric)
    assert max(errs.values()) < 1e-6


# The step-by-step LSTM scan over concatenated [x_t, h_{t-1}] inputs, with
# per-gate caches: the reference the time-major, gate-major kernel must match.

def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def reference_lstm_forward(x, w, b):
    n, length, cin = x.shape
    d = w.shape[1] // 4
    h = np.zeros((n, length, d))
    zin = np.zeros((n, length, cin + d))
    gi, gf, gg, go, c, tc = (np.zeros((n, length, d)) for _ in range(6))
    h_prev = np.zeros((n, d))
    c_prev = np.zeros((n, d))
    for t in range(length):
        zin[:, t, :cin] = x[:, t, :]
        zin[:, t, cin:] = h_prev
        gates = zin[:, t, :] @ w + b
        gi[:, t] = _sigmoid(gates[:, :d])
        gf[:, t] = _sigmoid(gates[:, d:2 * d])
        gg[:, t] = np.tanh(gates[:, 2 * d:3 * d])
        go[:, t] = _sigmoid(gates[:, 3 * d:])
        c[:, t] = gf[:, t] * c_prev + gi[:, t] * gg[:, t]
        tc[:, t] = np.tanh(c[:, t])
        h[:, t] = go[:, t] * tc[:, t]
        h_prev = h[:, t]
        c_prev = c[:, t]
    return h, (zin, gi, gf, gg, go, c, tc, w, cin)


def reference_lstm_backward(dh, cache):
    zin, gi, gf, gg, go, c, tc, w, cin = cache
    n, length, d = gi.shape
    dx = np.zeros((n, length, cin))
    dw = np.zeros_like(w)
    db = np.zeros(w.shape[1])
    dh_next = np.zeros((n, d))
    dc_next = np.zeros((n, d))
    for t in reversed(range(length)):
        dht = dh[:, t] + dh_next
        do = dht * tc[:, t]
        dc = dc_next + dht * go[:, t] * (1.0 - tc[:, t] ** 2)
        c_prev = c[:, t - 1] if t > 0 else np.zeros((n, d))
        di = dc * gg[:, t]
        dg = dc * gi[:, t]
        df = dc * c_prev
        dc_next = dc * gf[:, t]
        dgates = np.concatenate([
            di * gi[:, t] * (1.0 - gi[:, t]),
            df * gf[:, t] * (1.0 - gf[:, t]),
            dg * (1.0 - gg[:, t] ** 2),
            do * go[:, t] * (1.0 - go[:, t]),
        ], axis=1)
        dw += zin[:, t].T @ dgates
        db += dgates.sum(axis=0)
        dzin = dgates @ w.T
        dx[:, t] = dzin[:, :cin]
        dh_next = dzin[:, cin:]
    return dx, dw, db


@pytest.mark.parametrize("n,length,cin,d", [
    (8, 5, 16, 16),   # a potential's BLSTM direction
    (10, 4, 12, 24),  # the LSTM LM of the rescoring references: Cin != d
    (6, 1, 3, 5),     # length 1, the LSTM LM's shortest input
    (1, 6, 5, 4),     # N = 1
    (1, 1, 4, 2),
])
def test_lstm_matches_reference_scan(n, length, cin, d):
    rng = np.random.default_rng([n, length, cin, d])
    x = rng.normal(size=(n, length, cin))
    w = rng.uniform(-0.8, 0.8, (cin + d, 4 * d))
    b = rng.uniform(-0.5, 0.5, 4 * d)
    dh = rng.normal(size=(n, length, d))
    dh_before = dh.copy()
    h_ref, cache_ref = reference_lstm_forward(x, w, b)
    h, cache = lstm_forward(x, w, b)
    assert h.shape == (n, length, d)
    assert np.max(np.abs(h - h_ref)) < 1e-13
    for got, want in zip(lstm_backward(dh, cache), reference_lstm_backward(dh, cache_ref)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(dh, dh_before)


def test_conv_layer_gradient():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 5, 3))
    tensors = {"w": rng.normal(size=(4, 3, 2)), "b": rng.normal(size=2)}
    dy = rng.normal(size=(2, 5, 2))
    _, cache = conv1d_forward(x, tensors["w"], tensors["b"])
    dx, dw, db = conv1d_backward(dy, cache)
    numeric = numeric_grad_tensors(
        lambda: float((conv1d_forward(x, tensors["w"], tensors["b"])[0] * dy).sum()),
        tensors)
    errs = relative_errors({"w": dw, "b": db}, numeric)
    assert max(errs.values()) < 1e-6


# -- LSTM LM -------------------------------------------------------------------

def lm_cfg(**kw):
    return LstmLmConfig(vocab_size=kw.pop("vocab_size", 5), emb_dim=3,
                        hidden_dim=4, **kw)


def enumerate_space(vocab_size, max_len):
    payload = [i for i in range(vocab_size) if i not in (0, 1)]
    for l in range(2, max_len + 1):
        for combo in itertools.product(payload, repeat=l - 2):
            yield (0,) + combo + (1,)


@pytest.mark.parametrize("layers", [1, 2])
def test_lstm_lm_total_mass_is_one(layers):
    cfg = lm_cfg(num_layers=layers, max_len=5)
    params = init_lstm_lm_params(cfg, seed=11)
    total = 0.0
    for ids in enumerate_space(5, 5):
        total += np.exp(lstm_lm_logprob_batch(params, np.array([ids]))[0])
    assert total == pytest.approx(1.0, abs=1e-6)


def test_lstm_lm_logprob_nonpositive_and_deterministic():
    params = init_lstm_lm_params(lm_cfg(max_len=6), seed=2)
    ids = np.array([(0, 3, 4, 3, 1)])
    vals = {lstm_lm_logprob_batch(params, ids)[0] for _ in range(3)}
    assert len(vals) == 1 and vals.pop() <= 0.0


def test_lstm_lm_rejects_bad_sequences():
    params = init_lstm_lm_params(lm_cfg(max_len=4), seed=0)
    with pytest.raises(ValueError):
        lstm_lm_logprob_batch(params, np.array([(0, 3, 3, 3, 1)]))   # too long
    with pytest.raises(ValueError):
        lstm_lm_logprob_batch(params, np.array([(3, 4, 1)]))          # no begin
    with pytest.raises(ValueError, match="boundary symbol inside payload"):
        lstm_lm_logprob_batch(params, np.array([(0, 3, 1, 1)]))       # end inside payload
    for bad in (5, -1):                                               # past either end
        with pytest.raises(ValueError, match="vocabulary range"):
            lstm_lm_logprob_batch(params, np.array([(0, bad, 1)]))
        with pytest.raises(ValueError, match="vocabulary range"):
            lstm_lm_train_step(params, [np.array([(0, 3, 1)]), np.array([(0, bad, 3, 1)])], 0.5)


def by_length(*rows):
    """A batch as its per-length (N, l) id arrays, ascending in l, rows in order."""
    return [np.array([r for r in rows if len(r) == l]) for l in sorted(set(map(len, rows)))]


def assert_lm_gradient_matches_finite_differences(max_len, batch):
    params = init_lstm_lm_params(lm_cfg(max_len=max_len, num_layers=2), seed=4)
    _, grads = lstm_lm_loss_grads(params, batch)
    numeric = numeric_grad_tensors(
        lambda: lstm_lm_loss_grads(params, batch)[0], params.tensors)
    errs = relative_errors(params.views(grads), numeric)
    assert max(errs.values()) < 1e-5, errs


def test_lstm_lm_gradient_matches_finite_differences():
    assert_lm_gradient_matches_finite_differences(
        6, by_length((0, 3, 4, 1), (0, 2, 1), (0, 4, 4, 3, 1)))


def test_lstm_lm_gradient_at_max_len():
    # rows at max_len skip the forced end symbol's step; the others keep it,
    # so lengths 4 and 3 share one pass
    assert_lm_gradient_matches_finite_differences(
        4, by_length((0, 3, 4, 1), (0, 2, 2, 1), (0, 4, 1), (0, 1)))


def test_lstm_lm_max_len_two_is_certain():
    params = init_lstm_lm_params(lm_cfg(max_len=2), seed=4)
    assert lstm_lm_logprob_batch(params, np.array([(0, 1), (0, 1)])).tolist() == [0.0, 0.0]
    nll, grads = lstm_lm_loss_grads(params, [np.array([(0, 1)])])
    assert nll == 0.0 and not grads.any()


def lexicographic_space(vocab_size, length):
    """Every [begin, payload, end] row of one length, last payload symbol fastest."""
    payload = range(2, vocab_size)
    return np.array([(0, *p, 1) for p in itertools.product(payload, repeat=length - 2)])


def unshared_logprob(params, ids):
    """lstm_lm_logprob_batch without sharing runs: one pass over every row."""
    steps = lstmlm._steps(params.config, ids.shape[1])
    _, _, logits, lse = lstmlm._forward(params, ids[:, :steps])
    rows, cols = np.arange(len(ids))[:, None], np.arange(steps)[None, :]
    return (logits[rows, cols, ids[:, 1:steps + 1]] - lse).sum(axis=1)


@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("max_len, length", [(5, 3), (5, 4), (4, 4), (5, 5), (2, 2)])
def test_lstm_lm_shared_runs_are_exact(num_layers, max_len, length):
    params = init_lstm_lm_params(lm_cfg(vocab_size=6, num_layers=num_layers,
                                        max_len=max_len), seed=9)
    ids = lexicographic_space(6, length)
    whole = lstm_lm_logprob_batch(params, ids)
    assert np.array_equal(whole, unshared_logprob(params, ids))
    # A one-row pass multiplies through BLAS gemv, which may round the last
    # bit differently from the gemm of a many-row pass.
    one = np.array([lstm_lm_logprob_batch(params, row[None])[0] for row in ids])
    assert np.abs(whole - one).max() < 1e-12


@pytest.mark.parametrize("num_layers", [1, 2])
def test_lstm_lm_shared_runs_split_and_repeated(num_layers):
    # At max_len 5 over 4 payload symbols the 64 rows make 16 runs of 4.
    params = init_lstm_lm_params(lm_cfg(vocab_size=6, num_layers=num_layers, max_len=5),
                                 seed=9)
    ids = lexicographic_space(6, 5)
    whole = lstm_lm_logprob_batch(params, ids)
    # chunk edges inside runs; every chunk still spans two runs or more
    cuts = (0, 6, 13, 27, 50, 64)
    chunked = np.concatenate([lstm_lm_logprob_batch(params, ids[a:b])
                              for a, b in zip(cuts, cuts[1:])])
    assert np.array_equal(chunked, whole)
    # a row that comes back after other runs is scored again, to the same value
    again = lstm_lm_logprob_batch(params, np.concatenate([ids, ids[:1], ids[5:7]]))
    assert np.array_equal(again, np.concatenate([whole, whole[:1], whole[5:7]]))


def test_lstm_lm_runs_one_pass_per_shared_prefix(monkeypatch):
    # P = 4 payload symbols at max_len 5: P^3 rows share P^2 passes of 3 steps
    params = init_lstm_lm_params(lm_cfg(vocab_size=6, max_len=5), seed=9)
    shapes = []

    def counting(x, w, b):
        shapes.append(x.shape[:2])
        return lstm_forward(x, w, b)

    monkeypatch.setattr(layers, "lstm_forward", counting)
    lstm_lm_logprob_batch(params, lexicographic_space(6, 5))
    assert shapes == [(4 ** 2, 3)]


def per_length_loss_grads(params, batch):
    """lstm_lm_loss_grads with one pass per length, as it was before rows of
    max_len and max_len-1 shared a pass."""
    cfg, t = params.config, params.tensors
    flat = np.zeros_like(params.flat)
    grads = params.views(flat)
    n_total = sum(len(ids) for ids in batch)
    total_nll = 0.0
    for ids in batch:
        steps = lstmlm._steps(cfg, ids.shape[1])
        if not steps:
            continue
        inputs, targets = ids[:, :steps], ids[:, 1:steps + 1]
        caches, h, logits, lse = lstmlm._forward(params, inputs)
        rows, cols = np.arange(len(ids))[:, None], np.arange(steps)[None, :]
        total_nll += float(-(logits[rows, cols, targets] - lse).sum(axis=1).sum())
        dlogits = np.exp(logits - lse[:, :, None]) / n_total
        dlogits[rows, cols, targets] -= 1.0 / n_total
        grads["out_w"] += np.einsum("ntd,ntv->dv", h, dlogits)
        grads["out_b"] += dlogits.sum(axis=(0, 1))
        dh = dlogits @ t["out_w"].T
        for i in reversed(range(1, cfg.num_layers + 1)):
            dh, dw, db = lstm_backward(dh, caches[i - 1])
            grads[f"lstm{i}_w"] += dw
            grads[f"lstm{i}_b"] += db
        grads["emb"] += layers.embedding_backward(dh, inputs, t["emb"].shape)
    return total_nll / n_total, flat


def random_rows(rng, n, max_len, vocab_size=6):
    """n [begin, payload, end] rows of random lengths 2..max_len."""
    return [(0, *rng.integers(2, vocab_size, size=rng.integers(0, max_len - 1)).tolist(), 1)
            for _ in range(n)]


@pytest.mark.parametrize("num_layers", [1, 2])
def test_lstm_lm_joined_pass_matches_one_pass_per_length(num_layers):
    params = init_lstm_lm_params(lm_cfg(vocab_size=6, num_layers=num_layers, max_len=5), seed=3)
    batch = by_length(*random_rows(np.random.default_rng(1), 40, 5))
    assert [ids.shape[1] for ids in batch] == [2, 3, 4, 5]
    nll, grads = lstm_lm_loss_grads(params, batch)
    ref_nll, ref_grads = per_length_loss_grads(params, batch)
    assert abs(nll - ref_nll) < 1e-12 and np.abs(grads - ref_grads).max() < 1e-12


def test_lstm_lm_training_joins_max_len_and_one_shorter(monkeypatch):
    # lengths 5 and 4 at max_len 5 both run 3 steps over their first 3 columns
    params = init_lstm_lm_params(lm_cfg(vocab_size=6, max_len=5), seed=9)
    shapes = []

    def counting(x, w, b):
        shapes.append(x.shape[:2])
        return lstm_forward(x, w, b)

    monkeypatch.setattr(layers, "lstm_forward", counting)
    lstm_lm_loss_grads(params, by_length((0, 2, 3, 4, 1), (0, 3, 3, 1), (0, 5, 2, 2, 1)))
    assert shapes == [(3, 3)]


def test_lstm_lm_epoch_is_one_step_per_shuffled_batch():
    # an epoch picks each step's rows from the corpus buckets; the steps match
    # steps on each shuffled batch bucketed on its own, bit for bit
    cfg = lm_cfg(vocab_size=6, max_len=5)
    corpus = [Sequence(r) for r in random_rows(np.random.default_rng(2), 23, 5)]
    params, ref = init_lstm_lm_params(cfg, seed=5), init_lstm_lm_params(cfg, seed=5)
    flat = params.flat
    losses = lstm_lm_train_epoch(params, list(length_buckets(corpus)),
                                 np.random.default_rng(4), 5, 0.5)
    order = np.random.default_rng(4).permutation(len(corpus))
    ref_losses = [lstm_lm_train_step(ref, [ids for _, ids in length_buckets(
                      [corpus[j] for j in order[i:i + 5]])], 0.5)
                  for i in range(0, len(corpus), 5)]
    assert losses == ref_losses and len(losses) == 5
    assert np.array_equal(params.flat, ref.flat) and params.flat is flat


def test_lstm_lm_epoch_checks_each_bucket_once(monkeypatch):
    cfg = lm_cfg(vocab_size=6, max_len=5)
    buckets = list(length_buckets([Sequence(r) for r in
                                   random_rows(np.random.default_rng(2), 23, 5)]))
    params = init_lstm_lm_params(cfg, seed=5)
    checked = []
    check = lstmlm._check_batch
    monkeypatch.setattr(lstmlm, "_check_batch",
                        lambda cfg, ids: checked.append(ids.shape) or check(cfg, ids))
    assert len(lstm_lm_train_epoch(params, buckets, np.random.default_rng(4), 5, 0.5)) == 5
    assert checked == [ids.shape for _, ids in buckets]


def test_lstm_lm_epoch_rejects_bad_ids_before_any_step(monkeypatch):
    params = init_lstm_lm_params(lm_cfg(vocab_size=6, max_len=5), seed=5)
    before = params.flat.copy()
    steps = []
    monkeypatch.setattr(lstmlm, "lstm_lm_train_step", lambda *a, **k: steps.append(1))
    buckets = [(np.arange(2), np.array([(0, 2, 1), (0, 3, 1)])),
               (np.arange(2, 3), np.array([(0, 2, 6, 1)]))]
    with pytest.raises(ValueError, match="vocabulary range"):
        lstm_lm_train_epoch(params, buckets, np.random.default_rng(0), 2, 0.5)
    assert not steps and np.array_equal(params.flat, before)


def test_lstm_lm_training_reduces_nll():
    cfg = lm_cfg(max_len=6)
    params = init_lstm_lm_params(cfg, seed=5)
    rng = np.random.default_rng(8)
    corpus = by_length(*[(0, *rng.integers(2, 5, size=rng.integers(1, 4)).tolist(), 1)
                         for _ in range(10)])
    first, _ = lstm_lm_loss_grads(params, corpus)
    for _ in range(100):
        lstm_lm_train_step(params, corpus, lr=0.5)
    final, _ = lstm_lm_loss_grads(params, corpus)
    assert final < first


def test_lstm_lm_zero_learning_rate_keeps_params():
    params = init_lstm_lm_params(lm_cfg(max_len=5), seed=6)
    before = params.flat.copy()
    lstm_lm_train_step(params, [np.array([(0, 3, 1)])], lr=0.0)
    assert np.array_equal(before, params.flat)
