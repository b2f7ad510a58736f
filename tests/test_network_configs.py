"""Every network config that is accepted can train. A drawn config either
raises one ValueError that names one of its keys, or scores, differentiates
and matches central differences at every length it can score."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trflm.corpus import Sequence
from trflm.gradcheck import (KINK_MARGIN, _min_conv_preactivation, numeric_grad_tensors,
                             relative_errors)
from trflm.seqnet import (LstmLmConfig, PotentialConfig, init_lstm_lm_params,
                          init_potential_params, lstm_lm_logprob_batch, lstm_lm_loss_grads,
                          potential_backward_batch, potential_phi_batch)

SIZES = st.integers(1, 4)
CONV = st.integers(0, 3)


def accepted(config_class, **keys):
    """The config, or None where it raises a ValueError naming one of its keys."""
    try:
        return config_class(**keys)
    except ValueError as exc:
        named = [f.name for f in dataclasses.fields(config_class) if f.name in str(exc)]
        assert named, f"{exc} names no key of {config_class.__name__}"
        return None


def rows(rng, n, length, vocab_size):
    """n random [begin, payload..., end] rows of one length, begin 0 and end 1."""
    out = np.ones((n, length), dtype=np.int64)
    out[:, 0] = 0
    out[:, 1:-1] = rng.integers(2, vocab_size, size=(n, length - 2))
    return out


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(vocab_size=st.integers(4, 7), emb_dim=SIZES, hidden_dim=SIZES,
       bank_width=CONV, bank_channels=CONV, stack_layers=CONV)
# stacked layers with no bank and no inner channels: 32 of the 1,024 configs
# at vocabulary 5, too few for the drawn examples to be sure to meet one
@example(vocab_size=5, emb_dim=2, hidden_dim=2, bank_width=0, bank_channels=0, stack_layers=2)
def test_every_accepted_potential_config_trains(**keys):
    cfg = accepted(PotentialConfig, **keys)
    if cfg is None:
        return
    rng = np.random.default_rng(0)
    params = init_potential_params(cfg, 0)
    for length in range(1, 7):   # the potential scores any in-range ids
        ids = rng.integers(0, cfg.vocab_size, size=(3, length))
        phi, cache = potential_phi_batch(params, ids)
        grad = potential_backward_batch(params, cache, np.array([1.7, -0.6, 0.9]))
        assert np.isfinite(phi).all() and phi.shape == (3,)
        assert np.isfinite(grad).all() and grad.shape == params.flat.shape

    ids = rows(rng, 2, 4, cfg.vocab_size)
    seqs = [Sequence(tuple(r)) for r in ids.tolist()]
    params = next(p for p in (init_potential_params(cfg, s) for s in range(200))
                  if _min_conv_preactivation(p, seqs) > KINK_MARGIN)
    scales = np.array([1.7, -0.6])
    _, cache = potential_phi_batch(params, ids)
    analytic = params.views(potential_backward_batch(params, cache, scales))
    numeric = numeric_grad_tensors(
        lambda: float(scales @ potential_phi_batch(params, ids)[0]), params.tensors)
    errs = relative_errors(analytic, numeric)
    assert max(errs.values()) < 1e-5, errs


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(vocab_size=st.integers(4, 7), emb_dim=SIZES, hidden_dim=SIZES,
       num_layers=st.integers(1, 3), max_len=st.integers(2, 6))
def test_every_accepted_lstm_lm_config_trains(**keys):
    cfg = accepted(LstmLmConfig, **keys)
    if cfg is None:
        return
    rng = np.random.default_rng(0)
    params = init_lstm_lm_params(cfg, 0)
    batch = [rows(rng, 2, length, cfg.vocab_size) for length in range(2, cfg.max_len + 1)]
    for ids in batch:
        lp = lstm_lm_logprob_batch(params, ids)
        assert np.isfinite(lp).all() and (lp <= 0).all()
    nll, grad = lstm_lm_loss_grads(params, batch)
    assert np.isfinite(nll) and np.isfinite(grad).all() and grad.shape == params.flat.shape

    n = sum(len(ids) for ids in batch)
    numeric = numeric_grad_tensors(
        lambda: -sum(float(lstm_lm_logprob_batch(params, ids).sum()) for ids in batch) / n,
        params.tensors)
    errs = relative_errors(params.views(grad), numeric)
    assert max(errs.values()) < 1e-5, errs


@pytest.mark.parametrize("keys, named", [
    (dict(stack_layers=2), "bank_channels"),
    (dict(stack_layers=3), "bank_channels"),
    (dict(bank_width=2, stack_layers=1), "bank_channels"),
    (dict(bank_width=2, bank_channels=3), "stack_layers"),
])
def test_potential_config_names_the_key_a_layer_reads(keys, named):
    with pytest.raises(ValueError, match=f"^{named} must be >= 1 "):
        PotentialConfig(vocab_size=5, emb_dim=2, hidden_dim=2, **keys)
