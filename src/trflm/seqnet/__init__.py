"""Differentiable sequence networks with hand-written backward passes.

`potential` defines the scalar sequence score used by the random field model;
`lstmlm` is a small autoregressive LSTM language model usable as a reference
distribution and as a rescoring member. Everything is float64 numpy.
"""
from .layers import Params
from .potential import (PotentialConfig, NeuralPotential,
                        init_potential_params, potential_phi_batch,
                        potential_backward_batch)
from .lstmlm import (LstmLmConfig, init_lstm_lm_params,
                     lstm_lm_logprob_batch, lstm_lm_loss_grads, lstm_lm_train_step,
                     lstm_lm_train_epoch)

__all__ = [
    "Params", "PotentialConfig", "NeuralPotential",
    "init_potential_params", "potential_phi_batch", "potential_backward_batch",
    "LstmLmConfig", "init_lstm_lm_params",
    "lstm_lm_logprob_batch", "lstm_lm_loss_grads", "lstm_lm_train_step",
    "lstm_lm_train_epoch",
]
