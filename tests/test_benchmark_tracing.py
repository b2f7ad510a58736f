"""The benchmark's tracer finds every trflm name it wraps.

`perfbench/workload.py` traces trflm functions and methods by name; a name
that is renamed or deleted breaks `perfbench/run.py --trace 1`. Installing the
tracing here makes such a break fail the test suite instead.
"""
import importlib
import os

from trflm import evalkit, noise, trf

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_benchmark_tracing_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    workload = importlib.import_module("workload")
    originals = (noise.draw_noise_batch, trf.log_joint, evalkit.TrfScorer.logprob)
    tracer = workload.Tracer()
    try:    # a failed install must not leave the names it did wrap behind
        workload.install_tracing(tracer)
        assert noise.draw_noise_batch is not originals[0]
    finally:
        tracer.uninstall()
    assert (noise.draw_noise_batch, trf.log_joint, evalkit.TrfScorer.logprob) == originals
