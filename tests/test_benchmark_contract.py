"""The benchmark's call-graph contract on two tiny sweeps.

perfbench/tracer.py wraps named module bindings of the package, and
perfbench/workloads.py derives from a config how often each must be called.
Here one small unit per prior kind runs under the tracer, as a traced
benchmark run does, and every count must match: a binding that moves or a
call count that changes fails here, not only in `perfbench/run.py --trace 1`.
"""

import sys
from pathlib import Path

import pytest

from genphase import ExperimentConfig, ProjectionConfig, emit_outputs, run_experiment

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

_SOLVERS = dict(m_grid=(40,), trials=1, restarts=3,
                algorithms=("mprg", "mprgf", "ppower", "step2", "appgd"), t1=2, t2=2,
                projection=ProjectionConfig(steps=3, latent_init="warm-start"), master_seed=3)


@pytest.mark.parametrize("prior", [dict(prior_kind="relu-mlp", k=3, n=12, hidden=(8,)),
                                   dict(prior_kind="linear-subspace", k=3, n=12)],
                         ids=["relu-mlp", "linear-subspace"])
def test_traced_counts_match_the_config(tmp_path, prior):
    cfg = ExperimentConfig(**prior, **_SOLVERS)
    tracer = Tracer()
    with tracer:
        tracer.begin_unit(cfg)
        result = tracer.call("harness.sweep", run_experiment, cfg)
        tracer.call("harness.emit", emit_outputs, result, "csv", tmp_path / "sweep.csv")
    # as the benchmark's self-check: a failed loss_grad call (a degenerate
    # latent) ends its projection early, so that count is exact only without one
    exact = tracer.counts.get("priors.loss_grad.failed", 0) == 0
    want = workloads.expected_counts(cfg)
    got = {name: tracer.counts[name] if name in tracer.counts else tracer.calls(name)
           for name in want}
    if not exact:
        del want["priors.loss_grad"], got["priors.loss_grad"]
    assert got == want
    assert got["baselines.solve"] == 15 and got["priors.project"] > 0
