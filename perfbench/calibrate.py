"""Reference kernels that measure how fast the host runs at the moment.

The benchmark shares a host whose speed drifts over minutes, by up to about
2x for interpreter-bound code and 1.3x for memory-bound BLAS.  CPU time
follows wall time, so the process is slowed rather than descheduled, and no
statistic taken inside one run removes a drift that outlasts the run.  Each
kernel here is fixed code that uses numpy but not genphase, so no change to
the package moves it.  A run times its workload's kernel throughout, for a
fixed share of its time; a time measured in the run, multiplied by
``reference / mean kernel time``, is the time at the reference speed stored
in ``reference.json``.

The kernel must match where the workload spends its time.  In windows of
half a minute on a 2-vCPU guest, the ratio of a 16000 x 2000 matvec pair to
``memory`` moved 2% where the raw time moved 8-12%; a kernel of another kind
cancelled much less of the drift, or added noise.

    python3 perfbench/calibrate.py   # print a few timings of each kernel
"""

from __future__ import annotations

import time

import numpy as np


def _python() -> float:
    """A pure-Python loop: interpreter bound, like the harness and the
    per-step bookkeeping of a small sweep, or importing modules."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - start


def _numpy() -> float:
    """Small-vector numpy calls in a Python loop: dispatch bound, like the
    loss/gradient calls of an iterative latent projection."""
    rng = np.random.default_rng(0)
    w1, w2, y = rng.standard_normal((32, 5)), rng.standard_normal((100, 32)), rng.standard_normal(100)
    z = np.full(5, 0.1)
    start = time.perf_counter()
    for _ in range(1500):
        a = w1 @ z
        d = w2 @ np.maximum(a, 0.0) - y
        z = z - 1e-4 * (w1.T @ ((w2.T @ d) * (a > 0)))
    return time.perf_counter() - start


def _memory() -> float:
    """Matrix-vector products streaming a 128 MB matrix: memory-bandwidth
    bound, like the O(mn) steps on a 16000 x 2000 measurement matrix.  The
    matrix is freed on return; the time covers the products only."""
    a = np.full((8000, 2000), 0.5)
    v = np.full(2000, 0.25)
    start = time.perf_counter()
    for _ in range(5):
        a @ v
    return time.perf_counter() - start


KERNELS = {"python": _python, "numpy": _numpy, "memory": _memory}


def samples(kind: str, reps: int) -> list:
    """``reps`` timings, in seconds, of the ``kind`` kernel, after one
    untimed call so that lazy set-up is not timed."""
    kernel = KERNELS[kind]
    kernel()
    return [kernel() for _ in range(reps)]


if __name__ == "__main__":
    for name in KERNELS:
        print(name, samples(name, 5))
