"""Span tracing of genphase from outside the package.

Each layer's public functions are replaced, for the length of a ``with
Tracer(...)`` block, at the module attribute their caller looks up: the
harness calls ``genphase.harness.run_algorithm``, the spectral, refine and
baselines modules each hold their own ``project`` binding imported from
``priors``, and ``priors.project_iterative`` looks up
``genphase.priors.projection_loss_grad``.  A binding left unwrapped shows up
as a count mismatch in ``workloads.expected_counts``.

Spans (id, name, start, end, parent id, solve id) are kept in memory and
written out by ``write_spans``; per-name calls, total time and self time
(span time minus the time its child spans cover) are accumulated as spans
close.  A solve id is ``(m, trial, algorithm, restart)``; spans outside a
solve carry ``algorithm=""`` and, outside a restart, ``restart=-1``.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

from genphase.harness import ROLE_ALGO, ROLE_MEAS

# (module, attribute, span name).  Several bindings share a span name.
BINDINGS = (
    ("genphase.harness", "run_algorithm", "baselines.solve"),
    ("genphase.harness", "sample_measurements", "links.sample"),
    ("genphase.harness", "build_spectral_matrix", "spectral.build"),
    ("genphase.harness", "shifted_matrix", "spectral.init"),
    ("genphase.harness", "initial_vector", "spectral.init"),
    ("genphase.harness", "_restart_start", "harness.restart_start"),
    ("genphase.harness", "project", "priors.project"),
    ("genphase.baselines", "build_spectral_matrix", "spectral.build"),
    ("genphase.baselines", "shifted_matrix", "spectral.init"),
    ("genphase.baselines", "initial_vector", "spectral.init"),
    ("genphase.baselines", "projected_power", "spectral.power"),
    ("genphase.baselines", "run_refine", "refine.run"),
    ("genphase.baselines", "appgd_step", "baselines.appgd"),
    ("genphase.baselines", "project", "priors.project"),
    ("genphase.spectral", "project", "priors.project"),
    ("genphase.refine", "project", "priors.project"),
    ("genphase.priors", "project_exact", "priors.project_exact"),
    ("genphase.priors", "project_iterative", "priors.project_iterative"),
    ("genphase.priors", "projection_loss_grad", "priors.loss_grad"),
)

NO_SOLVE = ("", -1)


def computed_costs(m: int, n: int) -> dict:
    """(flops, bytes) of one call, computed from the array shapes, not
    measured: a multiply-add counts 2 flops and bytes are the compulsory
    float64 traffic, ignoring cache reuse."""
    return {
        # A read, the a*y temporary written and read, V written
        "spectral.build": (2 * m * n * n, 8 * (3 * m * n + n * n)),
        "spectral.power.matvec": (2 * n * n, 8 * (n * n + 2 * n)),
        # g = A x and A^T r, each reading A once
        "refine_or_appgd.step": (4 * m * n, 16 * m * n),
    }


def _seed(*key) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


class Tracer:
    """Context manager that installs the wrappers on entry and restores the
    original bindings on exit."""

    def __init__(self):
        self.spans = []     # (id, name, start, end, parent id, solve id)
        self.stack = []     # open spans: [id, child time, best loss]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, s, self_s
        self.counts = defaultdict(int)   # work counted at the boundaries
        self.solve = ("", -1) + NO_SOLVE
        self._next_id = 0
        self._saved = []
        self._meas_ids = {}
        self._algo_ids = {}
        self._m_grid = ()

    # -- set-up -----------------------------------------------------------

    def begin_unit(self, cfg) -> None:
        """Map the seeds the harness derives for ``cfg`` back to solve ids."""
        self._m_grid = cfg.m_grid
        self._meas_ids, self._algo_ids = {}, {}
        for mi, m in enumerate(cfg.m_grid):
            for trial in range(cfg.trials):
                self._meas_ids[_seed(cfg.master_seed, mi, trial, ROLE_MEAS)] = (m, trial)
                for ai, algo in enumerate(cfg.algorithms):
                    for restart in range(cfg.restarts):
                        key = _seed(cfg.master_seed, mi, trial, restart, ROLE_ALGO + ai)
                        self._algo_ids[key] = (m, trial, algo, restart)

    def __enter__(self):
        hooks = {
            "baselines.solve": (self._solve_id, None),
            "links.sample": (self._sample_id, self._keep_solve_id),
            "harness.restart_start": (self._restart_id, None),
            "spectral.build": (None, self._count_build),
            "spectral.power": (None, self._count_power),
            "refine.run": (None, self._count_refine),
            "baselines.appgd": (None, self._count_appgd),
            "priors.loss_grad": (None, self._count_improvement),
        }
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)   # AttributeError: the binding moved
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, *hooks.get(name, (None, None))))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    # -- spans ------------------------------------------------------------

    def wrap(self, name, fn, solve_of=None, after=None):
        """Return ``fn`` recording one span per call.  ``solve_of(args,
        kwargs)`` gives the span's solve id; ``after(frame, args, kwargs,
        out)`` runs once the span has closed."""
        stack, spans, stats = self.stack, self.spans, self.stats
        clock = time.perf_counter

        def traced(*args, **kwargs):
            outer = self.solve
            if solve_of is not None:
                self.solve = solve_of(args, kwargs)
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0, None]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".failed"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                stat = stats[name]
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                spans.append((frame[0], name, start, end,
                              parent[0] if parent is not None else -1, self.solve))
                self.solve = outer
            if after is not None:
                after(frame, args, kwargs, out)
            return out

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` under a span of its own (for calls the benchmark makes)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- hooks ------------------------------------------------------------

    def _solve_id(self, args, kwargs):
        return self._algo_ids.get(kwargs.get("seed"), ("?", -1, args[0], -1))

    def _sample_id(self, args, kwargs):
        return self._meas_ids.get(args[3], ("?", -1)) + NO_SOLVE

    def _keep_solve_id(self, frame, args, kwargs, out):
        # spans after the draw, up to the next one, belong to its (m, trial)
        self.solve = self._meas_ids.get(args[3], ("?", -1)) + NO_SOLVE

    def _restart_id(self, args, kwargs):
        _, _, _, _, m_index, trial, restart = args
        return (self._m_grid[m_index], trial, "", restart)

    def _count_build(self, frame, args, kwargs, out):
        flops, nbytes = computed_costs(args[0].m, args[0].n)["spectral.build"]
        self.counts["spectral.build.flops"] += flops
        self.counts["spectral.build.bytes"] += nbytes

    def _count_power(self, frame, args, kwargs, out):
        t1 = args[3] if len(args) > 3 else kwargs["t1"]
        n = args[0].v.shape[0]
        self.counts["spectral.power.matvecs"] += t1
        self.counts["spectral.power.flops"] += t1 * computed_costs(0, n)["spectral.power.matvec"][0]

    def _count_refine(self, frame, args, kwargs, out):
        steps = len(out) - 1
        step_flops = computed_costs(args[0].m, args[0].n)["refine_or_appgd.step"][0]
        self.counts["refine.steps"] += steps
        self.counts["refine.warn_steps"] += sum(s.warn for s in out[1:])
        self.counts["refine.flops"] += steps * step_flops

    def _count_appgd(self, frame, args, kwargs, out):
        self.counts["baselines.appgd.flops"] += \
            computed_costs(args[0].m, args[0].n)["refine_or_appgd.step"][0]

    def _count_improvement(self, frame, args, kwargs, out):
        if not self.stack:
            return
        projection, loss = self.stack[-1], out[0]
        if projection[2] is None or loss < projection[2]:
            projection[2] = loss
            self.counts["priors.adam.improvements"] += 1

    # -- output -----------------------------------------------------------

    def calls(self, name) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def seconds(self, name) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_seconds(self, name) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def write_spans(self, path) -> None:
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,m,trial,algorithm,restart\n")
            for sid, name, start, end, parent, (m, trial, algo, restart) in self.spans:
                fh.write(f"{sid},{name},{start - origin:.9f},{end - origin:.9f},"
                         f"{parent},{m},{trial},{algo},{restart}\n")
