"""Timed runs, the traced run, and the output-correctness gates.

An untraced run times each ``run_algorithm`` call the harness makes (the only
timer inside a sweep) and each whole unit (``run_experiment`` plus writing
the sweep CSV), and times the workload's calibration kernel between solves,
outside both clocks, for a fixed share of the run.  A traced run repeats the untraced loop for half the time,
then runs ``trace_units`` units under ``tracer.Tracer`` and checks every span
count against the config.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import genphase.harness as harness
from genphase import (LinkModel, NumericalError, emit_outputs, population_nu,
                      read_sweep_csv, run_experiment)

import calibrate
import workloads
from tracer import Tracer, computed_costs

HERE = Path(__file__).resolve().parent
# the share of a run spent timing the calibration kernel: every ~0.3 s for
# the 25 ms python kernel, every ~1.2 s for the memory kernel
CALIBRATION_SHARE = 0.08


def setup_sample(name: str, seed: int) -> tuple:
    """Seconds from starting a fresh interpreter to the end of set-up, and
    the mean ``python`` calibration kernel time in that interpreter."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), name, str(seed)],
                          capture_output=True, text=True, timeout=120)
    out = proc.stdout.split()
    if proc.returncode != 0 or len(out) < 2:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return float(out[0]) - start, statistics.fmean(float(t) for t in out[1:])


class SolveTimer:
    """Stands in for ``genphase.harness.run_algorithm``: times each call and,
    after the clock stops, checks its output and calls ``after()``."""

    def __init__(self, fn):
        self.fn = fn
        self.after = None
        self.latencies = []   # (algorithm, m, seconds) per completed solve
        self.attempted = 0
        self.failed = 0
        self.warn_records = Counter()   # algorithm -> records with nu_hat <= 0

    def __call__(self, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            trace = self.fn(*args, **kwargs)
        except NumericalError:
            self.failed += 1
            raise
        self.latencies.append((args[0], args[1].m, time.perf_counter() - start))
        if not math.isfinite(trace.final_error):
            self.failed += 1
        self.warn_records[args[0]] += sum(1 for r in trace.records if r.get("warn"))
        if self.after is not None:
            self.after()
        return trace


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, name: str, seed: int, out_dir: Path, tag: str):
        self.workload = workloads.WORKLOADS[name]
        self.seed = seed
        self.csv = out_dir / f"{tag}-sweep.csv"
        self.timer = SolveTimer(harness.run_algorithm)
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.problems = []     # failed gates, as messages
        self.calibration = []  # seconds per run of the workload's calibration kernel
        self.excluded = 0.0    # seconds spent in the kernel, kept out of unit walls
        self._calibration_start = None
        calibrate.KERNELS[self.workload.calibration]()   # lazy set-up, untimed
        self.units = []        # (unit index, result, wall seconds, solve slice)
        self.traced = []       # (config, wall seconds, solve slice) of traced units

    def run_unit(self, unit: int, tracer: Tracer | None = None):
        cfg = workloads.unit_config(self.workload, self.seed, unit)
        first = len(self.timer.latencies)
        excluded = self.excluded
        start = time.perf_counter()
        if tracer is None:
            result = run_experiment(cfg)
            emit_outputs(result, "csv", self.csv)
        else:
            tracer.begin_unit(cfg)
            result = tracer.call("harness.sweep", run_experiment, cfg)
            tracer.call("harness.emit", emit_outputs, result, "csv", self.csv)
        wall = time.perf_counter() - start - (self.excluded - excluded)
        if tracer is not None:
            tracer.counts["harness.emit.bytes"] += self.csv.stat().st_size
        self.check_unit(unit, result)
        return cfg, result, wall, slice(first, len(self.timer.latencies))

    def check_unit(self, unit: int, result) -> None:
        bad = [r for r in result.rows if not math.isfinite(r["final_error"])]
        if bad:
            self.problems.append(f"unit {unit}: {len(bad)} non-finite final errors")
        rows, aggregates = read_sweep_csv(self.csv)
        if rows != result.rows or aggregates != result.aggregates:
            self.problems.append(f"unit {unit}: sweep CSV does not read back as written")

    def calibrate(self) -> None:
        """Time the calibration kernel once, unless the kernel has already
        taken ``CALIBRATION_SHARE`` of the time since the first call."""
        start = time.perf_counter()
        if self._calibration_start is None:
            self._calibration_start = start
        elif self.excluded > CALIBRATION_SHARE * (start - self._calibration_start):
            return
        self.calibration.append(calibrate.KERNELS[self.workload.calibration]())
        self.excluded += time.perf_counter() - start

    def timed_units(self, seconds: float, min_units: int, between=None) -> None:
        """Untraced units until ``seconds`` have passed and at least
        ``min_units`` have run; ``between()`` runs after each unit, outside
        its wall time."""
        start = time.perf_counter()
        unit = 0
        harness.run_algorithm = self.timer
        try:
            while unit < min_units or time.perf_counter() - start < seconds:
                cfg, result, wall, solves = self.run_unit(unit)
                self.units.append((unit, result, wall, solves))
                unit += 1
                if between is not None:
                    between()
        except NumericalError as exc:
            self.problems.append(f"unit {unit}: {type(exc).__name__}: {exc}")
        finally:
            harness.run_algorithm = self.timer.fn

    # -- end-to-end metrics ----------------------------------------------

    def end_to_end(self, setup: list) -> tuple:
        """The metric line, and the raw measurements printed beside it.

        Times in the metric line are at the reference host speed: each is
        multiplied by ``reference / mean kernel time`` for the calibration
        kernel timed in the same process (``calibrate``): the workload's kind
        for the sweep, ``python`` for set-up.  Means, not medians, on both
        sides: host slowdowns come in bursts shorter than a solve, and a
        median of short kernel samples jumps between the fast and the slow
        level where a mean, like a solve, averages over the bursts.
        """
        ref = self.reference["calibration_s"]
        kernel = statistics.fmean(self.calibration)
        scale = ref[self.workload.calibration] / kernel
        lat_ms = sorted(1e3 * t for _, _, t in self.timer.latencies)
        rate = (sum(sl.stop - sl.start for _, _, _, sl in self.units)
                / sum(wall for _, _, wall, _ in self.units))
        metrics = {
            "setup_s": (statistics.median(s * ref["python"] / k for s, k in setup), "s"),
            "solves_per_s": (rate / scale, "1/s"),
            "solve_mean_ms": (statistics.fmean(lat_ms) * scale, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        plain = {
            "setup_s_raw": (statistics.median(s for s, _ in setup), "s"),
            "solves_per_s_raw": (rate, "1/s"),
            "solve_mean_ms_raw": (statistics.fmean(lat_ms), "ms"),
            "solve_p50_ms_raw": (statistics.median(lat_ms), "ms"),
            "solve_p90_ms_raw": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
            f"calibration_{self.workload.calibration}_s": (kernel, "s"),
        }
        return metrics, plain

    # -- accuracy ---------------------------------------------------------

    def accuracy(self) -> dict:
        """Mean best-restart error per algorithm over the accuracy units, the
        mprg slope of the first unit, and the reference gate on err_mprg."""
        acc = [r for u, r, _, _ in self.units if u < self.workload.accuracy_units]
        if len(acc) < self.workload.accuracy_units:
            self.problems.append("accuracy units did not all complete")
            return {}
        means = {a: statistics.fmean(row["final_error"] for r in acc for row in r.rows
                                     if row["algorithm"] == a)
                 for a in self.workload.base.algorithms}
        out = {"err_by_algorithm": means, "err_mprg": means["mprg"],
               "ordering": " < ".join(sorted(means, key=means.get))}
        out.update(self._reference_gate(means["mprg"]))
        slope = acc[0].slopes.get("mprg")
        if slope is not None:
            lo, hi = self.reference["slope_range"]
            out["mprg_slope"] = {"slope": slope.slope, "ci95": slope.ci95}
            if not (lo <= slope.slope <= hi and slope.slope + slope.ci95 < 0):
                self.problems.append(f"mprg slope {slope.slope:.3f} +- {slope.ci95:.3f} "
                                     f"outside [{lo}, {hi}] or not below 0")
        return out

    def _reference_gate(self, err: float) -> dict:
        ref = self.reference["err_mprg"]
        entry = ref["workloads"][self.workload.name]
        if str(self.seed) in entry["seeds"]:
            target = entry["seeds"][str(self.seed)]
            lo, hi = target * (1 - ref["seed_tolerance"]), target * (1 + ref["seed_tolerance"])
            kind = "this seed"
        else:
            target = entry["population_median"]
            lo, hi = target / ref["population_factor"], target * ref["population_factor"]
            kind = "median over seeds"
        if not lo <= err <= hi:
            self.problems.append(f"err_mprg {err:.6g} outside [{lo:.6g}, {hi:.6g}] "
                                 f"around the reference for {kind}")
        return {"err_mprg_reference": {"value": target, "of": kind, "range": [lo, hi]}}

    def failure_gates(self) -> None:
        if self.timer.failed:
            self.problems.append(f"{self.timer.failed} of {self.timer.attempted} solves failed")
        # nu_hat <= 0 is expected at iterates nearly orthogonal to the signal
        # (step2's first steps, poor restarts), so its count is reported; what
        # must hold is that the link itself is in the solvable class.
        base = self.workload.base
        nu = population_nu(LinkModel(name=base.link_name, sigma=base.sigma,
                                     params=base.link_params))
        if not nu.nu - 3 * nu.mc_stderr > 0:
            self.problems.append(f"link {base.link_name}: population nu {nu.nu:.4g} "
                                 f"+- {nu.mc_stderr:.2g} is not positive")

    # -- traced run -------------------------------------------------------

    def traced_units(self) -> Tracer:
        tracer = Tracer()
        harness.run_algorithm = self.timer
        try:
            with tracer:
                for unit in range(self.workload.trace_units):
                    cfg, result, wall, solves = self.run_unit(unit, tracer)
                    self.traced.append((cfg, wall, solves))
        except NumericalError as exc:
            self.problems.append(f"traced unit {len(self.traced)}: {type(exc).__name__}: {exc}")
        finally:
            harness.run_algorithm = self.timer.fn
        self.self_check(tracer)
        return tracer

    def self_check(self, tracer: Tracer) -> None:
        expected = {}
        for cfg, _, _ in self.traced:
            for name, count in workloads.expected_counts(cfg).items():
                expected[name] = expected.get(name, 0) + count
        exact = tracer.counts.get("priors.loss_grad.failed", 0) == 0
        for name, want in expected.items():
            got = tracer.counts[name] if name in tracer.counts else tracer.calls(name)
            if got != want and (exact or name != "priors.loss_grad"):
                self.problems.append(f"self-check: {name} = {got}, config implies {want}")

    def per_layer(self, tracer: Tracer) -> dict:
        c, calls, s, self_s = tracer.counts, tracer.calls, tracer.seconds, tracer.self_seconds
        # traced unit u against untraced unit u: same inputs, same work
        untraced_wall = sum(wall for u, _, wall, _ in self.units if u < len(self.traced))
        traced_wall = sum(wall for _, wall, _ in self.traced)
        loss_grad = calls("priors.loss_grad")
        steps = c["refine.steps"]
        return {
            "priors.project.calls": (calls("priors.project"), "count"),
            "priors.project.s": (s("priors.project"), "s"),
            "priors.project_iterative.calls": (calls("priors.project_iterative"), "count"),
            "priors.project_exact.calls": (calls("priors.project_exact"), "count"),
            "priors.loss_grad.calls": (loss_grad, "count"),
            "priors.loss_grad.failed": (c["priors.loss_grad.failed"], "count"),
            "priors.adam.improve_frac": (c["priors.adam.improvements"] / loss_grad
                                         if loss_grad else 0.0, "1"),
            "spectral.build.calls": (calls("spectral.build"), "count"),
            "spectral.build.s": (s("spectral.build"), "s"),
            "spectral.build.flops_computed": (c["spectral.build.flops"], "flop"),
            "spectral.build.bytes_computed": (c["spectral.build.bytes"], "B"),
            "spectral.init.s": (s("spectral.init"), "s"),
            "spectral.power.calls": (calls("spectral.power"), "count"),
            "spectral.power.self_s": (self_s("spectral.power"), "s"),
            "spectral.power.matvecs": (c["spectral.power.matvecs"], "count"),
            "spectral.power.flops_computed": (c["spectral.power.flops"], "flop"),
            "refine.run.calls": (calls("refine.run"), "count"),
            "refine.run.self_s": (self_s("refine.run"), "s"),
            "refine.steps": (steps, "count"),
            "refine.flops_computed": (c["refine.flops"], "flop"),
            "refine.warn_frac": (c["refine.warn_steps"] / steps if steps else 0.0, "1"),
            "baselines.solve.calls": (calls("baselines.solve"), "count"),
            "baselines.solve.self_s": (self_s("baselines.solve"), "s"),
            "baselines.appgd.steps": (calls("baselines.appgd"), "count"),
            "baselines.appgd.self_s": (self_s("baselines.appgd"), "s"),
            "baselines.appgd.flops_computed": (c["baselines.appgd.flops"], "flop"),
            "links.sample.calls": (calls("links.sample"), "count"),
            "links.sample.s": (s("links.sample"), "s"),
            "harness.self_s": (self_s("harness.sweep"), "s"),
            "harness.restart_start.calls": (calls("harness.restart_start"), "count"),
            "harness.restart_start.s": (s("harness.restart_start"), "s"),
            "harness.emit.s": (s("harness.emit"), "s"),
            "harness.emit.bytes": (c["harness.emit.bytes"], "B"),
            "trace.overhead_frac": (1.0 - untraced_wall / traced_wall, "1"),
        }

    def trace_detail(self, tracer: Tracer) -> dict:
        """Layer times that are zero by construction on some workloads (so
        they stay out of the metric line), the computed operation intensities,
        and the cross-check against the ROADMAP re-anchor figures."""
        calls, s = tracer.calls, tracer.seconds
        base = self.workload.base
        m, n = base.m_grid[-1], base.n
        loss_grad = calls("priors.loss_grad")
        us_per_call = 1e6 * s("priors.loss_grad") / loss_grad if loss_grad else None
        checks = []
        if (n, base.m_grid) == (2000, (16000,)):
            checks.append(("spectral.build.s per call",
                           s("spectral.build") / calls("spectral.build"), 1.5, "s"))
            checks.append(("V bytes (computed)", 8 * n * n, 32e6, "B"))
        if loss_grad:
            checks.append(("priors.loss_grad.us_per_call", us_per_call, (16.0, 25.0), "us"))
        crosscheck = []
        for what, value, ref, unit in checks:
            lo, hi = ref if isinstance(ref, tuple) else (ref, ref)
            gap = value / hi if value > hi else lo / value if value < lo else 1.0
            crosscheck.append({"what": what, "measured": value, "roadmap": ref,
                               "unit": unit, "gap_factor": gap, "over_2x": gap > 2})
        return {
            "priors.loss_grad.s": s("priors.loss_grad"),
            "priors.loss_grad.us_per_call": us_per_call,
            "priors.project_iterative.self_s": tracer.self_seconds("priors.project_iterative"),
            "priors.project_exact.s": s("priors.project_exact"),
            "computed_per_call": {
                "m": m, "n": n, "ay_temporary_bytes": 8 * m * n, "V_bytes": 8 * n * n,
                **{name: {"flops": f, "bytes": b, "flops_per_byte": f / b}
                   for name, (f, b) in computed_costs(m, n).items()}},
            "crosscheck": crosscheck,
        }
