"""genphase benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload mlp-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics (set-up time, solve
throughput and latency, peak memory) measured with tracing off; ``--trace 1``
prints per-layer metrics from a traced run and checks every span count
against the config.  Both check the outputs (finite errors, err_mprg against
``reference.json``, the subspace-sweep rate slope, no ``nu_hat <= 0`` step)
and exit 1 if a check fails.  Human-readable lines come first; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Sweep CSVs, a full result record and, for traced runs, every
span go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("mlp-sweep", "subspace-large-n", "subspace-sweep")
BLAS_THREADS = 1
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_blas(threads: int) -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def blas_threads_in_use():
    """The thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    import numpy as np
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def last_level_cache():
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            kind = (index / "type").read_text().strip()
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind != "Instruction" and (best is None or level > best["level"]):
            best = {"level": level, "size": size}
    return best


def commit_hash() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads_in_use(),
        "commit": commit_hash(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "last_level_cache": last_level_cache(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "genphase" / "__init__.py").is_file():
        print(f"run.py: no genphase sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_blas(BLAS_THREADS)
    # both explicitly: the interpreter leaves out the script's own directory
    # under PYTHONSAFEPATH or -P
    sys.path[:0] = [str(SRC), str(HERE)]
    import measure

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run = measure.Run(args.workload, args.seed, OUT, tag)
    workload = run.workload
    record = {"environment": environment(args)}
    metrics = {}
    if args.trace:
        run.timed_units(args.seconds / 2, workload.trace_units)
        tracer = run.traced_units()
        if len(run.traced) == workload.trace_units:
            metrics = run.per_layer(tracer)
            record["trace"] = run.trace_detail(tracer)
        tracer.write_spans(OUT / f"{tag}-spans.csv")
    else:
        # spread the calibration samples and set-up probes over the run, so
        # that they see the same host speed as the units
        setup = []

        def between():
            run.calibrate()
            if len(setup) < SETUP_PROBES:
                setup.append(measure.setup_sample(args.workload, args.seed))

        run.timer.after = run.calibrate
        run.calibrate()
        run.timed_units(args.seconds, workload.accuracy_units, between=between)
        while len(setup) < SETUP_PROBES:
            between()
        plain = {}
        if run.units:
            metrics, plain = run.end_to_end(setup)
        record["plain"] = {k: {"value": v, "unit": u} for k, (v, u) in plain.items()}
        record["setup_samples_s"] = setup
        record["calibration_samples_s"] = run.calibration
        record["latency_samples"] = len(run.timer.latencies)
        record["units"] = len(run.units)
        record["unit_walls_s"] = [(wall, sl.start, sl.stop) for _, _, wall, sl in run.units]
        record["latencies_s"] = run.timer.latencies
        record["accuracy"] = run.accuracy()
    run.failure_gates()
    attempted, failed = run.timer.attempted, run.timer.failed
    record["failed_frac"] = failed / attempted if attempted else 1.0
    record["warn_records_by_algorithm"] = dict(run.timer.warn_records)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["problems"] = run.problems
    (OUT / f"{tag}-result.json").write_text(json.dumps(record, indent=1) + "\n")

    print("environment", json.dumps(record["environment"]))
    for key in ("setup_samples_s", "calibration_samples_s", "latency_samples", "units",
                "unit_walls_s", "warn_records_by_algorithm", "trace"):
        if key in record:
            print(key, json.dumps(record[key]))
    if "accuracy" in record:
        print("accuracy", json.dumps(record["accuracy"]))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in plain.items():
            print(f"  {name:34s} {value:>16.6g} {unit}   (printed, not in the metric line)")
        print(f"  {'err_mprg':34s} {record['accuracy'].get('err_mprg', float('nan')):>16.6g} 1")
    print(f"  {'failed_frac':34s} {record['failed_frac']:>16.6g} 1")
    for problem in run.problems:
        print("FAILED CHECK:", problem)
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
