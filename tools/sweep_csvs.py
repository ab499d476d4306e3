"""Write the benchmark workloads' sweep CSVs and a set of trajectory CSVs
from one source tree.

    python tools/sweep_csvs.py TREE OUT

For each workload in TREE/perfbench/workloads.py and each seed in SEEDS it
writes OUT/<workload>-seed<seed>-unit<UNIT>.csv: the unit's config
(workloads.unit_config), run by TREE's genphase (run_experiment) and written
as CSV (emit_outputs).  A sweep CSV holds only each run's final error, so
for each seed it also writes OUT/trajectory-<problem>-<algorithm>-seed<seed>.csv
for every algorithm and each of three small fixed problems (TRAJECTORIES),
two relu-mlp ones and a linear-subspace one: the run_algorithm trace of
its one cell (harness.solve_cell, one trial, one restart, master seed = the
seed), written by write_trajectory_csv.  Those hold every iterate's record
(error, correlation, nu_hat, zeta, warn), which a change can move while
every final error stays the same.  Run it once on each of two trees, in separate
processes, and compare the two OUT directories file by file (cmp) to see
which results a change moves; the CSVs of the same code are byte-identical,
also between runs at different OPENBLAS_NUM_THREADS.  Nothing in TREE is
written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SEEDS = (1, 7919)   # the benchmark's default and held-out seeds
UNIT = 0

# The trajectory problems: ExperimentConfig fields, with one trial, one
# restart and every algorithm.  The relu-mlp one is mlp-sweep's shape (its
# solves take their steps with the n x n stack [G; M] and APPGD's phase
# term); the linear-subspace one is solved in k+1 coordinates, with the
# same step form; the relu-mlp one at n = 800 builds its n-space V, G and M
# in two column tiles, which no workload does.
TRAJECTORIES = {
    "relu-mlp": dict(prior_kind="relu-mlp", k=5, n=100, hidden=(32,), prior_seed=2,
                     link_name="square-sin", sigma=0.5, m_grid=(400,)),
    "linear-subspace": dict(prior_kind="linear-subspace", k=5, n=100, prior_seed=2,
                            link_name="abs-noise-out", sigma=0.1, m_grid=(500,)),
    "relu-mlp-n800": dict(prior_kind="relu-mlp", k=5, n=800, hidden=(32,), prior_seed=2,
                          link_name="square-sin", sigma=0.5, m_grid=(1000,)),
}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="root of the source tree to run")
    parser.add_argument("out", type=Path, help="directory the CSVs are written to")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import genphase
    import workloads
    from genphase.harness import build_prior, solve_cell

    for module in (genphase, workloads):
        if not Path(module.__file__).resolve().is_relative_to(tree):
            sys.exit(f"{module.__name__} was imported from {module.__file__}, not from {tree}")
    args.out.mkdir(parents=True, exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            cfg = workloads.unit_config(workload, seed, UNIT)
            path = args.out / f"{name}-seed{seed}-unit{UNIT}.csv"
            genphase.emit_outputs(genphase.run_experiment(cfg), "csv", path)
            print(f"wrote {path}", flush=True)
    projection = workloads.WORKLOADS["mlp-sweep"].base.projection
    for problem, fields in TRAJECTORIES.items():
        for seed in SEEDS:
            cfg = genphase.ExperimentConfig(**fields, trials=1, restarts=1,
                                            algorithms=genphase.ALGORITHMS,
                                            projection=projection, master_seed=seed)
            traces = solve_cell(cfg, build_prior(cfg), 0, 0)
            for algorithm, (trace,) in traces.items():
                path = args.out / f"trajectory-{problem}-{algorithm}-seed{seed}.csv"
                genphase.write_trajectory_csv(trace.records, path)
                print(f"wrote {path}", flush=True)


if __name__ == "__main__":
    main()
