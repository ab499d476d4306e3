"""Write the benchmark workloads' sweep CSVs from one source tree.

    python tools/sweep_csvs.py TREE OUT

For each workload in TREE/perfbench/workloads.py and each seed in SEEDS it
writes OUT/<workload>-seed<seed>-unit<UNIT>.csv: the unit's config
(workloads.unit_config), run by TREE's genphase (run_experiment) and written
as CSV (emit_outputs).  Run it once on each of two trees, in separate
processes, and compare the two OUT directories file by file (cmp) to see
which sweep results a change moves; with OPENBLAS_NUM_THREADS=1 the CSVs of
the same code are byte-identical.  Nothing in TREE is written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SEEDS = (1, 7919)   # the benchmark's default and held-out seeds
UNIT = 0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="root of the source tree to run")
    parser.add_argument("out", type=Path, help="directory the CSVs are written to")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import genphase
    import workloads

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


if __name__ == "__main__":
    main()
