"""Command-line interface.

Subcommands: gen-model, simulate, nu, run, sweep, plot.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness
from .baselines import ALGORITHMS, run_algorithm
from .errors import ConfigurationError, NumericalError, raise_problems, seed_problems
from .links import BUILTIN_LINKS, LinkModel, population_nu, sample_measurements, \
    save_measurements
from .priors import PRIOR_KINDS, load_prior, make_prior, save_prior
from .runtrace import write_trajectory_csv
from .svg import render_sweep_svg


def nonnegative_seed(text):
    """argparse type of a seed: an int that keeps the seed rule."""
    value = int(text)
    raise_problems(seed_problems(value))   # a ValueError, which argparse reports
    return value


def _add_link_args(p):
    p.add_argument("--link", default="abs-noise-out",
                   help=f"link name ({', '.join([*BUILTIN_LINKS, 'custom'])})")
    p.add_argument("--sigma", type=float, default=0.0, help="noise std dev")
    p.add_argument("--link-params", default="{}",
                   help="JSON map primitive->coefficient for custom links")


def _link_from_args(args) -> LinkModel:
    try:
        params = json.loads(args.link_params)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"bad --link-params JSON: {exc}") from exc
    return LinkModel(name=args.link, sigma=args.sigma, params=params)


def _add_simulation_args(p):
    """A model file, the latent seed of its signal, a link and a draw of m."""
    p.add_argument("--model", required=True, help="prior model file from gen-model")
    p.add_argument("--latent-seed", type=nonnegative_seed, default=0,
                   help="seed for the signal latent")
    _add_link_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=nonnegative_seed, default=0, help="measurement sampling seed")


def _simulation_from_args(args):
    """The model file's prior and measurements at a seeded signal in its range."""
    prior = load_prior(args.model)
    z = np.random.default_rng(args.latent_seed).standard_normal(prior.k)
    x = harness.canonical_signal(prior, z)
    return prior, sample_measurements(_link_from_args(args), x, args.m, args.seed)


def _build_parser():
    ap = argparse.ArgumentParser(prog="genphase",
                                 description="Misspecified phase retrieval with "
                                             "generative priors: solvers and experiments.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-model", help="draw a generative prior and write its model file")
    p.add_argument("--kind", choices=list(PRIOR_KINDS), default="linear-subspace")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--hidden", type=int, nargs="*", default=None,
                   help="hidden layer widths for relu-mlp")
    p.add_argument("--seed", type=nonnegative_seed, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="sample a measurement set and write CSV + metadata")
    _add_simulation_args(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("nu", help="print the population moment report for a link")
    _add_link_args(p)
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=nonnegative_seed, default=0)

    p = sub.add_parser("run", help="run one algorithm on a fresh simulation, "
                                   "write its trajectory CSV")
    _add_simulation_args(p)
    p.add_argument("--algorithm", choices=list(ALGORITHMS), default="mprg")
    p.add_argument("--t1", type=int, default=20)
    p.add_argument("--t2", type=int, default=30)
    p.add_argument("--tau", type=float, default=0.9)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="run an experiment config, write sweep CSV and "
                                     "optionally an SVG plot")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", default=None)

    p = sub.add_parser("plot", help="render a sweep CSV as an SVG plot")
    p.add_argument("--in-csv", required=True)
    p.add_argument("--out-svg", required=True)
    return ap


def _cmd_gen_model(args):
    prior = make_prior(args.kind, args.k, args.n, args.r, args.hidden or (), args.seed)
    save_prior(prior, args.out)
    print(f"wrote {args.kind} prior (k={prior.k}, n={prior.n}, r={prior.r:.6g}, "
          f"L-proxy={prior.lipschitz_proxy:.6g}) to {args.out}")


def _cmd_simulate(args):
    _, data = _simulation_from_args(args)
    save_measurements(data, args.out)
    print(f"wrote {data.m} measurements (n={data.n}) to {args.out}")


def _cmd_nu(args):
    rep = population_nu(_link_from_args(args), mc_samples=args.samples, seed=args.seed)
    print(f"nu                 {rep.nu:.6g}")
    print(f"mean_y             {rep.mean_y:.6g}")
    print(f"subexp_norm_proxy  {rep.subexp_norm_proxy:.6g}")
    print(f"mc_samples         {rep.mc_samples}")
    print(f"mc_stderr          {rep.mc_stderr:.6g}")


def _cmd_run(args):
    prior, data = _simulation_from_args(args)
    trace = run_algorithm(args.algorithm, data, prior, t1=args.t1, t2=args.t2,
                          tau=args.tau, seed=args.seed)
    write_trajectory_csv(trace.records, args.out)
    print(f"{args.algorithm}: final error {trace.final_error:.6g} "
          f"({len(trace.records) - 1} iterations, {trace.wall_time:.2f}s); "
          f"trajectory written to {args.out}")


def _cmd_sweep(args):
    cfg = harness.config_from_file(args.config)
    result = harness.run_experiment(cfg)
    harness.emit_outputs(result, "csv", args.out_csv)
    print(f"wrote sweep CSV to {args.out_csv}")
    if args.out_svg:
        harness.emit_outputs(result, "svg", args.out_svg)
        print(f"wrote sweep SVG to {args.out_svg}")
    for algo, fit in result.slopes.items():
        if fit is not None:
            print(f"{algo}: log-log slope {fit.slope:.3f} +/- {fit.ci95:.3f}")


def _cmd_plot(args):
    _, aggregates = harness.read_sweep_csv(args.in_csv)
    render_sweep_svg(aggregates, args.out_svg)
    print(f"wrote {args.out_svg}")


_COMMANDS = {
    "gen-model": _cmd_gen_model,
    "simulate": _cmd_simulate,
    "nu": _cmd_nu,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
