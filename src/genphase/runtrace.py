"""Iterate records, their scoring against the truth, per-run traces, the CSV
cell formatter and the trajectory CSV.

A phase builds a plain Step for each iterate and scores its whole trajectory
against the truth once, when it ends (score), so no solver step pays for the
error and correlation: a sweep reads only each run's final error."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

POWER_FIELDS = ("t", "error", "correlation")
REFINE_FIELDS = ("t", "error", "nu_hat", "zeta", "warn")


@dataclass(slots=True)
class Step:
    """One iterate of any phase.  Refinement steps set nu_hat and warn (and
    zeta, pre_projection from t=1 on); projected power and appgd steps leave
    nu_hat None.  error and correlation are set by score, when the phase
    that made the step ends, if the truth is known."""

    iterate: np.ndarray
    t: int
    error: float | None = None
    correlation: float | None = None
    nu_hat: float | None = None
    zeta: float | None = None
    warn: bool = False
    pre_projection: np.ndarray | None = None

    def record(self, t_offset: int = 0) -> dict:
        """The step's trajectory record, keyed by POWER_FIELDS or, once
        nu_hat is set, REFINE_FIELDS; t is shifted by t_offset."""
        if self.nu_hat is None:
            return {"t": self.t + t_offset, "error": self.error,
                    "correlation": self.correlation}
        return {"t": self.t + t_offset, "error": self.error, "nu_hat": self.nu_hat,
                "zeta": self.zeta, "warn": self.warn}


def score(states: list, truth=None) -> list:
    """Set each step's error ||x - truth|| and correlation <truth, x> and
    return states; with no truth or no steps, states are returned unchanged.
    One np.vecdot on the stacked differences and one on the stacked iterates
    give the bits of math.sqrt(d.dot(d)) and truth.dot(x) per step."""
    if truth is None or not states:
        return states
    x = np.array([s.iterate for s in states])
    d = x - truth
    for s, sq, corr in zip(states, np.vecdot(d, d).tolist(), np.vecdot(x, truth).tolist()):
        s.error, s.correlation = math.sqrt(sq), corr
    return states


@dataclass
class RunTrace:
    algorithm: str
    records: list = field(default_factory=list)  # Step.record() dicts
    final_error: float = math.nan
    final_iterate: object = None
    wall_time: float = 0.0


def format_cell(v) -> str:
    """One CSV cell: 17 significant digits (round-trips float64), a bool as
    0/1 and None as the "nan" sentinel."""
    if v is None:
        return "nan"
    if isinstance(v, bool):
        return "1" if v else "0"
    return format(float(v), ".17g")


def write_trajectory_csv(records, path) -> None:
    """Write a trajectory CSV with the REFINE_FIELDS columns when any record
    has nu_hat, else the POWER_FIELDS columns.  Missing values and None are
    "nan", except a missing warn flag, which is 0; any other value that is
    not finite is a NumericalError, raised before the file is opened."""
    fields = REFINE_FIELDS if any("nu_hat" in r for r in records) else POWER_FIELDS
    bad = [f"record {i} {f}={r[f]!r}" for i, r in enumerate(records) for f in fields
           if r.get(f) is not None and not math.isfinite(r[f])]
    if bad:
        raise NumericalError(f"cannot write trajectory CSV {path}: {', '.join(bad)}")
    with open(path, "w") as fh:
        fh.write(",".join(fields) + "\n")
        for r in records:
            r = {"warn": False, **r}
            fh.write(",".join(format_cell(r.get(f)) for f in fields) + "\n")
