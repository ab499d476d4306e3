"""Deterministic SVG line plots for sweep results (no plotting dependency).

Log-log axes, one polyline per algorithm in sorted name order, error bars as
vertical line segments.  Rendering is a pure function of the aggregate rows:
fixed viewbox, fixed color order, fixed number formatting.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigurationError, is_finite_number, is_integer, raise_problems

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 20, 50

PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


def _fmt(v: float) -> str:
    return format(v, ".2f")


def aggregate_problems(row) -> list:
    """The rule on an aggregate row (keys m, algorithm, mean, stderr), as a
    list of problems: an algorithm, an integer m >= 1 and a finite mean and
    stderr >= 0 whose sum is finite, so that every point and error-bar end
    has a log."""
    m, mean, stderr = (row.get(key) for key in ("m", "mean", "stderr"))
    ok = "algorithm" in row and is_integer(m) and m >= 1 and \
        all(is_finite_number(v) and v >= 0 for v in (mean, stderr)) and math.isfinite(mean + stderr)
    return [] if ok else ["an aggregate row needs an algorithm, an integer m >= 1 and a finite "
                          f"mean and stderr >= 0 with a finite sum, got {row!r}"]


def render_sweep_svg(aggregates, path) -> None:
    """aggregates: iterable of dicts with keys m, algorithm, mean, stderr,
    each keeping the aggregate_problems rule."""
    rows = [dict(r) for r in aggregates]
    if not rows:
        raise ConfigurationError("no aggregate rows to plot")
    raise_problems([p for r in rows for p in aggregate_problems(r)])
    algos = sorted({r["algorithm"] for r in rows})
    # (row, log m, log mean, log of the error bar's low end or None, of its high end)
    pts = []
    for r in rows:
        if r["mean"] > 0:
            lo, hi = r["mean"] - r["stderr"], r["mean"] + r["stderr"]
            pts.append((r, math.log10(r["m"]), math.log10(max(r["mean"], 1e-300)),
                        math.log10(lo) if lo > 0 else None, math.log10(hi)))
    if not pts:
        raise ConfigurationError("all aggregate means are nonpositive")
    xs = [p[1] for p in pts]
    ys = [y for p in pts for y in p[2:] if y is not None]   # the error bars too
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def px(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(y):
        return HEIGHT - MARGIN_B - (y - y0) / (y1 - y0) * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-size="14">m (log scale)</text>',
        f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {HEIGHT // 2})">mean error (log scale)</text>',
    ]
    # x tick labels at the distinct m values
    for m in sorted({p[0]["m"] for p in pts}):
        parts.append(f'<text x="{_fmt(px(math.log10(m)))}" y="{HEIGHT - MARGIN_B + 18}" '
                     f'text-anchor="middle" font-size="11">{m}</text>')
    for i, algo in enumerate(algos):
        color = PALETTE[i % len(PALETTE)]
        series = sorted((p for p in pts if p[0]["algorithm"] == algo), key=lambda p: p[1])
        coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for _, x, y, _, _ in series)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        for r, x, _, lo, hi in series:
            if r["stderr"] > 0 and lo is not None:
                parts.append(f'<line x1="{_fmt(px(x))}" y1="{_fmt(py(lo))}" '
                             f'x2="{_fmt(px(x))}" y2="{_fmt(py(hi))}" '
                             f'stroke="{color}" stroke-width="1"/>')
        ty = MARGIN_T + 16 * (i + 1)
        parts.append(f'<text x="{WIDTH - MARGIN_R - 110}" y="{ty}" font-size="12" '
                     f'fill="{color}">{algo}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
