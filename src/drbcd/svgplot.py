"""Self-contained, byte-deterministic SVG convergence plots.

One mean line per algorithm with a shaded +/-1 standard deviation band,
axes with numeric ticks, and a legend. No plotting library is involved so a
fixed input renders to identical bytes every time.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .experiment import AggregateCurve

__all__ = ["emit_svg_plot"]

WIDTH, HEIGHT = 880, 520
MARGIN_LEFT, MARGIN_RIGHT = 80, 190
MARGIN_TOP, MARGIN_BOTTOM = 40, 60

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def emit_svg_plot(curve: AggregateCurve, path, log_y: bool = False) -> None:
    """Render the aggregate curve to ``path``.

    Raises ``ValueError`` (before creating any file) when the curve has no
    bins or no algorithms. With ``log_y`` the error axis is log-scaled;
    nonpositive band edges are clamped to the smallest positive plotted
    value.
    """
    if curve.bin_centers.size == 0 or not curve.algorithms:
        raise ValueError("cannot plot an empty aggregate curve")

    t = curve.bin_centers
    x_lo, x_hi = 0.0, float(t[-1])
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    finite_vals = []
    for label in curve.algorithms:
        m = np.asarray(curve.mean[label])
        s = np.asarray(curve.std[label])
        finite_vals.append(m[np.isfinite(m)])
        finite_vals.append((m + s)[np.isfinite(m)])
        finite_vals.append((m - s)[np.isfinite(m)])
    allv = np.concatenate(finite_vals) if finite_vals else np.array([0.0, 1.0])
    if allv.size == 0:
        raise ValueError("aggregate curve has no finite values to plot")

    if log_y:
        positive = allv[allv > 0]
        if positive.size == 0:
            raise ValueError("log scale requested but no positive values present")
        y_lo = float(positive.min())
        y_hi = float(positive.max())
        if y_hi <= y_lo:
            y_hi = y_lo * 10.0
        floor = y_lo

        def y_of(v: float) -> float:
            v = max(float(v), floor)
            frac = (math.log10(v) - math.log10(y_lo)) / (
                math.log10(y_hi) - math.log10(y_lo)
            )
            return MARGIN_TOP + (1.0 - frac) * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)

        exp_lo = math.ceil(math.log10(y_lo))
        exp_hi = math.floor(math.log10(y_hi))
        y_ticks = [10.0**e for e in range(exp_lo, exp_hi + 1)]
        if not y_ticks:
            y_ticks = [y_lo, y_hi]
    else:
        y_lo = float(min(allv.min(), 0.0))
        y_hi = float(allv.max())
        if y_hi <= y_lo:
            y_hi = y_lo + 1.0

        def y_of(v: float) -> float:
            frac = (float(v) - y_lo) / (y_hi - y_lo)
            frac = min(max(frac, 0.0), 1.0)
            return MARGIN_TOP + (1.0 - frac) * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)

        y_ticks = list(np.linspace(y_lo, y_hi, 5))

    def x_of(v: float) -> float:
        frac = (float(v) - x_lo) / (x_hi - x_lo)
        return MARGIN_LEFT + frac * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    x_ticks = list(np.linspace(x_lo, x_hi, 5))
    plot_bottom = HEIGHT - MARGIN_BOTTOM
    plot_right = WIDTH - MARGIN_RIGHT

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{(MARGIN_LEFT + plot_right) / 2:.1f}" y="24" text-anchor="middle" '
        'font-family="sans-serif" font-size="15">Reconstruction error vs elapsed time</text>',
        # axes
        f'<line x1="{MARGIN_LEFT}" y1="{plot_bottom}" x2="{plot_right}" '
        f'y2="{plot_bottom}" stroke="black" stroke-width="1"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{plot_bottom}" stroke="black" stroke-width="1"/>',
    ]
    for tx in x_ticks:
        px = x_of(tx)
        parts.append(
            f'<line x1="{px:.2f}" y1="{plot_bottom}" x2="{px:.2f}" '
            f'y2="{plot_bottom + 5}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{plot_bottom + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_fmt(tx)}</text>'
        )
    for ty in y_ticks:
        py = y_of(ty)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{py:.2f}" x2="{MARGIN_LEFT}" '
            f'y2="{py:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 9}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_fmt(ty)}</text>'
        )
    parts.append(
        f'<text x="{(MARGIN_LEFT + plot_right) / 2:.1f}" y="{HEIGHT - 18}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f"elapsed time (s)</text>"
    )
    parts.append(
        f'<text x="22" y="{(MARGIN_TOP + plot_bottom) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 22 {(MARGIN_TOP + plot_bottom) / 2:.1f})">'
        f"reconstruction error</text>"
    )

    for idx, label in enumerate(curve.algorithms):
        color = PALETTE[idx % len(PALETTE)]
        m = np.asarray(curve.mean[label])
        s = np.asarray(curve.std[label])
        ok = np.isfinite(m)
        ts, ms, ss = t[ok], m[ok], s[ok]
        if ts.size == 0:
            continue
        upper = [f"{x_of(tt):.2f},{y_of(mm + sd):.2f}" for tt, mm, sd in zip(ts, ms, ss)]
        lower = [
            f"{x_of(tt):.2f},{y_of(mm - sd):.2f}"
            for tt, mm, sd in zip(ts[::-1], ms[::-1], ss[::-1])
        ]
        parts.append(
            f'<polygon points="{" ".join(upper + lower)}" fill="{color}" '
            f'fill-opacity="0.18" stroke="none"/>'
        )
        line_pts = " ".join(f"{x_of(tt):.2f},{y_of(mm):.2f}" for tt, mm in zip(ts, ms))
        parts.append(
            f'<polyline points="{line_pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )

    legend_x = plot_right + 14
    legend_y = MARGIN_TOP + 8
    for idx, label in enumerate(curve.algorithms):
        color = PALETTE[idx % len(PALETTE)]
        y0 = legend_y + idx * 22
        parts.append(
            f'<rect x="{legend_x}" y="{y0 - 9}" width="16" height="10" '
            f'fill="{color}" fill-opacity="0.9"/>'
        )
        parts.append(
            f'<text x="{legend_x + 22}" y="{y0}" font-family="sans-serif" '
            f'font-size="13">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_bytes(("\n".join(parts) + "\n").encode("utf-8"))
