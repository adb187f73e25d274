"""Tiny self-contained SVG line plots.

The experiment reports need exactly one kind of figure: a few series on a
shared pair of axes, optionally log-scaled in y, with dashed vertical marker
lines (the interpolation threshold) and a legend.  Rendering that directly
as an SVG string keeps the package free of plotting dependencies and the
output diffable.
"""

from __future__ import annotations

import html
import math
import sys

import numpy as np

from .errors import EmptySeriesError

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]
FONT = "Helvetica, Arial, sans-serif"


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text content; quotes stay as they are."""
    return html.escape(text, quote=False)


def _nice_step(raw: float) -> float:
    """The smallest 1/2/5 x 10^k step not below raw."""
    exp = math.floor(math.log10(raw))
    frac = raw / 10.0**exp
    for nice in (1.0, 2.0, 5.0):
        if frac <= nice + 1e-12:
            return nice * 10.0**exp
    return 10.0 ** (exp + 1)


def _linear_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if not hi > lo:
        return [lo]
    step = _nice_step((hi - lo) / target)
    t = math.ceil(lo / step - 1e-9) * step
    ticks = []
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-6 else t)
        t += step
    return ticks


def _log_ticks(t_lo: float, t_hi: float) -> list[float]:
    """Ticks for a log axis from 10**t_lo to 10**t_hi: the decades that are
    normal floats, strided down when there are too many.  With no decade in
    range, the two ends, or where an end is no float, the middle, which lies
    between the data's own extremes."""
    f = sys.float_info
    k0 = max(math.ceil(t_lo - 1e-9), f.min_10_exp)
    k1 = min(math.floor(t_hi + 1e-9), f.max_10_exp)
    ks = list(range(k0, k1 + 1))
    if not ks:
        if f.min_10_exp <= t_lo and t_hi <= f.max_10_exp:
            return [10.0**t_lo, 10.0**t_hi]
        return [10.0 ** ((t_lo + t_hi) / 2)]
    if len(ks) > 12:
        ks = ks[:: math.ceil(len(ks) / 12)]
    return [10.0**k for k in ks]


def _fmt(v: float) -> str:
    return f"{v:g}"


def render_line_svg(
    series,
    labels=None,
    markers=None,
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_y: bool = False,
    width: int = 760,
    height: int = 460,
    styles=None,
    y_range=None,
) -> str:
    """Render (xs, ys) series to an SVG document string.

    ``series`` is a list of (xs, ys) pairs; ``labels`` (legend text),
    ``styles`` ("line" or "points") and the palette are matched to it by
    position.  ``markers`` is a list of (x, text) dashed vertical lines.
    ``y_range`` overrides the data-driven y limits.

    Raises EmptySeriesError when there is nothing plottable: no series,
    empty or ragged series, non-finite values, or a log axis with
    nonpositive values.
    """
    if not series:
        raise EmptySeriesError("no series to plot")
    cleaned = []
    for i, (xs, ys) in enumerate(series):
        xa = np.asarray(xs, dtype=np.float64)
        ya = np.asarray(ys, dtype=np.float64)
        if xa.ndim != 1 or ya.ndim != 1 or xa.shape != ya.shape:
            raise EmptySeriesError(f"series {i} is ragged: {xa.shape} vs {ya.shape}")
        if xa.size == 0:
            raise EmptySeriesError(f"series {i} is empty")
        if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
            raise EmptySeriesError(f"series {i} contains non-finite values")
        if log_y and not (ya > 0).all():
            raise EmptySeriesError(f"series {i} has y <= 0, cannot log-scale")
        cleaned.append((xa, ya))

    x_lo = min(float(xa.min()) for xa, _ in cleaned)
    x_hi = max(float(xa.max()) for xa, _ in cleaned)
    if markers:
        x_lo = min([x_lo] + [float(m[0]) for m in markers])
        x_hi = max([x_hi] + [float(m[0]) for m in markers])
    if y_range is not None:
        y_lo, y_hi = float(y_range[0]), float(y_range[1])
        if log_y and y_lo <= 0:
            raise EmptySeriesError("log scale y_range must be positive")
    else:
        y_lo = min(float(ya.min()) for _, ya in cleaned)
        y_hi = max(float(ya.max()) for _, ya in cleaned)

    def ty(v: float) -> float:
        return math.log10(v) if log_y else v

    if x_hi <= x_lo:
        pad = max(1.0, abs(x_lo)) * 0.05
        x_lo, x_hi = x_lo - pad, x_hi + pad
    t_lo, t_hi = ty(y_lo), ty(y_hi)
    if t_hi <= t_lo:
        pad = max(1.0, abs(t_lo)) * 0.05
        t_lo, t_hi = t_lo - pad, t_hi + pad
    else:
        pad = (t_hi - t_lo) * 0.05
        t_lo, t_hi = t_lo - pad, t_hi + pad
    x_pad = (x_hi - x_lo) * 0.02
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad

    ml, mr = 64, 18
    mt = 40 if title else 20
    mb = 52 if x_label else 34
    pw, ph = width - ml - mr, height - mt - mb

    def fx(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def fy(y: float) -> float:
        return mt + ph - (ty(y) - t_lo) / (t_hi - t_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="{FONT}" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<defs><clipPath id="plot-area"><rect x="{ml}" y="{mt}" width="{pw}" '
        f'height="{ph}"/></clipPath></defs>',
    ]

    if log_y:
        y_ticks = _log_ticks(t_lo, t_hi)
    else:
        y_ticks = _linear_ticks(t_lo, t_hi)
    x_ticks = _linear_ticks(x_lo, x_hi, target=7)

    for t in x_ticks:
        px = fx(t)
        out.append(
            f'<line x1="{px:.2f}" y1="{mt}" x2="{px:.2f}" y2="{mt + ph}" stroke="#e4e4e4"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{mt + ph + 16}" text-anchor="middle" '
            f'fill="#333">{_escape(_fmt(t))}</text>'
        )
    for t in y_ticks:
        py = fy(t)
        out.append(
            f'<line x1="{ml}" y1="{py:.2f}" x2="{ml + pw}" y2="{py:.2f}" stroke="#e4e4e4"/>'
        )
        out.append(
            f'<text x="{ml - 6}" y="{py + 4:.2f}" text-anchor="end" '
            f'fill="#333">{_escape(_fmt(t))}</text>'
        )

    out.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>'
    )

    for mx, mtext in markers or []:
        px = fx(float(mx))
        out.append(
            f'<line x1="{px:.2f}" y1="{mt}" x2="{px:.2f}" y2="{mt + ph}" '
            f'stroke="#888" stroke-dasharray="4,3"/>'
        )
        if mtext:
            out.append(
                f'<text x="{px + 4:.2f}" y="{mt + 14}" fill="#666">{_escape(str(mtext))}</text>'
            )

    styles = styles or []
    out.append('<g clip-path="url(#plot-area)">')
    for i, (xa, ya) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        style = styles[i] if i < len(styles) else "line"
        if style == "points":
            for x, y in zip(xa, ya):
                out.append(
                    f'<circle cx="{fx(x):.2f}" cy="{fy(y):.2f}" r="2.6" fill="{color}"/>'
                )
        else:
            pts = " ".join(f"{fx(x):.2f},{fy(y):.2f}" for x, y in zip(xa, ya))
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
            )
    out.append("</g>")

    if labels:
        lx, ly = ml + pw - 170, mt + 10
        row = 0
        for i, text in enumerate(labels):
            if not text:
                continue
            color = PALETTE[i % len(PALETTE)]
            y0 = ly + row * 17
            out.append(
                f'<line x1="{lx}" y1="{y0 + 4}" x2="{lx + 18}" y2="{y0 + 4}" '
                f'stroke="{color}" stroke-width="2.4"/>'
            )
            out.append(f'<text x="{lx + 24}" y="{y0 + 8}" fill="#333">{_escape(str(text))}</text>')
            row += 1

    if title:
        out.append(
            f'<text x="{width / 2:.0f}" y="22" text-anchor="middle" font-size="15" '
            f'fill="#111">{_escape(title)}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{ml + pw / 2:.0f}" y="{height - 10}" text-anchor="middle" '
            f'fill="#333">{_escape(x_label)}</text>'
        )
    if y_label:
        out.append(
            f'<text x="16" y="{mt + ph / 2:.0f}" text-anchor="middle" fill="#333" '
            f'transform="rotate(-90 16 {mt + ph / 2:.0f})">{_escape(y_label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out)
