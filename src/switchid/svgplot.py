"""Minimal standalone SVG line charts.

The experiment driver emits one figure per swept parameter: estimation
error versus sample count on log-log axes, one polyline per parameter
value.  CSV remains the canonical output; these files are a convenience
for eyeballing trends without any plotting stack, so the writer sticks
to a small hand-rolled subset of SVG (axes, decade ticks, polylines,
legend) and deterministic text formatting.
"""

from __future__ import annotations

import math

# Line colors cycle through these; chosen to stay distinguishable on
# both white and dark backgrounds.
PALETTE = ["#1f6fb2", "#d1495b", "#3e8e5a", "#8a5fa8", "#c98a2b", "#4a4a4a"]

MARGIN_LEFT = 72
MARGIN_RIGHT = 160
MARGIN_TOP = 40
MARGIN_BOTTOM = 56
WIDTH, HEIGHT = 720, 480


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _decades(lo: float, hi: float) -> list[float]:
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0**e for e in range(first, last + 1)]


def _tick_label(value: float) -> str:
    e = round(math.log10(value))
    return f"1e{e:d}"


def line_chart(
    path: str,
    series: list[tuple[str, list[float], list[float]]],
    xlabel: str,
    ylabel: str,
    title: str,
) -> None:
    """Write a log-log line chart as a self-contained SVG file.

    ``series`` is a list of (label, xs, ys); nonpositive or non-finite
    points are dropped since they have no place on log axes.  A series
    with no surviving points is skipped but still listed in the legend
    as empty.
    """
    clean = []
    for label, xs, ys in series:
        pts = [
            (x, y)
            for x, y in zip(xs, ys)
            if x > 0 and y > 0 and math.isfinite(x) and math.isfinite(y)
        ]
        clean.append((label, pts))

    all_pts = [p for _, pts in clean for p in pts]
    if all_pts:
        xlo = min(p[0] for p in all_pts)
        xhi = max(p[0] for p in all_pts)
        ylo = min(p[1] for p in all_pts)
        yhi = max(p[1] for p in all_pts)
    else:
        xlo, xhi, ylo, yhi = 1.0, 10.0, 1.0, 10.0
    if xlo == xhi:
        xlo, xhi = xlo / 10.0, xhi * 10.0
    if ylo == yhi:
        ylo, yhi = ylo / 10.0, yhi * 10.0

    lx0, lx1 = math.log10(xlo), math.log10(xhi)
    ly0, ly1 = math.log10(ylo), math.log10(yhi)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + plot_w * (math.log10(x) - lx0) / (lx1 - lx0)

    def py(y: float) -> float:
        return MARGIN_TOP + plot_h * (ly1 - math.log10(y)) / (ly1 - ly0)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" font-size="14">{title}</text>'
    )

    # Frame.
    x0, x1 = MARGIN_LEFT, MARGIN_LEFT + plot_w
    y0, y1 = MARGIN_TOP, MARGIN_TOP + plot_h
    out.append(
        f'<rect x="{x0}" y="{y0}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>'
    )

    # Decade grid and tick labels, clipped to the data range.
    for xv in _decades(xlo, xhi):
        if xv < xlo * 0.999 or xv > xhi * 1.001:
            continue
        X = _fmt(px(xv))
        out.append(
            f'<line x1="{X}" y1="{y0}" x2="{X}" y2="{y1}" stroke="#ddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{X}" y="{y1 + 18}" text-anchor="middle">{_tick_label(xv)}</text>'
        )
    for yv in _decades(ylo, yhi):
        if yv < ylo * 0.999 or yv > yhi * 1.001:
            continue
        Y = _fmt(py(yv))
        out.append(
            f'<line x1="{x0}" y1="{Y}" x2="{x1}" y2="{Y}" stroke="#ddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x0 - 8}" y="{Y}" text-anchor="end" dominant-baseline="middle">'
            f"{_tick_label(yv)}</text>"
        )

    out.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2:.0f})">{ylabel}</text>'
    )

    # Series.
    for k, (label, pts) in enumerate(clean):
        color = PALETTE[k % len(PALETTE)]
        if pts:
            coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in sorted(pts))
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
            for x, y in pts:
                out.append(
                    f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3" fill="{color}"/>'
                )
        ly = MARGIN_TOP + 10 + 18 * k
        lx = x1 + 14
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        suffix = "" if pts else " (no data)"
        out.append(
            f'<text x="{lx + 28}" y="{ly}" dominant-baseline="middle">{label}{suffix}</text>'
        )

    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out))
        fh.write("\n")
