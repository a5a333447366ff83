"""Minimal SVG rendering of fitted curves and co-distribution points.

Plot data travels as CSV (curve_samples.csv / codist.csv); this module turns
it back into a picture with nothing beyond the standard library, so the core
package stays free of plotting dependencies.
"""

from __future__ import annotations

from .mapping import CoDistribution, psd_points

WIDTH, HEIGHT = 640, 420
MARGIN = 50
PALETTE = (
    "#1b6ca8",
    "#d1495b",
    "#3a7d44",
    "#8d5a97",
    "#c77d2f",
    "#32936f",
    "#705746",
    "#48639c",
)


def _scale(x: float, lo: float, hi: float, out_lo: float, out_hi: float) -> float:
    span = hi - lo or 1.0
    return out_lo + (x - lo) / span * (out_hi - out_lo)


def render_svg(
    curves: dict[tuple[str, str], list[tuple[float, float]]],
    codists: dict[str, CoDistribution] | None = None,
) -> str:
    """Build an SVG document from ``(range_id, family) -> [(delta, p)]`` series."""
    if not curves:
        raise ValueError("no curve samples to render")
    xs = [x for series in curves.values() for x, _ in series]
    x_lo, x_hi = min(xs), max(xs)
    px = lambda x: _scale(x, x_lo, x_hi, MARGIN, WIDTH - MARGIN)
    py = lambda y: _scale(y, 0.0, 1.0, HEIGHT - MARGIN, MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" '
        f'stroke="black"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-size="12">|dVMAF|</text>',
        f'<text x="14" y="{HEIGHT // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {HEIGHT // 2})">P(perceived difference)</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = py(frac)
        parts.append(
            f'<line x1="{MARGIN - 4}" y1="{y:.1f}" x2="{MARGIN}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN - 8}" y="{y + 4:.1f}" text-anchor="end" font-size="10">{frac:g}</text>'
        )
    for i in range(5):
        x_val = x_lo + (x_hi - x_lo) * i / 4
        x = px(x_val)
        parts.append(
            f'<line x1="{x:.1f}" y1="{HEIGHT - MARGIN}" x2="{x:.1f}" '
            f'y2="{HEIGHT - MARGIN + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{HEIGHT - MARGIN + 16}" text-anchor="middle" '
            f'font-size="10">{x_val:.1f}</text>'
        )

    if codists:
        for idx, range_id in enumerate(sorted(codists)):
            color = PALETTE[idx % len(PALETTE)]
            for point in psd_points(codists[range_id]):
                parts.append(
                    f'<circle cx="{px(point.delta_obj):.1f}" cy="{py(point.p_sd):.1f}" '
                    f'r="2.5" fill="{color}" fill-opacity="0.6"/>'
                )

    legend_y = MARGIN
    for idx, key in enumerate(sorted(curves)):
        range_id, family = key
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in sorted(curves[key]))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{WIDTH - MARGIN - 150}" y="{legend_y}" font-size="10" '
            f'fill="{color}">{_escape(range_id)} {family}</text>'
        )
        legend_y += 13
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
