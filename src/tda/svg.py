"""Barcode rendering to SVG text.

One horizontal line per bar, grouped into bands by degree; infinite bars
run to the right margin and end in an arrowhead. Output bytes depend only
on the barcode and canvas size.
"""

from __future__ import annotations

import math

from .persistence import Barcode

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

_MARGIN_LEFT = 50.0
_MARGIN_RIGHT = 30.0
_MARGIN_TOP = 20.0
_BAR_HEIGHT = 10.0
_BAND_GAP = 22.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def svg_document(bc: Barcode, width: int = 720) -> str:
    """Deterministic SVG text for a barcode."""
    if width <= _MARGIN_LEFT + _MARGIN_RIGHT:  # no room to plot between the margins
        raise ValueError(f"width must be at least {_MARGIN_LEFT + _MARGIN_RIGHT + 1:.0f}, got {width}")
    codes, births, deaths = bc.columns
    degrees = sorted({d for d in codes if d is not None})
    xmax = max([x for x in deaths + births if math.isfinite(x)] + [1.0])
    xmin = min(births + [0.0])
    span = max(xmax - xmin, 1e-9)
    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT

    def x_of(v: float) -> float:
        return _MARGIN_LEFT + (v - xmin) / span * plot_w

    parts: list[str] = []
    y = _MARGIN_TOP
    for d in degrees:
        color = _COLORS[d % len(_COLORS)]
        parts.append(
            f'<text x="{_fmt(8.0)}" y="{_fmt(y + _BAR_HEIGHT)}" font-size="12" '
            f'fill="{color}">H{d}</text>'
        )
        for bar in bc.in_degree(d):
            x0 = x_of(bar.birth)
            x1 = width - _MARGIN_RIGHT if bar.infinite else x_of(bar.death)
            parts.append(
                f'<line x1="{_fmt(x0)}" y1="{_fmt(y)}" x2="{_fmt(x1)}" y2="{_fmt(y)}" '
                f'stroke="{color}" stroke-width="3"/>'
            )
            if bar.infinite:
                parts.append(
                    f'<polygon points="{_fmt(x1)},{_fmt(y - 4)} {_fmt(x1 + 8)},{_fmt(y)} '
                    f'{_fmt(x1)},{_fmt(y + 4)}" fill="{color}"/>'
                )
            y += _BAR_HEIGHT
        y += _BAND_GAP
    height = max(y + _MARGIN_TOP, 80.0)
    axis_y = height - 14.0
    axis = (
        f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(axis_y)}" '
        f'x2="{_fmt(width - _MARGIN_RIGHT)}" y2="{_fmt(axis_y)}" stroke="#333"/>'
        f'<text x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(axis_y + 12)}" font-size="10" '
        f'fill="#333">{_fmt(xmin)}</text>'
        f'<text x="{_fmt(width - _MARGIN_RIGHT - 20)}" y="{_fmt(axis_y + 12)}" '
        f'font-size="10" fill="#333">{_fmt(xmax)}</text>'
    )
    body = "".join(parts) + axis
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{_fmt(height)}" viewBox="0 0 {width} {_fmt(height)}">'
        f'<rect width="100%" height="100%" fill="white"/>{body}</svg>\n'
    )


def render_svg(bc: Barcode, path, width: int = 720) -> None:
    """Write the barcode as an SVG file."""
    text = svg_document(bc, width=width)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
