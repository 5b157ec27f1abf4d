"""Deterministic SVG scatter of clustered hours.

No plotting library: the figure is assembled from fixed-format strings so
two runs over the same model produce byte-identical files.  Hours are
circles coloured by cluster, centroids are crosses, and the legend carries
one swatch per cluster.
"""

from __future__ import annotations

import numpy as np

from .tsa_clustering import ClusterModel

PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b4", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)

_W, _H = 640.0, 480.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 60.0, 170.0, 40.0, 50.0


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    """Escape as ``xml.sax.saxutils.escape`` does, ``&`` first.  Importing
    that module would load the network and e-mail stack into every run."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _axes(x_label: str, y_label: str, title: str) -> list[str]:
    x0, x1 = _LEFT, _W - _RIGHT
    y0, y1 = _H - _BOTTOM, _TOP
    parts = [
        f'<rect x="0" y="0" width="{_fmt(_W)}" height="{_fmt(_H)}" fill="#ffffff"/>',
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y0)}" stroke="#333333"/>',
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(y1)}" stroke="#333333"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        px = x0 + frac * (x1 - x0)
        py = y0 - frac * (y0 - y1)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" y2="{_fmt(y0 + 4)}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y0 + 18)}" font-size="11" text-anchor="middle">{frac:g}</text>'
        )
        parts.append(
            f'<line x1="{_fmt(x0 - 4)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" y2="{_fmt(py)}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(py + 4)}" font-size="11" text-anchor="end">{frac:g}</text>'
        )
    parts.append(
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(_H - 12)}" font-size="13" '
        f'text-anchor="middle">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt((y0 + y1) / 2)}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt((y0 + y1) / 2)})">{_escape(y_label)}</text>'
    )
    if title:
        parts.append(
            f'<text x="{_fmt((x0 + x1) / 2)}" y="22" font-size="15" '
            f'text-anchor="middle">{_escape(title)}</text>'
        )
    return parts


def render_scatter(model: ClusterModel, title: str = "") -> str:
    """Render the clustering as standalone SVG text.

    X is the first capacity-factor column (or the sole column), Y is
    demand, both on their normalized [0, 1] scales so the viewport mapping
    never depends on the data.  Exactly one circle is emitted per hour.
    """
    features = model.features
    xi = 1 if features.F > 1 else 0
    yi = 0
    x_label = f"{features.columns[xi]} (normalized)"
    y_label = f"{features.columns[yi]} (normalized)"
    x0, x1 = _LEFT, _W - _RIGHT
    y0, y1 = _H - _BOTTOM, _TOP

    def to_px(fx: float, fy: float) -> tuple[float, float]:
        return x0 + fx * (x1 - x0), y0 - fy * (y0 - y1)

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{_fmt(_W)}" height="{_fmt(_H)}" viewBox="0 0 {_fmt(_W)} {_fmt(_H)}">']
    parts.extend(_axes(x_label, y_label, title))
    vals = features.values
    for h in range(features.H):
        px, py = to_px(float(vals[h, xi]), float(vals[h, yi]))
        color = PALETTE[int(model.assignment[h]) % len(PALETTE)]
        parts.append(
            f'<circle class="hour" cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" '
            f'fill="{color}" fill-opacity="0.55"/>'
        )
    for cid in range(model.k):
        cx, cy = to_px(float(model.centroids[cid, xi]), float(model.centroids[cid, yi]))
        a = 5.0
        parts.append(
            f'<path class="centroid" d="M {_fmt(cx - a)} {_fmt(cy)} L {_fmt(cx + a)} {_fmt(cy)} '
            f'M {_fmt(cx)} {_fmt(cy - a)} L {_fmt(cx)} {_fmt(cy + a)}" '
            'stroke="#000000" stroke-width="2" fill="none"/>'
        )
    lx = x1 + 14.0
    for cid in range(model.k):
        ly = _TOP + 8.0 + 20.0 * cid
        color = PALETTE[cid % len(PALETTE)]
        weight = int(model.weights[cid])
        parts.append(
            f'<rect class="swatch" x="{_fmt(lx)}" y="{_fmt(ly)}" width="12" height="12" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(lx + 18.0)}" y="{_fmt(ly + 10.0)}" font-size="12">'
            f'{_escape(model.labels[cid])} ({weight} h)</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_plot(model: ClusterModel, path, title: str = "") -> None:
    with open(path, "w") as handle:
        handle.write(render_scatter(model, title))
