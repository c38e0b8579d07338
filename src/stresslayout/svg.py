"""Straight-line SVG rendering of a layout.

Edges are line segments, vertices small circles.  The layout is fitted
into a fixed square viewport with a 5% margin on each side, preserving
aspect ratio, and output is byte-deterministic for identical inputs.
"""

from __future__ import annotations

from .graphs import Graph
from .stress import as_layout

VIEWPORT = 800.0
MARGIN_FRACTION = 0.05
VERTEX_RADIUS = 3.0


def _fit(x):
    """Map layout coordinates into the margined viewport, y flipped."""
    margin = VIEWPORT * MARGIN_FRACTION
    usable = VIEWPORT - 2.0 * margin
    if x.shape[0] == 0:
        return x
    mins = x.min(axis=0)
    maxs = x.max(axis=0)
    spans = maxs - mins
    positive = spans[spans > 0.0]
    scale = (usable / positive.max()) if positive.size else 1.0
    # center each axis inside the viewport
    offsets = margin + (usable - spans * scale) / 2.0
    fitted = (x - mins) * scale + offsets
    fitted[:, 1] = VIEWPORT - fitted[:, 1]
    return fitted


def render_svg(coords, graph: Graph, destination) -> None:
    """Write an SVG drawing of the layout to a path or file-like object."""
    x = as_layout(coords, graph.n)
    fitted = _fit(x).tolist()  # Python floats: indexing them is cheaper than numpy scalars
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{VIEWPORT:.0f}" height="{VIEWPORT:.0f}" '
        f'viewBox="0 0 {VIEWPORT:.0f} {VIEWPORT:.0f}">\n',
        f'<rect width="{VIEWPORT:.0f}" height="{VIEWPORT:.0f}" fill="white"/>\n',
        '<g stroke="#444444" stroke-width="1">\n',
    ]
    for i, j in graph.edges.tolist():
        parts.append(
            f'<line x1="{fitted[i][0]:.4f}" y1="{fitted[i][1]:.4f}" '
            f'x2="{fitted[j][0]:.4f}" y2="{fitted[j][1]:.4f}"/>\n'
        )
    parts.append('</g>\n<g fill="#1f4e99">\n')
    for px, py in fitted:
        parts.append(f'<circle cx="{px:.4f}" cy="{py:.4f}" r="{VERTEX_RADIUS:.1f}"/>\n')
    parts.append("</g>\n</svg>\n")
    text = "".join(parts)
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", newline="") as handle:
            handle.write(text)
