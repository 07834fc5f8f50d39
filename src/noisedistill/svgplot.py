"""Minimal, byte-deterministic scatter plots as standalone SVG.

Hand-rolled on purpose: plotting libraries do not promise byte-stable output
across versions, and these files are compared against golden copies in tests.
Fixed canvas, fixed data window, fixed palette, fixed float formatting.
"""

from __future__ import annotations

import numpy as np

from .config import write_text_atomic
from .errors import PreconditionError
from .toydata import SCALE

CANVAS = 640
MARGIN = 40
# Plots cover [-0.625, 0.625]^2: every clean toy point plus 3 sigma of noise at
# sigma_data 0.05 (the largest such coordinate is 0.525, on the two-moons x axis).
DATA_WINDOW = 2.5 * SCALE
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
MAX_SETS = 5


def _to_canvas(points: np.ndarray) -> np.ndarray:
    span = CANVAS - 2 * MARGIN
    scaled = (np.asarray(points, dtype=float) + DATA_WINDOW) / (2 * DATA_WINDOW)
    xy = MARGIN + scaled * span
    xy[:, 1] = CANVAS - xy[:, 1]  # SVG y grows downward
    return xy


def emit_scatter_svg(point_sets, path, meta: str) -> None:
    """Write labelled 2-D point sets to ``path`` as one SVG scatter panel.

    ``point_sets`` is a list of (label, n x 2 array) with at most five
    entries; an empty list yields a valid empty canvas.  ``meta`` (the config
    hash / seed provenance) lands in a leading XML comment.
    """
    point_sets = list(point_sets)
    if len(point_sets) > MAX_SETS:
        raise PreconditionError(f"at most {MAX_SETS} point sets per panel, got {len(point_sets)}")
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', f"<!-- {meta} -->"]
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">'
    )
    lines.append(f'<rect width="{CANVAS}" height="{CANVAS}" fill="white"/>')
    for idx, (label, points) in enumerate(point_sets):
        color = PALETTE[idx]
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.size:
            coords = _to_canvas(points)
            circles = "".join(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="{color}" fill-opacity="0.6"/>'
                for x, y in coords
            )
            lines.append(f'<g id="set{idx}">{circles}</g>')
        ly = 20 + 18 * idx
        lines.append(f'<rect x="12" y="{ly - 10}" width="10" height="10" fill="{color}"/>')
        lines.append(f'<text x="28" y="{ly}" font-family="monospace" font-size="8">{label}</text>')
    lines.append("</svg>")
    write_text_atomic(path, "\n".join(lines) + "\n")
