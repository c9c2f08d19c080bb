"""Reference form of the scatter plot, one point at a time.

svg_plot is the plain form of sparsepcm.cli._svg_plot: it unpacks each
point and label and formats one <rect> per point in Python. The
production plot computes each axis's screen coordinates with one array
expression, with the same operations in the same order, picks the fills
from one table and formats the same text, so the two files must agree
byte for byte.
"""

from pathlib import Path

import numpy as np

from sparsepcm.cli import _PLOT_PAD, _PLOT_SIZE
from sparsepcm.core import DataSet, RunReport


def svg_plot(path: Path, data: DataSet, report: RunReport):
    """Scatter of the points (small squares, colored by final label) with
    one circle per representative at radius sqrt(gamma) in data units."""
    pts = data.points
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    radii = np.sqrt(report.gamma_final)
    lo = np.minimum(lo, (report.theta_final - radii[:, None]).min(axis=0))
    hi = np.maximum(hi, (report.theta_final + radii[:, None]).max(axis=0))
    # no floor in data units: a returned model implies points of positive spread
    scale = (_PLOT_SIZE - 2 * _PLOT_PAD) / (hi - lo).max()

    def sx(x):
        return _PLOT_PAD + (x - lo[0]) * scale

    def sy(y):
        # flip so the y axis points up
        return _PLOT_SIZE - _PLOT_PAD - (y - lo[1]) * scale

    # the clusters cycle over these colors, so none takes label 0's gray
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#17becf", "#bcbd22"]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PLOT_SIZE}" '
        f'height="{_PLOT_SIZE}" viewBox="0 0 {_PLOT_SIZE} {_PLOT_SIZE}">',
        f'<rect width="{_PLOT_SIZE}" height="{_PLOT_SIZE}" fill="white"/>',
    ]
    for (x, y), lab in zip(pts, report.labels_final):
        color = palette[(int(lab) - 1) % len(palette)] if lab else "#777777"
        lines.append(
            f'<rect x="{sx(x) - 1.2:.2f}" y="{sy(y) - 1.2:.2f}" width="2.4" '
            f'height="2.4" fill="{color}"/>'
        )
    for j, (center, g) in enumerate(zip(report.theta_final, report.gamma_final)):
        r = np.sqrt(g) * scale
        lines.append(
            f'<circle cx="{sx(center[0]):.2f}" cy="{sy(center[1]):.2f}" '
            f'r="{r:.2f}" fill="none" stroke="black" stroke-width="1.5"/>'
        )
    lines.append("</svg>")
    path.write_text("\n".join(lines), encoding="utf-8")
