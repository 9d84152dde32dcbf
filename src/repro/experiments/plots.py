"""Terminal plots: sparklines and CDFs for benchmark output.

The paper's figures become text in this reproduction; these helpers make
the printed results legible at a glance without any plotting dependency.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = None) -> str:
    """Unicode sparkline of a series (resampled to ``width`` if given)."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return ""
    if width is not None and width > 0 and data.size > width:
        positions = np.linspace(0, data.size - 1, width)
        data = np.interp(positions, np.arange(data.size), data)
    lo, hi = float(data.min()), float(data.max())
    if hi == lo:
        return _BLOCKS[4] * data.size
    scaled = (data - lo) / (hi - lo) * (len(_BLOCKS) - 2)
    return "".join(_BLOCKS[int(round(v)) + 1] for v in scaled)


def cdf_table(
    samples_by_label: Mapping[str, Sequence[float]],
    points: int = 5,
) -> str:
    """Percentile table of several distributions (a textual CDF).

    One column per label, one row per percentile — the information of the
    paper's CDF plots (Figs. 11a, 16a) in text form.
    """
    if not samples_by_label:
        return "(no data)"
    percentiles = np.linspace(10, 90, points)
    labels = list(samples_by_label)
    label_width = max(max(len(l) for l in labels), 6)
    header = "pctl".ljust(6) + "  " + "  ".join(
        label.rjust(label_width) for label in labels
    )
    lines = [header, "-" * len(header)]
    for percentile in percentiles:
        row = f"p{percentile:>4.0f} " + "  " + "  ".join(
            f"{np.percentile(np.asarray(list(samples_by_label[label]), dtype=float), percentile):>{label_width}.0f}"
            for label in labels
        )
        lines.append(row)
    return "\n".join(lines)
