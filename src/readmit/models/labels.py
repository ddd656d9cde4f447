"""The label check every fitter makes before it fits."""

from __future__ import annotations

import numpy as np


def binary_labels(y, rows: int) -> np.ndarray:
    """``y`` as an array, once it is known to hold one label, 0 or 1, for
    each of the design's ``rows`` rows; a ValueError names what is wrong."""
    y = np.asarray(y)
    if y.ndim != 1 or y.size != rows:
        raise ValueError(f"{y.size} labels of shape {y.shape} for {rows} rows of X")
    outside = np.flatnonzero((y != 0) & (y != 1))
    if outside.size:
        raise ValueError(f"labels must be 0 or 1, got {y[outside[0]].item()!r} "
                         f"at row {outside[0]}")
    return y
