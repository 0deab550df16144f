"""Minimal binary PGM (P5) writer for correlation-map heatmaps.

Values are min-max normalized per image to the 0..255 range; a constant
map renders as all zeros. No image library involved.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import IO, Union

import numpy as np

from .matrices import ShapeError, _open_for, as_vector, check_settings

__all__ = ["export_correlation_pgm"]


def export_correlation_pgm(map_values, height: int, width: int, dest: Union[str, Path, IO[bytes]]) -> None:
    """Write a length-(height*width) map as an 8-bit grayscale P5 image."""
    values = as_vector(map_values, "correlation map")
    check_settings(height=height, width=width)
    if height * width != values.size:
        raise ShapeError(f"map of length {values.size} does not reshape to {height}x{width}")
    lo = float(values.min())
    hi = float(values.max())
    if hi > lo:
        if math.isinf(hi - lo):
            # halving keeps the range finite; the lost low bit is far below one grey level
            values, lo, hi = values / 2, lo / 2, hi / 2
        scaled = np.rint((values - lo) / (hi - lo) * 255.0)
        pixels = np.clip(scaled, 0, 255).astype(np.uint8)
    else:
        pixels = np.zeros(values.size, dtype=np.uint8)
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    with _open_for(dest, "wb") as fp:
        fp.write(header)
        fp.write(pixels.tobytes())
