import io
import warnings

import numpy as np
import pytest

from enlca.matrices import ShapeError
from enlca.pgm import export_correlation_pgm
from oracles import read_pgm


def test_single_pixel_constant_map_is_zero(tmp_path):
    path = tmp_path / "one.pgm"
    export_correlation_pgm([1.0], 1, 1, path)
    image = read_pgm(path)
    assert image.shape == (1, 1)
    assert image[0, 0] == 0


def test_uniform_map_renders_black(tmp_path):
    path = tmp_path / "flat.pgm"
    export_correlation_pgm(np.full(12, 1 / 12), 3, 4, path)
    assert (read_pgm(path) == 0).all()


def test_spike_map_peaks_at_255():
    values = np.full(9, 0.05)
    values[4] = 0.6
    buf = io.BytesIO()
    export_correlation_pgm(values, 3, 3, buf)
    image = read_pgm(io.BytesIO(buf.getvalue()))
    assert image[1, 1] == 255
    assert image.max() == 255 and np.argmax(image) == 4


def test_endpoints_map_to_full_range():
    values = np.linspace(-2.0, 3.0, 10)
    buf = io.BytesIO()
    export_correlation_pgm(values, 2, 5, buf)
    image = read_pgm(io.BytesIO(buf.getvalue())).ravel()
    assert image[0] == 0 and image[-1] == 255


def test_subnormal_range_scales_without_overflow():
    # 255 / (hi - lo) overflows to inf for a subnormal range
    buf = io.BytesIO()
    export_correlation_pgm([0.0, 5e-324, 1e-323, 0.0], 2, 2, buf)
    assert read_pgm(io.BytesIO(buf.getvalue())).ravel().tolist() == [0, 128, 255, 0]


def test_overflowing_range_scales_without_warning():
    # hi - lo overflows to inf for a range wider than the float maximum
    buf = io.BytesIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        export_correlation_pgm([-1e308, 0.0, 1e308, 0.0], 2, 2, buf)
    assert read_pgm(io.BytesIO(buf.getvalue())).ravel().tolist() == [0, 128, 255, 128]


def test_header_layout(tmp_path):
    path = tmp_path / "hdr.pgm"
    export_correlation_pgm(np.arange(6.0), 2, 3, path)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n3 2\n255\n")
    assert len(blob) == len(b"P5\n3 2\n255\n") + 6


def test_shape_mismatch_rejected(tmp_path):
    with pytest.raises(ShapeError):
        export_correlation_pgm(np.arange(5.0), 2, 3, tmp_path / "bad.pgm")
