import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enlca.exact import correlation_map
from enlca.matrices import (
    FormatError,
    NumericError,
    RngSpec,
    ShapeError,
    as_matrix,
    gaussian_sample,
    normalize_columns,
    read_matrix_binary,
    read_matrix_csv,
    write_matrix_binary,
    write_matrix_csv,
)


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def small_matrices(max_dim=6):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(finite_floats, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


class TestAsMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            as_matrix([1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(NumericError):
            as_matrix([[1.0, float("nan")]])

    def test_rejects_inf(self):
        with pytest.raises(NumericError):
            as_matrix([[float("inf")], [0.0]])


def softmax(values):
    """The library's one softmax, reached through correlation_map: a single
    unit query against one-channel keys makes the logits equal `values`."""
    return correlation_map([[1.0]], [values], 0)


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)

    def test_analytic(self):
        out = softmax([math.log(2.0), 0.0])
        assert abs(out[0] - 2 / 3) < 1e-12 and abs(out[1] - 1 / 3) < 1e-12

    def test_large_inputs_match_shifted(self):
        big = softmax([1000.0, 999.0])
        assert np.isfinite(big).all()
        assert np.abs(big - softmax([1.0, 0.0])).max() < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            softmax([])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20), st.floats(-100, 100))
    def test_shift_invariance(self, values, shift):
        base = softmax(values)
        shifted = softmax([v + shift for v in values])
        assert np.abs(base - shifted).max() < 1e-12

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
    def test_simplex(self, values):
        out = softmax(values)
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) < 1e-12


class TestGaussianSample:
    def test_deterministic(self):
        spec = RngSpec(seed=99, stream_id=4)
        assert np.array_equal(gaussian_sample(spec, 20, 30), gaussian_sample(spec, 20, 30))

    def test_streams_differ(self):
        a = gaussian_sample(RngSpec(99, 4), 5, 5)
        b = gaussian_sample(RngSpec(99, 5), 5, 5)
        assert (a != b).any()

    def test_moments_at_a_million_samples(self):
        draws = gaussian_sample(RngSpec(2024), 1000, 1000)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.01

    def test_bad_shape(self):
        with pytest.raises(ShapeError):
            gaussian_sample(RngSpec(0), 0, 3)


class TestRngSpec:
    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            RngSpec(-1)

    def test_stream_derivation(self):
        spec = RngSpec(7, 10)
        assert spec.stream(5) == RngSpec(7, 15)


class TestColumnNormalization:
    def test_unit_norms(self):
        gen = np.random.Generator(np.random.Philox(key=3))
        a = gen.standard_normal((6, 9))
        norms = np.linalg.norm(normalize_columns(a), axis=0)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_zero_column_stays_zero(self):
        a = np.array([[0.0, 1.0], [0.0, 2.0]])
        out = normalize_columns(a, epsilon=1e-12)
        assert np.array_equal(out[:, 0], [0.0, 0.0])


class TestCsvRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        values = np.array([
            [0.1, -0.0, 1e-300],
            [math.pi, 1e308, 5e-324],
        ])
        path = tmp_path / "m.csv"
        write_matrix_csv(values, path)
        back = read_matrix_csv(path)
        assert back.shape == values.shape
        assert all(
            math.copysign(1, x) == math.copysign(1, y) and x == y
            for x, y in zip(values.ravel(), back.ravel())
        )

    @settings(max_examples=50)
    @given(small_matrices())
    def test_round_trip_property(self, rows):
        buf = io.StringIO()
        write_matrix_csv(rows, buf)
        back = read_matrix_csv(io.StringIO(buf.getvalue()))
        assert np.array_equal(back, np.asarray(rows, dtype=np.float64))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n1.0\n",
            "2,2\n1.0,2.0\n",
            "1,2\n1.0\n",
            "1,1\nnot-a-number\n",
            "0,3\n",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            read_matrix_csv(io.StringIO(text))

    def test_nan_payload_is_numeric_error(self):
        with pytest.raises(NumericError):
            read_matrix_csv(io.StringIO("1,2\nnan,1.0\n"))


class TestBinaryRoundTrip:
    def test_f64_bitwise(self, tmp_path):
        gen = np.random.Generator(np.random.Philox(key=11))
        a = gen.standard_normal((5, 7)) * 1e30
        path = tmp_path / "m.bin"
        write_matrix_binary(a, path)
        assert np.array_equal(read_matrix_binary(path), a)

    def test_f32_code_is_rejected(self):
        import struct

        # dtype code 1 (f32) is no longer part of the format
        header = struct.pack("<4sIII", b"ENLM", 1, 1, 1) + b"\0" * 4
        with pytest.raises(FormatError, match="dtype code 1"):
            read_matrix_binary(io.BytesIO(header))

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            read_matrix_binary(io.BytesIO(b"XXXX" + b"\0" * 12))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.bin"
        write_matrix_binary(np.ones((2, 2)), path)
        blob = path.read_bytes()[:-4]
        with pytest.raises(FormatError):
            read_matrix_binary(io.BytesIO(blob))

    def test_unknown_dtype_code(self):
        import struct

        header = struct.pack("<4sIII", b"ENLM", 1, 1, 9) + b"\0" * 8
        with pytest.raises(FormatError):
            read_matrix_binary(io.BytesIO(header))
