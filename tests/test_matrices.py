import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from enlca.analysis import _aligned_vector, approximation_error_sweep, flop_count, runtime_scaling
from enlca.contrastive import reconstruction_loss, relevance_scores
from enlca.enla import EnlaConfig, EnlcaBlockParams, normalize_and_scale, random_block_params
from enlca.exact import correlation_map
from enlca.features import kernel_estimates, sample_projection
from enlca.matrices import (
    FormatError,
    NumericError,
    RngSpec,
    ShapeError,
    _aligned_empty,
    as_matrix,
    check_settings,
    gaussian_sample,
    normalize_columns,
    read_matrix_csv,
    write_matrix_csv,
)
from enlca.pgm import export_correlation_pgm


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
# The same values with the edge cases drawn often: signed zeros, the smallest
# subnormal, the smallest normal and the largest finite value.
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]),
    finite_floats,
)


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


class TestAsVector:
    @pytest.mark.parametrize("data, error, message", [
        ([[1.0, 2.0]], ShapeError, "q must be 1-D, got ndim=2"),
        ([], ShapeError, "q must be non-empty"),
        ([1.0, math.inf], NumericError, "q has a non-finite entry"),
    ], ids=["2-D", "empty", "inf"])
    def test_rejects(self, data, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            kernel_estimates(data, [1.0, 2.0], 4, 1, RngSpec(0))


class TestEqualShapePairs:
    """Every operand pair that must match in shape says so in one form."""

    @pytest.mark.parametrize("call, names", [
        (reconstruction_loss, "sr and hr"),
        (lambda a, b: EnlcaBlockParams(a, b, np.eye(2), EnlaConfig(rng=RngSpec(0))),
         "w_theta and w_delta"),
    ])
    def test_message(self, call, names):
        with pytest.raises(ShapeError) as caught:
            call(np.ones((2, 3)), np.ones((1, 3)))
        assert str(caught.value) == f"{names} need equal shapes, got (2, 3) vs (1, 3)"


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
        # a requested size, not an operand's shape: ValueError, so the CLI exits 1
        with pytest.raises(ValueError, match=r"^rows must be >= 1, got 0$") as caught:
            gaussian_sample(RngSpec(0), 0, 3)
        assert not isinstance(caught.value, ShapeError)


class TestCheckSettings:
    """Every count or size a caller requests has one check, check_settings:
    a ValueError naming the setting, never a ShapeError. The m of
    sample_projection and the rows of gaussian_sample are pinned by their
    own test_bad_shape."""

    @pytest.mark.parametrize("name,call", [
        ("c", lambda: sample_projection(RngSpec(0), 4, 0)),
        ("trials", lambda: kernel_estimates([1.0], [1.0], 4, 0, RngSpec(0))),
        ("m", lambda: kernel_estimates([1.0], [1.0], 0, 4, RngSpec(0))),
        ("cols", lambda: gaussian_sample(RngSpec(0), 3, 0)),
        ("n", lambda: flop_count("nla", 0, 8, 8)),
        ("c", lambda: flop_count("conv3x3", 10, 0, 8)),
        ("c_out", lambda: flop_count("nla", 10, 8, 0)),
        ("m", lambda: flop_count("enlca", 10, 8, 8, 0)),
        ("c", lambda: _aligned_vector(0, 1.0)),
        ("n", lambda: approximation_error_sweep(0, 4, 4, [4], 1.0, 2, RngSpec(0))),
        ("c", lambda: approximation_error_sweep(16, 0, 4, [4], 1.0, 2, RngSpec(0))),
        ("c_out", lambda: approximation_error_sweep(16, 4, 0, [4], 1.0, 2, RngSpec(0))),
        ("m", lambda: approximation_error_sweep(16, 4, 4, [0, 4], 1.0, 2, RngSpec(0))),
        ("trials", lambda: approximation_error_sweep(16, 4, 4, [4], 1.0, 0, RngSpec(0))),
        ("n", lambda: runtime_scaling([0, 16], 4, 4, 8, 3)),
        ("c_in", lambda: random_block_params(RngSpec(0), 0, 1, EnlaConfig(rng=RngSpec(1)))),
        ("c_embed", lambda: random_block_params(RngSpec(0), 4, 0, EnlaConfig(rng=RngSpec(1)))),
        ("height", lambda: export_correlation_pgm(np.ones(4), 0, 4, io.BytesIO())),
        ("width", lambda: export_correlation_pgm(np.ones(4), 4, 0, io.BytesIO())),
    ], ids=["sample_projection c", "kernel_estimates trials", "kernel_estimates m",
            "gaussian_sample cols", "flop_count n", "flop_count c", "flop_count c_out", "flop_count m", "_aligned_vector c",
            "approximation_error_sweep n", "approximation_error_sweep c",
            "approximation_error_sweep c_out", "approximation_error_sweep m",
            "approximation_error_sweep trials", "runtime_scaling n", "random_block_params c_in",
            "random_block_params c_embed", "export_correlation_pgm height",
            "export_correlation_pgm width"])
    def test_zero_count_names_the_setting(self, name, call):
        with pytest.raises(ValueError, match=rf"^{name} must be >= 1, got 0$") as caught:
            call()
        assert not isinstance(caught.value, ShapeError)

    @pytest.mark.parametrize("name,value,call", [
        ("m", 2.5, lambda: flop_count("enlca", 10, 2, 2, 2.5)),
        ("n", 10.5, lambda: flop_count("nla", 10.5, 2, 2)),
        ("c", True, lambda: flop_count("nla", 10, True, 2)),
        ("m", 2.5, lambda: approximation_error_sweep(8, 2, 2, [2.5, 4], 1.0, 2, RngSpec(0))),
        ("n", 2.5, lambda: runtime_scaling([2.5, 4], 2, 2, 4, 3)),
        ("repeats", 3.5, lambda: runtime_scaling([16], 2, 2, 4, 3.5)),
        ("m", 2.5, lambda: EnlaConfig(rng=RngSpec(0), m=2.5)),
        ("c_embed", 1.0, lambda: random_block_params(RngSpec(0), 4, 1.0, EnlaConfig(rng=RngSpec(1)))),
    ], ids=["flop_count m", "flop_count n", "flop_count c", "approximation_error_sweep m", "runtime_scaling n",
            "runtime_scaling repeats", "EnlaConfig m", "random_block_params c_embed"])
    def test_non_integer_count_names_the_setting(self, name, value, call):
        # a count is never rounded: the sweeps would label a point by an m they did not run
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value}$"):
            call()

    def test_numpy_integer_counts(self):
        model = flop_count("enlca", np.int64(10), np.int32(2), 2, np.uint8(2))
        assert model.macs == flop_count("enlca", 10, 2, 2, 2).macs == 160
        assert EnlaConfig(rng=RngSpec(0), m=np.int64(3)).m == 3


    @pytest.mark.parametrize("name,call", [
        ("k_amp", lambda: normalize_and_scale(np.ones((2, 2)), np.ones((2, 2)), math.inf)),
        ("k_amp", lambda: relevance_scores(np.ones((2, 2)), np.ones((2, 2)), math.inf)),
        ("k_amp", lambda: EnlaConfig(rng=RngSpec(0), k_amp=math.inf)),
        ("k_amp", lambda: _aligned_vector(4, math.inf)),
    ], ids=["normalize_and_scale k_amp", "relevance_scores k_amp",
            "EnlaConfig k_amp", "_aligned_vector k_amp"])
    def test_infinite_setting_names_the_setting(self, name, call):
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got inf$"):
            call()

    @pytest.mark.parametrize("shown,call", [
        ("True", lambda: check_settings(k_amp=True)),
        ("'6'", lambda: check_settings(k_amp="6")),
        ("True", lambda: EnlaConfig(rng=RngSpec(0), k_amp=True)),
        ("True", lambda: normalize_and_scale(np.ones((2, 2)), np.ones((2, 2)), True)),
        ("True", lambda: relevance_scores(np.ones((2, 2)), np.ones((2, 2)), True)),
        ("'1'", lambda: approximation_error_sweep(8, 2, 2, [2], "1", 2, RngSpec(0))),
        ("array(2.)", lambda: _aligned_vector(4, np.array(2.0))),
    ], ids=["check_settings bool", "check_settings str", "EnlaConfig bool", "normalize_and_scale bool",
            "relevance_scores bool", "approximation_error_sweep str", "_aligned_vector array"])
    def test_non_real_k_amp_names_the_setting(self, shown, call):
        # the one type rule of a real setting, shared with ContrastiveConfig and total_loss
        with pytest.raises(ValueError, match=rf"^k_amp must be a real number, got {re.escape(shown)}$"):
            call()

    def test_numpy_and_integer_k_amp(self):
        for k_amp in (2, np.int64(2), np.float32(2.0), np.float64(2.0)):
            check_settings(k_amp=k_amp)
        assert EnlaConfig(rng=RngSpec(0), k_amp=np.float64(3.0)).k_amp == 3.0


class TestRngSpec:
    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            RngSpec(-1)

    def test_stream_derivation(self):
        spec = RngSpec(7, 10)
        assert spec.stream(5) == RngSpec(7, 15)

    def test_numpy_integers_stored_as_int(self):
        spec = RngSpec(np.int64(3), np.uint64(2**64 - 1))
        assert spec == RngSpec(3, 2**64 - 1)
        assert type(spec.seed) is int and type(spec.stream_id) is int

    @pytest.mark.parametrize("offset", [np.int64(2), np.uint64(2), np.int32(2)])
    def test_numpy_integer_offset(self, offset):
        rng = RngSpec(7, 2**64 - 1)
        assert rng.stream(offset) == rng.stream(2) == RngSpec(7, 1)

    @pytest.mark.parametrize("field", ["seed", "stream_id"])
    def test_bool_refused_by_name(self, field):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer in \[0, 2\^64\), got True$"):
            RngSpec(**{"seed": 0, field: True})

    @pytest.mark.parametrize("offset", [True, 2.0, "2"])
    def test_non_integer_offset_refused(self, offset):
        with pytest.raises(ValueError, match=rf"^offset must be an integer, got {offset!r}$"):
            RngSpec(0).stream(offset)


@pytest.mark.parametrize("shape", [(1, 1), (17, 40000), (128, 2049)])
def test_aligned_empty_starts_on_a_cache_line(shape):
    # eight blocks alive at once, so that malloc cannot align them all by chance
    blocks = [_aligned_empty(shape) for _ in range(8)]
    for a in blocks:
        assert a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
        assert a.ctypes.data % 64 == 0


class TestColumnNormalization:
    def test_unit_norms(self):
        gen = np.random.Generator(np.random.Philox(key=3))
        a = gen.standard_normal((6, 9))
        norms = np.linalg.norm(normalize_columns(a), axis=0)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_zero_column_stays_zero(self):
        a = np.array([[0.0, 1.0], [0.0, 2.0]])
        out = normalize_columns(a)
        assert np.array_equal(out[:, 0], [0.0, 0.0])

    def test_squares_past_float_range(self):
        # the squares of 3e200 and 4e200 overflow though the norm 5e200
        # does not; the last column's norm is itself past float range
        a = np.array([[3e200, 3.0, 1.5e308], [4e200, 4.0, 1.5e308]])
        out = normalize_columns(a)
        expected = [[0.6, 0.6, math.sqrt(0.5)], [0.8, 0.8, math.sqrt(0.5)]]
        assert np.allclose(out, expected, rtol=1e-15, atol=0)
        assert np.array_equal(out[:, 1], [0.6, 0.8])


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

    @settings(max_examples=200)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6)),
                      elements=edge_floats))
    def test_round_trip_keeps_bits_and_signs(self, a):
        buf = io.StringIO()
        write_matrix_csv(a, buf)
        buf.seek(0)
        back = read_matrix_csv(buf)
        assert np.array_equal(back, a)
        assert np.array_equal(np.signbit(back), np.signbit(a))

    @pytest.mark.parametrize("text", [
        "2,2\r\n1.0,2.0\r\n3.0,4.0\r\n",  # CRLF line ends
        "2,2\n1.0,2.0\n3.0,4.0",  # no final newline
        "2,2\n1.0,2.0\n\n\n3.0,4.0\n\n",  # blank lines are skipped
        "2,2\n 1.0 , 2.0\n3.0,\t4.0 \n",  # spaces around values
    ])
    def test_accepted(self, text):
        assert np.array_equal(read_matrix_csv(io.StringIO(text)), [[1.0, 2.0], [3.0, 4.0]])

    def test_crlf_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,2\r\n1.5,-0.0\r\n")
        back = read_matrix_csv(path)
        assert np.array_equal(back, [[1.5, 0.0]]) and np.signbit(back[0, 1])

    def test_reads_open_stream_from_header(self):
        buf = io.StringIO("preamble\n1,2\n1.0,2.0\n")
        buf.readline()
        assert np.array_equal(read_matrix_csv(buf), [[1.0, 2.0]])

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n1.0\n",
            "2,2\n1.0,2.0\n",
            "1,2\n1.0\n",
            "1,1\nnot-a-number\n",
            "0,3\n",
            "2,2\n1.0,2.0\n   \n3.0,4.0\n",  # whitespace-only line
            "2,2\n1.0,2.0,\n3.0,4.0,\n",  # trailing comma
            "2,2\n1.0,2.0\n3.0\n",  # one row short
            "2,2\n1.0,2.0\n3.0,4.0,5.0\n",  # one row long
            "2,2\n1.0,2.0,9.0\n3.0,4.0,5.0\n",  # every row long
            "2,2\n1.0,2.0\n3.0,4.0\n5.0,6.0\n",  # one extra row
            "1,2\n1_000,2.0\n",  # a spelling only Python's float() reads
            "1,2\n0x10,2.0\n",  # hex
            "1,1\n#1.0\n",  # no comment syntax
            "x,2\n1.0,2.0\n",  # a header that is not two integers
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            read_matrix_csv(io.StringIO(text))

    @pytest.mark.parametrize("text", ["2,2\n", "2,2"])
    def test_header_only_is_format_error_without_warning(self, text):
        with pytest.raises(FormatError, match="expected 2 data lines, found 0"):
            read_matrix_csv(io.StringIO(text))

    @pytest.mark.parametrize("lines", [0, 5000])  # 5000 lines put the byte past the first read
    def test_undecodable_bytes(self, tmp_path, lines):
        path = tmp_path / "m.csv"
        path.write_bytes(f"{lines + 1},1\n".encode() + b"1.0\n" * lines + b"\xff\n")
        with pytest.raises(FormatError, match="not UTF-8"):
            read_matrix_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3,2\n1,2\n3\n5,6\n", "line 3: expected 2 values, got 1"),
            ("3,2\n1,\n3,4\n5,6\n", "line 2, value 2: cannot read '' as a number"),
            ("3,2\n1,2\n\n3\n5,6\n", "line 4: expected 2 values, got 1"),  # blank line counted
            ("3,2\n\r\n1,2\n5,x\n5,6\n", "line 4, value 2: cannot read 'x' as a number"),
            ("2,2\n1.0,2.0\n   \n3.0,4.0\n", "line 3: expected 2 values, got 1"),
            ("1,2\n1_000,2.0\n", "line 2, value 1: cannot read '1_000' as a number"),
            ("2,3\n1,2,3\n4,5,6,7\n", "line 3: expected 3 values, got 4"),
        ],
    )
    def test_malformed_line_is_named_by_file_line(self, text, message):
        with pytest.raises(FormatError) as caught:
            read_matrix_csv(io.StringIO(text))
        assert str(caught.value) == message

    def test_malformed_line_of_file_is_named(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"3,2\r\n1,2\r\n\r\n3\r\n5,6\r\n")
        with pytest.raises(FormatError, match="^line 4: expected 2 values, got 1$"):
            read_matrix_csv(path)

    def test_unseekable_stream_gets_no_row_numbers(self):
        class Unseekable(io.StringIO):
            def tell(self):
                raise io.UnsupportedOperation("underlying stream is not seekable")

        with pytest.raises(FormatError) as caught:
            read_matrix_csv(Unseekable("3,2\n1,2\n\n3\n5,6\n"))
        message = str(caught.value)
        assert "row" not in message and "usecols" not in message and "changed from 2 to 1" in message

    def test_reads_file_the_caller_iterates(self, tmp_path):
        # a text file that next() has advanced cannot tell its position
        path = tmp_path / "m.csv"
        path.write_text("preamble\n2,1\n1.0\n\n2.0\n")
        with open(path) as fp:
            next(fp)
            assert np.array_equal(read_matrix_csv(fp), [[1.0], [2.0]])
        path.write_text("preamble\n2,1\n1.0\n\nx\n")
        # no position to seek back to, so no line number either
        reason = "^after the header: could not convert string 'x' to float64$"
        with open(path) as fp, pytest.raises(FormatError, match=reason):
            next(fp)
            read_matrix_csv(fp)

    def test_nan_payload_is_numeric_error(self):
        with pytest.raises(NumericError):
            read_matrix_csv(io.StringIO("1,2\nnan,1.0\n"))
