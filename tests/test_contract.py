"""The float-range contract of every public function that takes arrays:
it returns a finite result or raises a named NumericError, ShapeError
or ValueError, and it never emits a warning. Two documented
exceptions: kernel_variance_theory returns inf for a variance past float
range, and phi a log_shift of -inf when every feature is 0.

Inputs run across float64's range: a scale from 1e-320 to 1e308 times
entries in [-1, 1], with maybe one entry set to any magnitude in that
range and one column set to 0. Where a cheap bound exists it is checked
too, and the forward is checked against the 60-digit decimal reference
on small shapes. Derandomized, so the suite stays deterministic.
"""

import dataclasses
import inspect
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enlca import analysis, contrastive, enla, exact, features, matrices, pgm
from enlca import (
    ContrastiveConfig, EnlaConfig, EnlcaBlockParams, NumericError, RngSpec, ShapeError, as_matrix, as_vector,
    attention_row_entropies, attention_weights, block_inputs, contrastive_loss, enla_forward,
    enlca_block, exact_attention, export_correlation_pgm, kernel_estimates, kernel_variance_empirical,
    kernel_variance_theory, normalize_and_scale, normalize_columns, phi, read_matrix_csv, reconstruction_loss,
    relevance_scores, sample_projection, write_matrix_csv,
)
from oracles import decimal_forward

NAMED = (NumericError, ShapeError, ValueError)
FUZZED = {
    "as_matrix", "as_vector", "attention_row_entropies", "attention_weights", "block_inputs", "contrastive_loss",
    "enla_forward", "enlca_block", "exact_attention", "export_correlation_pgm",
    "kernel_estimates", "kernel_variance_empirical", "kernel_variance_theory",
    "normalize_and_scale", "normalize_columns", "phi", "reconstruction_loss", "relevance_scores",
    "write_matrix_csv",
}
NO_ARRAYS = {
    "approximation_error_sweep", "check_settings", "consecutive_ratios", "flop_count", "flop_table",
    "gaussian_sample", "random_block_params", "read_matrix_csv", "runtime_scaling", "sample_projection",
    "total_loss", "variance_sweep_k", "write_sweep_csv",
}
EPS = np.finfo(np.float64).eps
contract = settings(max_examples=40, derandomize=True, deadline=None)

sizes = st.integers(1, 5)
k_amps = st.floats(0.0, 300.0).map(lambda x: 10.0 ** x)
# any magnitude from the subnormals to float64's largest, either sign
extremes = st.builds(lambda sign, x: sign * 10.0 ** x, st.sampled_from([-1.0, 1.0]), st.floats(-320.0, 308.25))


@st.composite
def arrays(draw, rows, cols):
    scale = 10.0 ** draw(st.one_of(st.just(0.0), st.floats(-320.0, 308.0)))
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=rows * cols, max_size=rows * cols))
    a = scale * np.array(entries).reshape(rows, cols)
    if draw(st.booleans()):
        a[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = draw(extremes)
    if draw(st.booleans()):
        a[:, draw(st.integers(0, cols - 1))] = 0.0
    return a


def outcome(fn, *args):
    """fn(*args), or None when it raised one of the named errors; a
    warning is an error (pyproject's filterwarnings)."""
    try:
        return fn(*args)
    except NAMED:
        return None


def assert_finite(result):
    """Every number in a result: an array, a float, or a tuple or
    dataclass of them (a field of None is absent)."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, (tuple, list)):
        for part in result:
            assert_finite(part)
    elif isinstance(result, (np.ndarray, float, int)):
        assert np.isfinite(result).all(), result


def exponent_scale(f, *sides):
    """E, the largest |f_l . u - |u|^2 / 2| over the columns u of the
    sides: the size of the exponents whose rounding no evaluation avoids."""
    with np.errstate(over="ignore", invalid="ignore"):
        return max(float(np.abs(f @ u - 0.5 * (u * u).sum(axis=0)).max()) for u in sides)


@contract
@given(st.data(), st.integers(1, 4), st.integers(1, 6), st.integers(1, 6), st.integers(1, 3), st.integers(1, 8),
       st.booleans())
def test_forward(data, c, n_q, n_k, c_out, m, orthogonal):
    q = data.draw(arrays(c, n_q))
    k = data.draw(arrays(c, n_k))
    v = data.draw(arrays(c_out, n_k))
    config = EnlaConfig(rng=RngSpec(data.draw(st.integers(0, 2**32))), m=m, orthogonal=orthogonal)
    out = outcome(enla_forward, q, k, v, config)
    if out is None:
        return
    assert_finite(out)
    # an output below float64's normal range is rounded to its subnormal
    # step once by the forward and once by the reference
    size, step = np.abs(v).max(axis=1, keepdims=True), 2 * np.finfo(np.float64).smallest_subnormal
    room = 1e-13 * size + step
    assert ((v.min(axis=1, keepdims=True) - room <= out) & (out <= v.max(axis=1, keepdims=True) + room)).all()
    f = sample_projection(config.rng, m, c, orthogonal).f
    scale = exponent_scale(f, q, k)
    if 100 * EPS * scale < 1:  # beyond it the bound says nothing
        reference = decimal_forward(f, q, k, v)
        assert (np.abs(out - reference) <= 100 * EPS * max(1.0, scale) * size + step).all()


@contract
@given(st.data(), sizes, sizes, st.integers(1, 8), st.booleans())
def test_phi(data, c, n, m, orthogonal):
    u = data.draw(arrays(c, n))
    out = outcome(phi, sample_projection(RngSpec(data.draw(st.integers(0, 2**32))), m, c, orthogonal), u)
    if out is not None:
        assert_finite(out.values)
        assert ((0.0 <= out.values) & (out.values <= (1 + 4 * EPS) / math.sqrt(m))).all()
        assert math.isfinite(out.log_shift) or not out.values.any()


@contract
@given(st.data(), sizes, st.integers(1, 8), st.booleans())
def test_kernels(data, c, m, orthogonal):
    q, k = data.draw(arrays(2, c))
    rng = RngSpec(data.draw(st.integers(0, 2**32)))
    theory = outcome(kernel_variance_theory, q, k, m)
    assert theory is None or theory == math.inf or (0.0 <= theory < math.inf)
    estimates = outcome(kernel_estimates, q, k, m, 3, rng, orthogonal)
    if estimates is not None:
        assert_finite(estimates)
        assert (estimates >= 0.0).all()
    assert_finite(outcome(kernel_variance_empirical, q, k, m, 3, rng, orthogonal))


@contract
@given(st.data(), sizes, sizes, sizes, sizes)
def test_exact(data, c, n_q, n_k, c_out):
    q = data.draw(arrays(c, n_q))
    k = data.draw(arrays(c, n_k))
    v = data.draw(arrays(c_out, n_k))
    query_index = data.draw(st.integers(0, n_q - 1))
    assert_finite(outcome(exact_attention, q, k, v))
    assert_finite(outcome(attention_weights, q, k))
    assert_finite(outcome(attention_row_entropies, q, k))
    # one query's map and entropy, its column sliced out as corr-map takes it
    assert_finite(outcome(attention_weights, q[:, [query_index]], k))
    assert_finite(outcome(attention_row_entropies, q[:, [query_index]], k))


@contract
@given(st.data(), sizes, sizes, st.integers(2, 12), k_amps)
def test_contrastive(data, c, n_q, n_k, k_amp):
    q = data.draw(arrays(c, n_q))
    k = data.draw(arrays(c, n_k))
    scores = outcome(relevance_scores, q, k, k_amp)
    assert_finite(scores)
    if scores is not None:
        assert (np.abs(scores) <= k_amp).all()
        assert_finite(outcome(contrastive_loss, scores, ContrastiveConfig(n1=0.2, n2=0.5)))
    assert_finite(outcome(reconstruction_loss, k, data.draw(arrays(c, n_k))))


@contract
@given(st.data(), sizes, sizes)
def test_matrices(data, rows, cols):
    a = data.draw(arrays(rows, cols))
    assert_finite(outcome(as_matrix, a))
    assert_finite(outcome(as_vector, a[0]))
    assert_finite(outcome(normalize_columns, a))
    text = io.StringIO()
    outcome(write_matrix_csv, a, text)
    assert np.array_equal(read_matrix_csv(io.StringIO(text.getvalue())), a)
    outcome(export_correlation_pgm, a.ravel(), rows, cols, io.BytesIO())


@contract
@given(st.data(), st.integers(1, 4), st.integers(1, 4), k_amps)
def test_block(data, c_in, n, k_amp):
    x = data.draw(arrays(c_in, n))
    c_embed = data.draw(st.integers(1, c_in))
    weights = [data.draw(arrays(c_in, cols)) for cols in (c_embed, c_embed, c_in)]
    config = EnlaConfig(rng=RngSpec(data.draw(st.integers(0, 2**32))), m=4, k_amp=k_amp)
    params = outcome(EnlcaBlockParams, *weights, config)
    assert_finite(outcome(normalize_and_scale, x, data.draw(arrays(c_in, n + 1)), k_amp))
    if params is not None:
        assert_finite(outcome(block_inputs, x, params))
        assert_finite(outcome(enlca_block, x, params))


def test_every_public_function_is_classified():
    # a public function added later fails here until it is fuzzed above or
    # named as taking no arrays
    modules = (analysis, contrastive, enla, exact, features, matrices, pgm)
    functions = {name for module in modules for name in module.__all__ if inspect.isfunction(getattr(module, name))}
    assert functions == FUZZED | NO_ARRAYS
