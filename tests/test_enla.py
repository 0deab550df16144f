import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enlca import enla
from enlca.analysis import approximation_error_sweep
from enlca.enla import (
    CHUNK,
    W_MIN,
    EnlaConfig,
    EnlcaBlockParams,
    _Forwards,
    _tiles,
    block_inputs,
    enla_forward,
    enlca_block,
    normalize_and_scale,
    random_block_params,
)
from enlca.exact import _block_rows, attention_row_entropies, exact_attention
from enlca.features import ProjectionMatrix, phi, sample_projection
from enlca.matrices import (
    _UNSHIFTED_MAX, NumericError, RngSpec, ShapeError, _headroom, as_matrix, gaussian_sample, normalize_columns,
)
from oracles import decimal_forward, two_path_forward


def seeded_qkv(seed, c, c_out, n, k_amp=1.0):
    base = RngSpec(seed)
    theta = gaussian_sample(base.stream(1), c, n)
    delta = gaussian_sample(base.stream(2), c, n)
    v = gaussian_sample(base.stream(3), c_out, n)
    q, k = normalize_and_scale(theta, delta, k_amp)
    return q, k, v


def forward_and_reference(c, c_out, n, m, orthogonal, k_amp=6.0):
    """Inputs, config and the two-path reference output."""
    q, k, v = seeded_qkv(50 + n + m, c, c_out, n, k_amp)
    config = EnlaConfig(rng=RngSpec(51), m=m, k_amp=k_amp, orthogonal=orthogonal)
    f = sample_projection(config.rng, m, c, orthogonal).f
    reference, _ = two_path_forward(f, q, k, v)
    return q, k, v, config, reference


def prefix_forwards(q, k, v, config, ms):
    """The output at each sample count in ms from config's projection of
    ms[-1] rows, through the one instance set-up the sweep builds."""
    forwards = _Forwards(q, k, v, ms)
    return forwards.project(sample_projection(config.rng, ms[-1], forwards.c, config.orthogonal).f)


def four_by_nine(k_amp):
    """A 4 x 9 instance at m = 8. Under one key shift S for all rows, as in
    the forward before its per-row shifts, float64 held its normalizers up
    to k_amp 1e5 and lost one of them at k_amp 1e6."""
    base = RngSpec(2)
    theta, delta, v = (gaussian_sample(base.stream(i), 4, 9) for i in (1, 2, 3))
    q, k = normalize_and_scale(theta, delta, k_amp)
    return q, k, v, EnlaConfig(rng=RngSpec(0), m=8, k_amp=k_amp)


def decimal_error(out, config, q, k, v):
    """The largest difference of out from the 60-digit decimal reference,
    over the reference's largest entry and in units of eps * E, with E the
    largest |f_l . u - |u|^2 / 2| over the columns u of q and k: the size of
    the exponents whose rounding the forward cannot avoid. Per output
    column."""
    return projection_decimal_error(out, sample_projection(config.rng, config.m, q.shape[0], config.orthogonal).f,
                                    q, k, v)


def projection_decimal_error(out, f, q, k, v):
    """decimal_error for the projection rows f."""
    reference = decimal_forward(f, q, k, v)
    scale = max(float(np.abs(f @ u - 0.5 * (u * u).sum(axis=0)).max()) for u in (q, k))
    return np.abs(out - reference).max(axis=0) / (np.abs(reference).max() * np.finfo(np.float64).eps * scale)


class TestNormalizeAndScale:
    def test_norm_five_column_becomes_two(self):
        theta = np.array([[3.0], [4.0]])  # norm 5
        q, _ = normalize_and_scale(theta, theta, 4.0)
        assert abs(np.linalg.norm(q[:, 0]) - 2.0) < 1e-12

    def test_all_columns_have_sqrt_k_norm(self):
        theta = gaussian_sample(RngSpec(1), 5, 12)
        delta = gaussian_sample(RngSpec(2), 5, 12)
        q, k = normalize_and_scale(theta, delta, 6.0)
        assert np.abs(np.linalg.norm(q, axis=0) - np.sqrt(6.0)).max() < 1e-12
        assert np.abs(np.linalg.norm(k, axis=0) - np.sqrt(6.0)).max() < 1e-12

    @settings(max_examples=30)
    @given(st.integers(0, 2**32), st.floats(1.0, 16.0))
    def test_inner_products_bounded_by_k_amp(self, seed, k_amp):
        theta = gaussian_sample(RngSpec(seed), 4, 6)
        delta = gaussian_sample(RngSpec(seed, 1), 4, 6)
        q, k = normalize_and_scale(theta, delta, k_amp)
        assert np.abs(q.T @ k).max() <= k_amp + 1e-9

    def test_zero_column_stays_zero(self):
        theta = np.zeros((3, 2))
        theta[:, 1] = [1.0, 2.0, 2.0]
        q, _ = normalize_and_scale(theta, theta, 6.0)
        assert np.array_equal(q[:, 0], np.zeros(3))

    def test_squares_past_float_range(self):
        theta = np.array([[3e200, 3.0], [4e200, 4.0]])
        q, k = normalize_and_scale(theta, theta, 4.0)
        assert np.allclose(q, [[1.2, 1.2], [1.6, 1.6]], rtol=1e-15, atol=0)
        assert np.array_equal(q, k)

    def test_shape_mismatch(self):
        # each input is checked alone, under its own name
        with pytest.raises(ShapeError, match="^delta output must be 2-D, got ndim=1$"):
            normalize_and_scale(np.zeros((2, 3)), np.zeros(3), 2.0)

    def test_inputs_with_their_own_shapes(self):
        theta = gaussian_sample(RngSpec(3), 5, 7)
        delta = gaussian_sample(RngSpec(4), 2, 3)
        q, k = normalize_and_scale(theta, delta, 6.0)
        assert np.array_equal(q, normalize_and_scale(theta, theta, 6.0)[0])
        assert np.array_equal(k, normalize_and_scale(delta, delta, 6.0)[1])


class TestEnlaForward:
    def test_single_position_returns_values(self):
        q, k, v = seeded_qkv(5, c=6, c_out=4, n=1)
        out = enla_forward(q, k, v, EnlaConfig(rng=RngSpec(9), m=64, k_amp=1.0))
        assert np.abs(out - v).max() < 1e-12 * max(1.0, np.abs(v).max())

    def test_zero_features_give_uniform_mixing(self):
        v = gaussian_sample(RngSpec(10), 5, 9)
        out = enla_forward(
            np.zeros((4, 9)), np.zeros((4, 9)), v, EnlaConfig(rng=RngSpec(11), m=128, k_amp=1.0)
        )
        expected = np.repeat(v.mean(axis=1, keepdims=True), 9, axis=1)
        assert np.abs(out - expected).max() < 1e-12

    def test_converges_to_exact_oracle(self):
        q, k, v = seeded_qkv(12, c=8, c_out=8, n=64)
        exact = exact_attention(q, k, v)
        approx = enla_forward(q, k, v, EnlaConfig(rng=RngSpec(13), m=4096, k_amp=1.0))
        rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert rel < 0.05

    def test_linear_in_values(self):
        q, k, _ = seeded_qkv(14, c=5, c_out=5, n=20)
        v1 = gaussian_sample(RngSpec(15), 3, 20)
        v2 = gaussian_sample(RngSpec(16), 3, 20)
        config = EnlaConfig(rng=RngSpec(17), m=32, k_amp=1.0)
        combined = enla_forward(q, k, 2.0 * v1 - 0.5 * v2, config)
        separate = 2.0 * enla_forward(q, k, v1, config) - 0.5 * enla_forward(q, k, v2, config)
        assert np.abs(combined - separate).max() < 1e-9

    def test_outputs_stay_in_value_hull(self):
        q, k, v = seeded_qkv(18, c=4, c_out=6, n=30, k_amp=6.0)
        out = enla_forward(q, k, v, EnlaConfig(rng=RngSpec(19), m=64))
        lo = v.min(axis=1, keepdims=True) - 1e-9
        hi = v.max(axis=1, keepdims=True) + 1e-9
        assert (out >= lo).all() and (out <= hi).all()

    def test_joint_key_value_permutation_invariance(self):
        q, k, v = seeded_qkv(20, c=5, c_out=5, n=24)
        config = EnlaConfig(rng=RngSpec(21), m=48, k_amp=1.0)
        perm = RngSpec(22).generator().permutation(24)
        base = enla_forward(q, k, v, config)
        permuted = enla_forward(q, k[:, perm], v[:, perm], config)
        assert np.abs(base - permuted).max() < 1e-10

    def test_errors_decrease_with_m(self):
        sweep = approximation_error_sweep(
            n=48, c=6, c_out=6, m_list=[16, 64, 256, 1024, 4096], k_amp=1.0,
            trials=16, rng=RngSpec(23),
        )
        errs = sweep.column("value")
        assert all(hi >= lo for hi, lo in zip(errs, errs[1:]))

    def test_amplification_sharpens_every_row(self):
        base = RngSpec(24)
        theta = gaussian_sample(base.stream(1), 6, 40)
        delta = gaussian_sample(base.stream(2), 6, 40)
        q1, k1 = normalize_and_scale(theta, delta, 1.0)
        q6, k6 = normalize_and_scale(theta, delta, 6.0)
        sharp = attention_row_entropies(q6, k6)
        flat = attention_row_entropies(q1, k1)
        assert (sharp <= flat + 1e-12).all()

    def test_shape_validation(self):
        config = EnlaConfig(rng=RngSpec(0))
        with pytest.raises(ShapeError):
            enla_forward(np.zeros((3, 4)), np.zeros((2, 4)), np.zeros((3, 4)), config)
        with pytest.raises(ShapeError):
            enla_forward(np.zeros((3, 4)), np.zeros((3, 4)), np.zeros((2, 5)), config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnlaConfig(rng=RngSpec(0), m=0)
        with pytest.raises(ValueError):
            EnlaConfig(rng=RngSpec(0), k_amp=0.5)
        # the forward has no normalizer floor to set
        with pytest.raises(TypeError):
            EnlaConfig(rng=RngSpec(0), epsilon=1e-12)


class TestTwoPathReference:
    """The single-GEMM forward against the unstabilized reference that
    computes the numerator and the normalizer separately."""

    @pytest.mark.parametrize("orthogonal", [False, True])
    @pytest.mark.parametrize("c, c_out, n, m", [
        (8, 8, 64, 128),   # typical
        (6, 4, 1, 32),     # N = 1
        (6, 4, 40, 1),     # m = 1
        (5, 1, 30, 16),    # c_out = 1
    ])
    def test_matches_reference(self, c, c_out, n, m, orthogonal):
        q, k, v, config, reference = forward_and_reference(c, c_out, n, m, orthogonal)
        out = enla_forward(q, k, v, config)
        assert out.shape == reference.shape
        assert np.abs(out - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_query_column_whose_exponents_all_underflow(self):
        # at norm 42, max_l f_l . q - |q|^2 / 2 is about -789: every
        # exp(f_l . q - |q|^2 / 2) underflows, yet the column has an output
        q, k, v = seeded_qkv(1, c=16, c_out=3, n=40)
        q[:, 0] *= 42.0 / np.linalg.norm(q[:, 0])
        config = EnlaConfig(rng=RngSpec(1), m=64)
        f = sample_projection(config.rng, 64, 16).f
        assert (f @ q[:, 0] - 0.5 * q[:, 0] @ q[:, 0]).max() < -746
        reference, _ = two_path_forward(f, q, k, v)
        out = enla_forward(q, k, v, config)
        assert (np.abs(out - reference).max(axis=0) <= 1e-12 * np.abs(reference).max(axis=0)).all()

    @pytest.mark.parametrize("k_amp", [1.0, 1e6, 1e60])
    def test_every_normalizer_at_least_one(self, k_amp):
        # the unstabilized normalizers of the 4 x 9 instance underflow from
        # k_amp 1e6 on; the forward's, in the units each chunk computed, hold
        # a term exp(0) times a key sum of at least 1 at every prefix
        q, k, v, config = four_by_nine(k_amp)
        f = sample_projection(config.rng, config.m, 4).f
        with np.errstate(all="ignore"):
            unstabilized = two_path_forward(f, q, k, v)[1]
        assert (unstabilized > 0).all() == (k_amp == 1.0)
        outputs = prefix_forwards(q, k, v, config, [2, 3, 6, 8])
        assert len(outputs) == 4
        for out in outputs:
            # the normalizer row lies just below the output's rows, in one
            # (c_out + 1) x N block
            d = np.lib.stride_tricks.as_strided(out, (out.shape[0] + 1, out.shape[1]))[-1]
            assert (d >= 1.0 - 1e-15).all() and np.isfinite(d).all()


class TestDecimalReference:
    """The forward against a 60-digit decimal evaluation of the same
    estimator with the same projection: within 100 eps E, with E the
    largest |f_l . u - |u|^2 / 2| over q and k, at every amplification up
    to 1e8 (and at 1e60, where that bound is loose)."""

    @staticmethod
    def check(q, k, v, config):
        assert decimal_error(enla_forward(q, k, v, config), config, q, k, v).max() <= 100

    @pytest.mark.parametrize("k_amp", [100.0, 900.0, 1e4, 1e5, 1e6, 1e8])
    def test_four_by_nine(self, k_amp):
        self.check(*four_by_nine(k_amp))

    def test_four_by_nine_at_k_amp_1e60(self):
        # the exponents reach about 5e59 nats, so 100 eps E is loose by
        # construction here; the reference must still mix each value row
        q, k, v, config = four_by_nine(1e60)
        reference = decimal_forward(sample_projection(config.rng, config.m, 4).f, q, k, v)
        assert np.isfinite(reference).all()
        assert ((v.min(axis=1, keepdims=True) <= reference) & (reference <= v.max(axis=1, keepdims=True))).all()
        self.check(q, k, v, config)

    def test_twenty_columns_at_k_amp_900(self):
        q, k, v, config, _ = forward_and_reference(4, 3, 20, 16, False, k_amp=900.0)
        self.check(q, k, v, config)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 8), st.integers(1, 3), st.booleans(),
           st.floats(0.0, 8.0), st.integers(0, 2**32))
    def test_tiny_instances(self, c, n, m, c_out, orthogonal, log_k_amp, seed):
        k_amp = 10.0 ** log_k_amp
        q, k, v = seeded_qkv(seed, c, c_out, n, k_amp)
        self.check(q, k, v, EnlaConfig(rng=RngSpec(seed, 4), m=m, k_amp=k_amp, orthogonal=orthogonal))


class TestAdversarialNorms:
    """One column of extreme norm must not corrupt the other outputs. At
    c=8, N=64, m=4096 and unit norms, the median relative error of the
    outputs against the exact oracle is 0.044; a float loss reads 1.0."""

    @staticmethod
    def other_columns_error(side, scale):
        q, k, v = seeded_qkv(3, c=8, c_out=8, n=64)
        (q if side == "q" else k)[:, 0] *= scale
        exact = exact_attention(q, k, v)
        out = enla_forward(q, k, v, EnlaConfig(rng=RngSpec(4), m=4096, k_amp=1.0))
        rel = np.linalg.norm(out - exact, axis=0) / np.linalg.norm(exact, axis=0)
        return float(np.median(rel[1:]))

    @pytest.mark.parametrize("scale", [8.0, 30.0])
    def test_query_column(self, scale):
        assert self.other_columns_error("q", scale) < 0.06

    def test_key_column(self):
        # exp(|q + k|^2) in the variance law raises the spread to about 0.14
        assert self.other_columns_error("k", 30.0) < 0.3


class TestChunkLoop:
    """The forward against the unstabilized two-path reference when the
    positions fill one chunk, just miss it, or spill into later ones."""

    @pytest.mark.parametrize("orthogonal", [False, True])
    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    def test_matches_reference(self, n, orthogonal):
        q, k, v = seeded_qkv(70, c=4, c_out=3, n=n, k_amp=2.0)
        k = k * np.linspace(0.1, 1.1, n)
        config = EnlaConfig(rng=RngSpec(71), m=16, k_amp=2.0, orthogonal=orthogonal)
        f = sample_projection(config.rng, 16, 4, orthogonal).f
        # keys (with their values) in ascending order of their largest
        # exponent, so every later chunk raises the key shift
        exponent = f @ k - 0.5 * (k * k).sum(axis=0)
        order = np.argsort(exponent.max(axis=0))
        k, v, exponent = k[:, order], v[:, order], exponent[:, order]
        shifts = [exponent[:, s:s + CHUNK].max() for s in range(0, n, CHUNK)]
        assert all(a < b for a, b in zip(shifts, shifts[1:]))
        reference, _ = two_path_forward(f, q, k, v)
        out = enla_forward(q, k, v, config)
        assert np.abs(out - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_every_key_norm_overflows(self):
        # every |k|^2 / 2 is inf, so every key feature is 0 and no key sum
        # is left to divide by
        q, _, v = seeded_qkv(72, c=4, c_out=3, n=20)
        k = np.full((4, 20), 1e155)
        with pytest.raises(NumericError, match="^every key's squared norm overflowed$"):
            enla_forward(q, k, v, EnlaConfig(rng=RngSpec(73), m=16))

    def test_first_chunk_key_norms_overflow(self):
        # the key shift stays -inf through the first chunk, then turns
        # finite; the overflowing keys get weight 0 as in the reference
        n = CHUNK + 5
        q, k, v = seeded_qkv(74, c=4, c_out=3, n=n)
        k[:, :CHUNK] = 1e155
        config = EnlaConfig(rng=RngSpec(75), m=16, k_amp=1.0)
        f = sample_projection(config.rng, 16, 4).f
        with np.errstate(over="ignore"):
            reference, _ = two_path_forward(f, q, k, v)
        out = enla_forward(q, k, v, config)
        assert np.abs(out - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("side", ["q", "k"])
    def test_projection_overflow_names_global_column(self, side):
        bad = CHUNK + 5
        q, k, v = seeded_qkv(76, c=4, c_out=3, n=CHUNK + 8)
        (q if side == "q" else k)[:, bad] = 1e308
        with pytest.raises(NumericError, match=f"column {bad}$"):
            enla_forward(q, k, v, EnlaConfig(rng=RngSpec(77), m=64))

    def test_query_projections_all_underflow(self):
        # every f_l . q_0 overflows to -inf: that column has no finite
        # shift and no feature to weigh the keys with
        q, k, v = seeded_qkv(78, c=4, c_out=3, n=6)
        config = EnlaConfig(rng=RngSpec(79), m=1, k_amp=1.0)
        f = sample_projection(config.rng, 1, 4).f
        assert np.abs(f).sum() > 2.0
        q[:, 0] = -1e308 * np.sign(f[0])
        with pytest.raises(NumericError, match="^every projection of query column 0 is -inf$"):
            enla_forward(q, k, v, config)

    def test_key_projections_all_underflow(self):
        # every f_l . k_0 overflows to -inf and |k_0|^2 / 2 to inf: key 0
        # gets weight 0, and the other keys mix as if it were absent
        q, k, v = seeded_qkv(78, c=4, c_out=3, n=6)
        config = EnlaConfig(rng=RngSpec(79), m=1, k_amp=1.0)
        f = sample_projection(config.rng, 1, 4).f
        k[:, 0] = -1e308 * np.sign(f[0])
        out = enla_forward(q, k, v, config)
        expected, _ = two_path_forward(f, q, k[:, 1:], v[:, 1:])
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_key_norms_far_above_projections(self):
        # at norm 1e30, |k_j|^2 / 2 = 5e59 dwarfs F k_j: the rounding of the
        # exponents alone is about 1e44 nats, so no output can be accurate,
        # but each must be a convex mix of its value row
        base = RngSpec(2)
        theta, delta, v = (gaussian_sample(base.stream(i), 4, 9) for i in (1, 2, 3))
        q, k = normalize_and_scale(theta, delta, 1e60)
        out = enla_forward(q, k, v, EnlaConfig(rng=base.stream(5), m=8))
        assert np.isfinite(out).all()
        assert ((v.min(axis=1, keepdims=True) <= out) & (out <= v.max(axis=1, keepdims=True))).all()
        assert np.isfinite(exact_attention(q, k, v)).all()


class TestPrefixForwards:
    """Every sample count as a row prefix of one projection, against
    enla_forward at that count: the first prefix bit for bit, the later
    ones to rounding."""

    @pytest.mark.parametrize("ms, seed", [([1, 2, 3], 81), ([16, 32, 64, 128], 95)])
    def test_matches_forward_at_each_m(self, ms, seed):
        n = 2 * CHUNK + 3
        q, k, v = seeded_qkv(seed, c=4, c_out=3, n=n, k_amp=2.0)
        k = k * np.linspace(0.1, 1.1, n)
        rng = RngSpec(seed + 100)
        f = sample_projection(rng, ms[-1], 4).f
        # keys in ascending order of their largest first-segment exponent,
        # so every later chunk raises the key shift; on this seed every
        # later segment raises it again
        exponent = f @ k - 0.5 * (k * k).sum(axis=0)
        order = np.argsort(exponent[:ms[0]].max(axis=0))
        k, v, exponent = k[:, order], v[:, order], exponent[:, order]
        chunk_shifts = [exponent[:ms[0], s:s + CHUNK].max() for s in range(0, n, CHUNK)]
        prefix_shifts = [exponent[:m].max() for m in ms]
        assert all(a < b for a, b in zip(chunk_shifts, chunk_shifts[1:]))
        assert all(a < b for a, b in zip(prefix_shifts, prefix_shifts[1:]))
        self.check(q, k, v, EnlaConfig(rng=rng, m=ms[-1], k_amp=2.0), ms)

    def test_matches_forward_and_reference_at_k_amp_1e6(self):
        # under one key shift for all rows these prefixes lost 0, 1, 3 and 1
        # of the 9 normalizers; with a shift per row each is exact to rounding
        q, k, v, config = four_by_nine(1e6)
        ms = [2, 3, 6, 8]
        for m, out in zip(ms, self.check(q, k, v, config, ms)):
            assert decimal_error(out, replace(config, m=m), q, k, v).max() <= 100

    @staticmethod
    def check(q, k, v, config, ms):
        """Each prefix output against enla_forward at its m, the first bit
        for bit; returns the outputs."""
        outputs = prefix_forwards(q, k, v, config, ms)
        assert len(outputs) == len(ms)
        for i, (m, out) in enumerate(zip(ms, outputs)):
            expected = enla_forward(q, k, v, replace(config, m=m))
            if i == 0:
                assert np.array_equal(out, expected)
            else:
                assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()
        return outputs

    def test_query_chunk_turns_shifted_in_later_segment(self, monkeypatch):
        # column 3 lies along a row of the second segment, where its exponent
        # F q + s passes B; on the first segment every column of its chunk
        # is in [0, B]. So the chunk runs raw, then shifted, rescaling the
        # first segment's sums from shift 0
        query_flags = []
        exp_features = enla._exp_features

        def recorded(block, top, raw):
            if top.ndim == 1:  # one max per column: a query chunk
                query_flags.append(raw)
            return exp_features(block, top, raw)
        monkeypatch.setattr(enla, "_exp_features", recorded)
        ms, n = [16, 32], CHUNK + 5
        q, k, v = seeded_qkv(114, c=256, c_out=3, n=n)
        config = EnlaConfig(rng=RngSpec(115), m=32)
        f = sample_projection(config.rng, 32, 256).f
        shift, bound = key_shifts(f, k), _headroom(32 * n)
        row = 16 + int(np.argmax(np.linalg.norm(f[16:], axis=1)))
        q[:, 3] = f[row] * ((bound + 1.0 - shift[row]) / (f[row] @ f[row]))
        exponent = f @ q[:, :CHUNK] + shift[:, None]
        first = exponent[:16].max(axis=0)
        assert 0 <= first.min() and first.max() <= bound < exponent[16:, 3].max()
        prefix_forwards(q, k, v, config, ms)
        # chunk 0 raw then shifted, chunk 1 raw in both segments
        assert query_flags == [True, False, True, True]
        self.check(q, k, v, config, ms)

    def test_every_key_norm_overflows(self):
        # the key shifts stay -inf through the first segment, which names
        # the failure before any output
        q, _, v = seeded_qkv(72, c=4, c_out=3, n=20)
        k = np.full((4, 20), 1e155)
        with pytest.raises(NumericError, match="^every key's squared norm overflowed$"):
            prefix_forwards(q, k, v, EnlaConfig(rng=RngSpec(73), m=16), [8, 16])

    def test_first_chunk_key_norms_overflow(self):
        n = CHUNK + 5
        q, k, v = seeded_qkv(74, c=4, c_out=3, n=n)
        k[:, :CHUNK] = 1e155
        config = EnlaConfig(rng=RngSpec(75), m=16, k_amp=1.0)
        for m, out in zip([8, 16], prefix_forwards(q, k, v, config, [8, 16])):
            expected = enla_forward(q, k, v, replace(config, m=m))
            assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_query_shift_rising_from_minus_inf(self):
        # f_0 . q_0 overflows to -inf while f_1 . q_0 is finite and hugely
        # negative: the first prefix has no shift for column 0 and names it,
        # so no later segment rescales from -inf; at m = 2 the column mixes
        # the values by f_1 alone
        q, k, v = seeded_qkv(80, c=4, c_out=3, n=6)
        config = EnlaConfig(rng=RngSpec(60), m=2, k_amp=1.0)
        f = sample_projection(config.rng, 2, 4).f
        q[:, 0] = -1e308 * f[0] / np.abs(f[0]).max()
        with np.errstate(over="ignore"):
            top = f @ q[:, 0]
        assert top[0] == -np.inf and -1.8e308 < top[1] < -1e307
        with pytest.raises(NumericError, match="^every projection of query column 0 is -inf$"):
            prefix_forwards(q, k, v, config, [1, 2])
        out = enla_forward(q, k, v, config)
        exponent = f[1] @ k - 0.5 * (k * k).sum(axis=0)
        weights = np.exp(exponent - exponent.max())
        assert np.isfinite(out).all()
        assert np.abs(out[:, 0] - v @ weights / weights.sum()).max() <= 1e-13 * np.abs(v).max()

    @pytest.mark.parametrize("side", ["q", "k"])
    def test_projection_overflow_names_global_column(self, side):
        bad = CHUNK + 5
        q, k, v = seeded_qkv(76, c=4, c_out=3, n=CHUNK + 8)
        (q if side == "q" else k)[:, bad] = 1e308
        with pytest.raises(NumericError, match=f"column {bad}$"):
            prefix_forwards(q, k, v, EnlaConfig(rng=RngSpec(77), m=64), [16, 64])



def recorded_raw_flags(monkeypatch):
    """The raw flag of every chunk's _exp_features call, keys first."""
    flags = []
    exp_features = enla._exp_features

    def recorded(block, top, raw):
        flags.append(raw)
        return exp_features(block, top, raw)
    monkeypatch.setattr(enla, "_exp_features", recorded)
    return flags


def key_shifts(f, k):
    """Each projection row's key shift s_l = max_i (f_l . k_i - |k_i|^2 / 2)."""
    return (f @ k - 0.5 * (k * k).sum(axis=0)).max(axis=1)


class TestShiftBoundaries:
    """Chunks whose maxima sit at either end of the range in which a chunk
    skips its shift pass, with U = matrices._UNSHIFTED_MAX: a query chunk's
    column maxima of F q + s in [0, U], a key chunk's row maxima of
    F k - |k|^2 / 2 in [-U, U]; and extreme values. Against the two-path
    reference: outputs to 1e-12."""

    def check(self, out, f, q, k, v):
        expected, _ = two_path_forward(f, q, k, v)
        assert np.isfinite(expected).all()
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()

    def check_forward(self, q, k, v, config):
        f = sample_projection(config.rng, config.m, q.shape[0], config.orthogonal).f
        self.check(enla_forward(q, k, v, config), f, q, k, v)

    @pytest.mark.parametrize("orthogonal", [False, True])
    @pytest.mark.parametrize("side", ["q", "k"])
    def test_column_max_just_below_zero(self, side, orthogonal):
        # m = c makes F invertible: as a query, u = F^-1 (-1e-6 - s) has
        # every exponent F u + s just below 0, in a chunk whose other columns
        # are in range; as a key, u = F^-1 (-1e-6, ..., -1e-6)
        q, k, v = seeded_qkv(110, c=16, c_out=3, n=CHUNK + 5)
        config = EnlaConfig(rng=RngSpec(111), m=16, orthogonal=orthogonal)
        f = sample_projection(config.rng, 16, 16, orthogonal).f
        shift = key_shifts(f, k) if side == "q" else 0.0
        u = np.linalg.solve(f, -1e-6 - shift * np.ones(16))
        assert -2e-6 < (f @ u + shift).max() < 0
        (q if side == "q" else k)[:, 3] = u
        self.check_forward(q, k, v, config)

    def test_key_projections_far_below_zero(self):
        # every key is F^-1 (-708, ..., -708): its weight
        # exp(-|k|^2 / 2 - S) would be e^708, past float range once
        # multiplied by a value above 2.3; identical keys mix uniformly
        q, _, v = seeded_qkv(120, c=16, c_out=3, n=40)
        config = EnlaConfig(rng=RngSpec(121), m=16)
        f = sample_projection(config.rng, 16, 16).f
        k = np.repeat(np.linalg.solve(f, np.full(16, -708.0))[:, None], 40, axis=1)
        out = enla_forward(q, k, 10.0 * v, config)
        expected = np.repeat(10.0 * v.mean(axis=1, keepdims=True), 40, axis=1)
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("offset", [-1e-9, 1e-9])
    @pytest.mark.parametrize("side", ["q", "k"])
    def test_column_max_at_upper_bound(self, side, offset):
        # a column along the longest projection row, scaled so that its
        # largest exponent, F u + s as a query, F u as a key, sits just below
        # or just above the bound; at c = 256 its real exponent is still
        # about 145, inside float range
        q, k, v = seeded_qkv(112, c=256, c_out=3, n=CHUNK + 5)
        config = EnlaConfig(rng=RngSpec(113), m=16)
        f = sample_projection(config.rng, 16, 256).f
        shift = key_shifts(f, k) if side == "q" else np.zeros(16)
        norms = np.linalg.norm(f, axis=1)
        row = int(np.argmax(norms))
        u = f[row] * ((_UNSHIFTED_MAX * (1 + offset) - shift[row]) / norms[row] ** 2)
        assert ((f @ u + shift).max() > _UNSHIFTED_MAX) == (offset > 0)
        (q if side == "q" else k)[:, 3] = u
        self.check_forward(q, k, v, config)

    @pytest.mark.parametrize("offset", [-1e-9, 1e-9])
    @pytest.mark.parametrize("edge", [-1.0, 1.0])
    def test_key_row_max_at_bound(self, monkeypatch, edge, offset):
        # m = 1 and c = 1024, so that |f|^2 / 2 passes U: every key is
        # t f / |f| with t |f| - t^2 / 2 just inside or outside -U or U. The
        # one key chunk runs raw exactly inside, and identical keys mix the
        # values uniformly on either path
        raw_flags = recorded_raw_flags(monkeypatch)
        q, _, v = seeded_qkv(126, c=1024, c_out=3, n=40)
        config = EnlaConfig(rng=RngSpec(127), m=1)
        f = sample_projection(config.rng, 1, 1024).f
        norm = float(np.linalg.norm(f))
        target = edge * _UNSHIFTED_MAX * (1 + offset)
        t = norm - np.sqrt(norm ** 2 - 2 * target)
        k = np.repeat(f.T * (t / norm), 40, axis=1)
        exponent = float((f @ k - 0.5 * (k * k).sum(axis=0)).max())
        assert (abs(exponent) > _UNSHIFTED_MAX) == (offset > 0)
        out = enla_forward(q, k, v, config)
        assert raw_flags[0] == (offset < 0)
        assert np.abs(out - v.mean(axis=1, keepdims=True)).max() <= 1e-12 * np.abs(v).max()

    @pytest.mark.parametrize("side", ["q", "k"])
    def test_column_leaves_range_in_later_segment(self, side):
        # the column's projections stay in [0, U] on the first 16 rows and
        # pass U on the next 16: its chunk skips the shift in the first
        # segment and needs it in the second
        ms = [16, 32]
        q, k, v = seeded_qkv(114, c=256, c_out=3, n=CHUNK + 5)
        config = EnlaConfig(rng=RngSpec(115), m=32)
        f = sample_projection(config.rng, 32, 256).f
        norms = np.linalg.norm(f[16:], axis=1)
        row = 16 + int(np.argmax(norms))
        u = f[row] * (_UNSHIFTED_MAX * (1 + 1e-9) / norms[row - 16] ** 2)
        assert 0 <= (f[:16] @ u).max() < _UNSHIFTED_MAX < (f[16:] @ u).max()
        (q if side == "q" else k)[:, 3] = u
        for m, out in zip(ms, prefix_forwards(q, k, v, config, ms)):
            self.check(out, f[:m], q, k, v)

    @pytest.mark.parametrize("orthogonal", [False, True])
    def test_values_near_float_max(self, orthogonal):
        # values of about 1e300 leave the sums little headroom, and the
        # first 8 queries lie along the 8 longest projection rows, where
        # exp(F q) alone reaches 1e9; the output is linear in v, so the
        # reference runs on v / 1e300
        q, k, v = seeded_qkv(116, c=32, c_out=3, n=2 * CHUNK + 3, k_amp=8.0)
        v = 1e300 * np.abs(v)
        config = EnlaConfig(rng=RngSpec(117), m=64, orthogonal=orthogonal)
        f = sample_projection(config.rng, 64, 32, orthogonal).f
        longest = np.argsort(np.linalg.norm(f, axis=1))[-8:]
        q[:, :8] = np.sqrt(8.0) * normalize_columns(f[longest].T)
        assert (f @ q).max() > 20
        self.check(enla_forward(q, k, v, config) / 1e300, f, q, k, v / 1e300)


class TestValueScale:
    """Each value row enters the forward scaled by an exact power of two
    2^-e_r, max|v_r| 2^-e_r in [0.5, 1), and is scaled back after the
    divide: values at either end of float range give finite outputs, those
    of the values scaled into range to rounding, with no RuntimeWarning."""

    @staticmethod
    def reference(config, q, k, v, scale):
        """The two-path output on v / scale, times scale."""
        f = sample_projection(config.rng, config.m, q.shape[0], config.orthogonal).f
        return scale * two_path_forward(f, q, k, v / scale)[0]

    @staticmethod
    def assert_close(out, expected):
        assert np.isfinite(out).all()
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_two_values_at_float_max_in_one_row(self):
        q, k, v = seeded_qkv(1, c=4, c_out=3, n=64)
        v[0, :2] = 1.7e308
        config = EnlaConfig(rng=RngSpec(1).stream(4), m=16)
        out = enla_forward(q, k, v, config)
        assert np.isfinite(out).all()
        self.assert_close(out[:1], self.reference(config, q, k, v[:1], 1e308))
        assert np.isfinite(exact_attention(q, k, v)).all()

    @pytest.mark.parametrize("scale, k_amp", [(1e307, 1.0), (1e307, 12.0), (1e-307, 12.0)])
    def test_extreme_values_match_scaled_values(self, scale, k_amp):
        # at k_amp 12 the key weights reach e^-30: a weight times 2^-e, or
        # the normalizer times 2^-e, would leave the normal range
        q, k, v = seeded_qkv(7, c=16, c_out=3, n=2 * CHUNK + 3, k_amp=k_amp)
        v = scale * (1.0 + np.abs(v))
        config = EnlaConfig(rng=RngSpec(7).stream(4), m=64)
        self.assert_close(enla_forward(q, k, v, config), self.reference(config, q, k, v, scale))

    def test_prefix_forwards_near_float_max(self):
        q, k, v = seeded_qkv(7, c=16, c_out=3, n=2 * CHUNK + 3)
        v = 1e307 * (1.0 + np.abs(v))
        config = EnlaConfig(rng=RngSpec(7).stream(4), m=64)
        for m, out in zip([16, 64], prefix_forwards(q, k, v, config, [16, 64])):
            self.assert_close(out, self.reference(replace(config, m=m), q, k, v, 1e307))

    def test_each_row_keeps_its_own_scale(self):
        # a row of about 1e-100 next to one of about 1e300: one power of two
        # for both would take the small row below the subnormals
        q, k, v = seeded_qkv(7, c=16, c_out=2, n=2 * CHUNK + 3, k_amp=6.0)
        v = (1.0 + np.abs(v)) * np.array([[1e300], [1e-100]])
        config = EnlaConfig(rng=RngSpec(8), m=64)
        for both, alone in ((enla_forward(q, k, v, config), enla_forward(q, k, v[1:], config)),
                            (exact_attention(q, k, v), exact_attention(q, k, v[1:]))):
            self.assert_close(both[1:], alone)

    def test_constant_values_at_float_max(self):
        q, k, _ = seeded_qkv(8, c=4, c_out=2, n=8)
        out = enla_forward(q, k, np.full((2, 8), 1.5e308), EnlaConfig(rng=RngSpec(9), m=16))
        assert np.abs(out / 1.5e308 - 1.0).max() <= 1e-12


class TestUnshiftedPath:
    """Unit columns amplified by a moderate k_amp at m >= 16 have every
    column max of F u in [0, U], so no chunk may take the shifted path."""

    @pytest.fixture
    def no_shift(self, monkeypatch):
        exp_features = enla._exp_features

        def raw_only(block, top, raw):
            assert raw, "a chunk took the shifted path"
            return exp_features(block, top, raw)
        monkeypatch.setattr(enla, "_exp_features", raw_only)

    @pytest.mark.parametrize("orthogonal", [False, True])
    @pytest.mark.parametrize("k_amp", [1.0, 6.0])
    @pytest.mark.parametrize("m", [32, 128])
    def test_forward(self, no_shift, m, k_amp, orthogonal):
        q, k, v = seeded_qkv(122, c=16, c_out=3, n=2 * CHUNK + 3, k_amp=k_amp)
        config = EnlaConfig(rng=RngSpec(123), m=m, orthogonal=orthogonal)
        f = sample_projection(config.rng, m, 16, orthogonal).f
        reference, _ = two_path_forward(f, q, k, v)
        out = enla_forward(q, k, v, config)
        assert np.abs(out - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("k_amp", [1.0, 6.0])
    def test_prefix_forwards(self, no_shift, k_amp):
        q, k, v = seeded_qkv(124, c=16, c_out=3, n=2 * CHUNK + 3, k_amp=k_amp)
        config = EnlaConfig(rng=RngSpec(125), m=128)
        f = sample_projection(config.rng, 128, 16).f
        for m, out in zip([32, 64, 128], prefix_forwards(q, k, v, config, [32, 64, 128])):
            reference, _ = two_path_forward(f[:m], q, k, v)
            assert np.abs(out - reference).max() <= 1e-12 * np.abs(reference).max()


def cross_qkv(seed, c, c_out, n_q, n_k, k_amp=1.0):
    """seeded_qkv's q on n_q columns, against its k and v on n_k."""
    q, _, _ = seeded_qkv(seed, c, c_out, n_q, k_amp)
    _, k, v = seeded_qkv(seed, c, c_out, n_k, k_amp)
    return q, k, v


class TestCrossShapes:
    """N_q queries against N_k keys, the oracle's contract: the per-query
    and per-key feature maps tie neither count to the other."""

    @pytest.mark.parametrize("orthogonal", [False, True])
    @pytest.mark.parametrize("n_q, n_k", [(1, 9), (9, 1), (CHUNK + 3, 5), (5, CHUNK + 3)])
    def test_against_two_path_reference(self, n_q, n_k, orthogonal):
        q, k, v = cross_qkv(130, c=8, c_out=3, n_q=n_q, n_k=n_k, k_amp=6.0)
        config = EnlaConfig(rng=RngSpec(131), m=64, orthogonal=orthogonal)
        f = sample_projection(config.rng, 64, 8, orthogonal).f
        reference, _ = two_path_forward(f, q, k, v)
        out = enla_forward(q, k, v, config)
        assert out.shape == (3, n_q)
        assert np.abs(out - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_prefix_forwards(self):
        q, k, v = cross_qkv(132, c=8, c_out=3, n_q=CHUNK + 3, n_k=7)
        config = EnlaConfig(rng=RngSpec(133), m=64)
        f = sample_projection(config.rng, 64, 8).f
        for m, out in zip([16, 64], prefix_forwards(q, k, v, config, [16, 64])):
            reference, _ = two_path_forward(f[:m], q, k, v)
            assert np.abs(out - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("offset", [-1e-9, 1e-9])
    @pytest.mark.parametrize("side", ["q", "k"])
    @pytest.mark.parametrize("n_q, n_k", [(3, 5), (5, 2)])
    def test_column_max_at_headroom(self, monkeypatch, n_q, n_k, side, offset):
        # TestShiftBoundaries' column along the longest projection row, its
        # largest exponent just inside or outside B = _headroom(m N_k), the
        # bound of a query's m N_k terms; against the decimal reference
        q, k, v = cross_qkv(134, c=256, c_out=2, n_q=n_q, n_k=n_k)
        config = EnlaConfig(rng=RngSpec(135), m=16)
        f = sample_projection(config.rng, 16, 256).f
        bound = _headroom(config.m * n_k)
        shift = key_shifts(f, k) if side == "q" else np.zeros(16)
        norms = np.linalg.norm(f, axis=1)
        row = int(np.argmax(norms))
        u = f[row] * ((bound * (1 + offset) - shift[row]) / norms[row] ** 2)
        assert ((f @ u + shift).max() > bound) == (offset > 0)
        (q if side == "q" else k)[:, 1] = u
        raw_flags = recorded_raw_flags(monkeypatch)
        out = enla_forward(q, k, v, config)
        if side == "q":
            assert raw_flags[-1] == (offset < 0)
        assert decimal_error(out, config, q, k, v).max() <= 100

    @pytest.mark.parametrize("n_k", [5, 2 * CHUNK + 3])
    @pytest.mark.parametrize("width", [1, 3, 8, 16, 40])
    def test_query_columns(self, monkeypatch, width, n_k):
        # no query chunk takes the shifted path, so each output column is
        # its query's alone. Bit for bit where the GEMMs take one kernel:
        # OpenBLAS rounds the 1-4 columns left over from its groups of 8
        # in another, so narrower or ragged samples agree to rounding
        q, k, v = cross_qkv(136, c=16, c_out=3, n_q=CHUNK + 5, n_k=n_k, k_amp=6.0)
        config = EnlaConfig(rng=RngSpec(137), m=64)
        cols = RngSpec(136).stream(9).generator().choice(CHUNK + 5, width, replace=False)
        raw_flags = recorded_raw_flags(monkeypatch)
        full = enla_forward(q, k, v, config)
        sampled = enla_forward(q[:, cols], k, v, config)
        assert all(raw_flags)
        if width % 8 == 0:
            assert np.array_equal(sampled, full[:, cols])
        assert np.abs(sampled - full[:, cols]).max() <= 1e-14 * np.abs(v).max()

    @pytest.mark.parametrize("n_k", [5, 2 * CHUNK + 3])
    @pytest.mark.parametrize("width", [8, 16, 40])
    def test_query_columns_across_query_chunks(self, monkeypatch, width, n_k):
        # at m = 128 the query chunks are W_q = 456 wide, a multiple of 8, so
        # a sample spanning several of them still agrees bit for bit
        rows, chunk = _tiles(16, 3, 128)
        assert (rows, chunk) == (128, 456)
        n_q = 3 * chunk + 5
        q, k, v = cross_qkv(136, c=16, c_out=3, n_q=n_q, n_k=n_k, k_amp=6.0)
        config = EnlaConfig(rng=RngSpec(137), m=128)
        cols = RngSpec(136).stream(10).generator().choice(n_q, width, replace=False)
        assert len(set(cols // chunk)) >= 2
        raw_flags = recorded_raw_flags(monkeypatch)
        full = enla_forward(q, k, v, config)
        sampled = enla_forward(q[:, cols], k, v, config)
        assert all(raw_flags)
        assert np.array_equal(sampled, full[:, cols])

    def test_query_columns_when_a_left_out_column_shifts(self, monkeypatch):
        # column 1 passes U and shifts its chunk in the full forward; the
        # sampled columns run raw
        q, k, v = cross_qkv(138, c=256, c_out=3, n_q=40, n_k=9)
        config = EnlaConfig(rng=RngSpec(139), m=16)
        f = sample_projection(config.rng, 16, 256).f
        norms = np.linalg.norm(f, axis=1)
        row = int(np.argmax(norms))
        q[:, 1] = f[row] * (2 * _UNSHIFTED_MAX / norms[row] ** 2)
        raw_flags = recorded_raw_flags(monkeypatch)
        full = enla_forward(q, k, v, config)
        assert raw_flags[-1] is False
        cols = [0, 2, 39]
        sampled = enla_forward(q[:, cols], k, v, config)
        assert raw_flags[-1] is True
        assert np.abs(sampled - full[:, cols]).max() <= 1e-14 * np.abs(v).max()

    @pytest.mark.parametrize("side, n_q, n_k, col", [
        ("q", 3, 5, 1), ("k", 3, 5, 2), ("q", CHUNK + 3, 5, CHUNK + 1), ("k", 5, CHUNK + 3, CHUNK + 1),
    ])
    def test_overflow_names_its_side(self, side, n_q, n_k, col):
        q, k, v = cross_qkv(140, c=2, c_out=1, n_q=n_q, n_k=n_k)
        (q if side == "q" else k)[:, col] = 1e308
        name = "query" if side == "q" else "key"
        with pytest.raises(NumericError, match=f"^phi overflowed after stabilization at {name} column {col}$"):
            enla_forward(q, k, v, EnlaConfig(rng=RngSpec(141), m=16))

    def test_phi_keeps_its_message(self):
        u = np.array([[1.0, 1e308], [1.0, 1e308]])
        with pytest.raises(NumericError, match="^phi overflowed after stabilization at column 1$"):
            phi(sample_projection(RngSpec(141), 16, 2), u)


def recorded_tiles(monkeypatch):
    """The rows of every block the forward projects, as ("key" or "query",
    rows), in call order."""
    tiles = []
    projected = enla._projected

    def recorded(f, u, out, axis=0):
        tiles.append(("key" if axis == 1 else "query", out.shape[0]))
        return projected(f, u, out, axis)
    monkeypatch.setattr(enla, "_projected", recorded)
    return tiles


class TestRowTiles:
    """Row segments of more than R rows run as tiles of at most R rows, and
    each pass's chunks are W columns wide, (R, W) = _tiles(c, c_out, m): the
    key pass's at m = 1, fixed by the channel counts alone, and the query
    pass's at m = m_1."""

    R = _tiles(16, 16, 1)[0]

    # 19 and 20 channels straddle the fallback, and 487 and 488 the width at
    # which one row stops fitting a whole CHUNK, which only the fallback
    # keeps at CHUNK
    CHANNELS = [(16, 16), (8, 8), (16, 3), (3, 16), (1, 1), (19, 3), (3, 19), (19, 19), (20, 3), (3, 20),
                (20, 20), (32, 3), (64, 64), (256, 3), (487, 3), (487, 487), (488, 3), (3, 488)]

    def test_rule(self):
        # at m = 1 the rule gives the key pass's shape: R rows of CHUNK
        # columns, the most that keep the GEMMs on OpenBLAS's small-matrix
        # path, which also keeps the transposed kv GEMM within its limit;
        # fewer than 24 rows and the segments stay whole
        for c, c_out in self.CHANNELS:
            key_rows = 10**6 // (CHUNK * (max(c, c_out) + 1))
            assert _tiles(c, c_out, 1) == ((None, CHUNK) if key_rows < 24 else (key_rows, CHUNK))
            assert key_rows * (c_out + 1) <= 1200
        assert _tiles(19, 19, 1) == (24, CHUNK) and _tiles(20, 20, 1) == (None, CHUNK)
        assert self.R == 28 and _tiles(16, 16, 1) == (28, 2048)
        assert _tiles(8, 8, 1) == (54, 2048)
        assert _tiles(256, 3, 1) == (None, CHUNK)

    def test_query_rule(self):
        # the query pass's chunks are the widest multiple of 8 in [W_MIN,
        # CHUNK] at which m rows keep its GEMMs on the small-matrix path,
        # and its tiles as many rows as that width allows; where the key
        # pass keeps whole segments, so does the query pass
        assert W_MIN % 8 == 0
        for c, c_out in self.CHANNELS:
            depth = max(c, c_out) + 1
            key_rows = 10**6 // (CHUNK * depth)
            for m in [1, 2, 16, 64, 128, 129, 229, 230, 512, 4096]:
                width = max([w for w in range(W_MIN, CHUNK + 1, 8) if m * w * depth <= 10**6], default=W_MIN)
                rows = 10**6 // (width * depth)
                expected = (None, CHUNK) if key_rows < 24 else (rows, width)
                assert _tiles(c, c_out, m) == expected
                if expected[0] is not None:
                    assert rows >= key_rows >= 24
                    assert rows * width * depth <= 10**6 and width % 8 == 0 and W_MIN <= width <= CHUNK
        # the approximation sweep's first prefix keeps the key pass's tiles,
        # forward_large's m takes one query tile per chunk, and wide
        # channels keep whole segments: 16 rows would fit at c = 256 and W = 240
        assert _tiles(8, 8, 16) == (54, 2048) == _tiles(8, 8, 1)
        assert _tiles(16, 16, 128) == (128, 456)
        assert _tiles(256, 3, 16) == (None, CHUNK)

    @pytest.mark.parametrize("c", [32, 64])
    @pytest.mark.parametrize("wide_values", [False, True])
    def test_wide_channels_get_one_tile(self, monkeypatch, c, wide_values):
        c_out = c if wide_values else 3
        assert _tiles(c, c_out, 1)[0] is None
        tiles = recorded_tiles(monkeypatch)
        q, k, v = seeded_qkv(150, c=c, c_out=c_out, n=CHUNK + 5)
        enla_forward(q, k, v, EnlaConfig(rng=RngSpec(151), m=128))
        assert tiles == [("key", 128)] * 2 + [("query", 128)] * 2

    def test_first_prefix_spanning_tiles(self, monkeypatch):
        # m_1 = 2R + 3 ends mid-tile; enla_forward(m_1) cuts it into the
        # same tiles, so the two agree bit for bit
        ms = [2 * self.R + 3, 128]
        n = CHUNK + 5
        q, k, v = seeded_qkv(152, c=16, c_out=16, n=n, k_amp=2.0)
        k = k * np.linspace(0.1, 1.1, n)
        tiles = recorded_tiles(monkeypatch)
        TestPrefixForwards.check(q, k, v, EnlaConfig(rng=RngSpec(153), m=128, k_amp=2.0), ms)
        # the key pass of both chunks, through both segments' tiles
        segment_tiles = [self.R, self.R, 3, self.R, self.R, 128 - ms[0] - 2 * self.R]
        assert tiles[:2 * len(segment_tiles)] == [("key", rows) for rows in 2 * segment_tiles]

    def test_query_chunk_turns_shifted_in_later_tile(self, monkeypatch):
        # m = 2 R_q clamps W_q at W_MIN, so the one segment has two query
        # tiles. Column 3 lies along a row of the second, where its exponent
        # F q + s passes B; on the first every column is in [0, B]. So the
        # segment runs its first tile raw and its second shifted, rescaling
        # the first tile's sums from shift 0
        rows = _tiles(16, 3, CHUNK)[0]
        m = 2 * rows
        assert _tiles(16, 3, m) == (rows, W_MIN)
        q, k, v = seeded_qkv(154, c=16, c_out=3, n=9)
        config = EnlaConfig(rng=RngSpec(155), m=m)
        f = sample_projection(config.rng, m, 16).f
        shift, bound = key_shifts(f, k), _headroom(m * 9)
        row = rows + int(np.argmax(np.linalg.norm(f[rows:], axis=1)))
        q[:, 3] = f[row] * ((bound + 1.0 - shift[row]) / (f[row] @ f[row]))
        exponent = f @ q + shift[:, None]
        first = exponent[:rows].max(axis=0)
        assert 0 <= first.min() and first.max() <= bound < exponent[rows:, 3].max()
        raw_flags = recorded_raw_flags(monkeypatch)
        out = enla_forward(q, k, v, config)
        assert raw_flags[-2:] == [True, False]
        assert decimal_error(out, config, q, k, v).max() <= 100

    @pytest.mark.parametrize("orthogonal", [False, True])
    @pytest.mark.parametrize("m", [1, R - 1, R, R + 1])
    def test_matches_reference_around_one_tile(self, m, orthogonal):
        q, k, v, config, reference = forward_and_reference(16, 16, CHUNK + 3, m, orthogonal)
        out = enla_forward(q, k, v, config)
        assert np.abs(out - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("finite_tile", [True, False])
    def test_query_column_minus_inf_on_early_tiles(self, monkeypatch, finite_tile):
        # f_l . q_0 overflows to -inf on the first two query tiles (m clamps
        # W_q at W_MIN). With a third tile on which it is finite, column 0
        # mixes the values by that tile's rows, all equal to g, alone;
        # without it the column is named
        rows = _tiles(2, 3, CHUNK)[0]
        assert _tiles(2, 3, 2 * rows + 4) == (rows, W_MIN)
        f = np.tile([2.0, 0.0], (2 * rows + 4, 1))
        if finite_tile:
            f[2 * rows:, 0] = 0.5
        monkeypatch.setattr(enla, "sample_projection", lambda rng, m, c, orthogonal: ProjectionMatrix(f, False))
        q, k, v = seeded_qkv(156, c=2, c_out=3, n=40)
        q[0, 0], q[1, 0] = -1e308, 0.0
        config = EnlaConfig(rng=RngSpec(157), m=2 * rows + 4)
        if not finite_tile:
            with pytest.raises(NumericError, match="^every projection of query column 0 is -inf$"):
                enla_forward(q, k, v, config)
            return
        out = enla_forward(q, k, v, config)
        exponent = 0.5 * k[0] - 0.5 * (k * k).sum(axis=0)
        weights = np.exp(exponent - exponent.max())
        assert np.isfinite(out).all()
        assert np.abs(out[:, 0] - v @ weights / weights.sum()).max() <= 1e-13 * np.abs(v).max()


class TestMiniatureTiles:
    """The forward's loop at miniature chunks and tiles, against the
    60-digit decimal reference. With CHUNK, W_MIN, _MIN_TILE_ROWS and
    _SMALL_GEMM_MNK at 16, 8, 2 and 300, `_tiles` gives chunks of 8 to 16
    columns and tiles of 4 to 18 rows, so instances small enough for the
    reference cross chunks, tiles and row segments in both passes. One key
    or query column is scaled by up to 1e150, which shifts its chunks."""

    MINIATURE = [("CHUNK", 16), ("W_MIN", 8), ("_MIN_TILE_ROWS", 2), ("_SMALL_GEMM_MNK", 300)]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 44), st.integers(1, 44),
           st.lists(st.integers(1, 13), min_size=1, max_size=3), st.floats(0.0, 3.0), st.sampled_from("qk"),
           st.integers(0, 43), st.one_of(st.just(0.0), st.floats(0.0, 150.0)), st.booleans(), st.integers(0, 2**32))
    def test_prefixes_match_decimal_reference(self, c, c_out, n_q, n_k, segments, log_k_amp, side, col, log_scale,
                                              orthogonal, seed):
        ms = np.cumsum(segments).tolist()
        q, k, v = cross_qkv(seed, c, c_out, n_q, n_k, 10.0 ** log_k_amp)
        u = q if side == "q" else k
        u[:, col % u.shape[1]] *= 10.0 ** log_scale
        f = sample_projection(RngSpec(seed, 4), ms[-1], c, orthogonal).f
        with pytest.MonkeyPatch.context() as patch:
            for name, value in self.MINIATURE:
                patch.setattr(enla, name, value)
            assert all(8 <= _tiles(c, c_out, m)[1] <= 16 for m in (1, ms[0]))
            outputs = _Forwards(q, k, v, ms).project(f)
        for m, out in zip(ms, outputs):
            assert projection_decimal_error(out, f[:m], q, k, v).max() <= 100


class TestProjectionIsolation:
    """One instance set-up serves any number of projections: what a
    projection leaves in it (its lifted rows and key shifts) never reaches
    the next, and each projection's outputs are its own."""

    def test_unshifted_projection_after_shifted_one(self, monkeypatch):
        # A's rows are 1e3 times B's, so A's exponents pass the headroom as
        # at k_amp 1e6: every chunk A computes is shifted, every chunk B
        # computes raw. The first chunk's keys have |k|^2 past float range,
        # so each key pass starts from a key shift of -inf
        n, ms = 2 * CHUNK + 3, [8, 16]
        q, k, v = seeded_qkv(160, c=4, c_out=3, n=n)
        k[:, :CHUNK] = 1e155
        b = sample_projection(RngSpec(161), ms[-1], 4).f
        flags = recorded_raw_flags(monkeypatch)
        alone = _Forwards(q, k, v, ms).project(b)
        assert flags and all(flags)
        forwards = _Forwards(q, k, v, ms)
        del flags[:]
        shifted = forwards.project(1e3 * b)
        assert flags and not any(flags)
        kept = [out.copy() for out in shifted]
        after = forwards.project(b)
        for out, expected in zip(after, alone):
            assert np.array_equal(out, expected)
        for out, expected in zip(shifted, kept):
            assert np.array_equal(out, expected)


class TestInPlaceSafety:
    """The forward writes its temporaries in place; none of that may reach
    the caller's arrays, which as_matrix passes through uncopied."""

    @staticmethod
    def snapshot(*arrays):
        for a in arrays:
            assert np.shares_memory(as_matrix(a), a)
        return [a.tobytes() for a in arrays]

    def test_phi_leaves_input_untouched(self):
        projection = sample_projection(RngSpec(60), 32, 5)
        u = gaussian_sample(RngSpec(61), 5, 17)
        before = self.snapshot(u, projection.f)
        phi(projection, u)
        assert [u.tobytes(), projection.f.tobytes()] == before

    def test_forward_leaves_inputs_untouched(self):
        # at k_amp 1e6 the chunks are shifted in place too
        q, k, v, config = four_by_nine(1e6)
        before = self.snapshot(q, k, v)
        enla_forward(q, k, v, config)
        assert [q.tobytes(), k.tobytes(), v.tobytes()] == before

    def test_block_leaves_inputs_untouched(self):
        x = gaussian_sample(RngSpec(64), 7, 15)
        params = random_block_params(RngSpec(65), 7, 3, EnlaConfig(rng=RngSpec(66), m=16))
        weights = (params.w_theta, params.w_delta, params.w_psi)
        before = self.snapshot(x, *weights)
        enlca_block(x, params)
        assert [a.tobytes() for a in (x, *weights)] == before


@pytest.mark.parametrize("n", [7, 2049])
def test_outputs_start_on_a_cache_line(n):
    q, k, v = seeded_qkv(70, c=4, c_out=3, n=n)
    config = EnlaConfig(rng=RngSpec(71), m=8)
    outputs = [enla_forward(q, k, v, config), *prefix_forwards(q, k, v, config, [2, 5, 8])]
    assert [out.ctypes.data % 64 for out in outputs] == [0] * 4


def test_forward_peak_memory_is_one_feature_matrix():
    # keys and queries stream through one R x CHUNK feature buffer, R =
    # _tiles(c, c, 1)[0] = 54 rows of the m, and the queries' (c + 1) x CHUNK
    # product buffer, so the peak is those plus O((c + c_out) N), the output
    # and its normalizer row, (c_out + 1) x N, plus O((c + c_out) m): the
    # lifted projection, kv, and the key shifts, row maxima, leads and
    # shares of kv that a key chunk sets for every row at once
    n, c, m = 4 * CHUNK, 8, 256
    q, k, v = seeded_qkv(67, c=c, c_out=c, n=n, k_amp=6.0)
    config = EnlaConfig(rng=RngSpec(68), m=m)
    tracemalloc.start()
    try:
        enla_forward(q, k, v, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * ((_tiles(c, c, 1)[0] + c + 1) * CHUNK + (2 * c + 1) * n + (4 * c + 7) * m)


def test_working_block_fits_each_pass_to_its_own_side():
    # 40 000 queries against 100 keys at forward_large's channels: the key
    # layout needs 62 rows of 100 columns and the query layout 162 rows of
    # 456, so the one block the set-up keeps is 0.59 MB; a key layout of
    # 2048 columns, sized by the queries, would make it 1.02 MB
    q, k, v = cross_qkv(72, c=16, c_out=16, n_q=40_000, n_k=100)
    tracemalloc.start()
    try:
        forwards = _Forwards(q, k, v, [128])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert forwards.n_q == 40_000 and held <= 0.6e6


def test_oracle_peak_memory_is_one_block():
    # at the approximation sweep's shape the oracle's weights stream
    # through one block of _block_rows x N, so the peak is that block plus
    # O((c + c_out) N): the c_out x N output and numpy's 64 KB ufunc buffer
    n, c = 2048, 8
    q, k, v = seeded_qkv(69, c=c, c_out=c, n=n)
    tracemalloc.start()
    try:
        exact_attention(q, k, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (_block_rows(n, c, c) * n + 2 * (c + c) * n)


class TestEnlcaBlock:
    def test_zero_value_map_is_identity(self):
        x = gaussian_sample(RngSpec(30), 10, 25)
        config = EnlaConfig(rng=RngSpec(31), m=32)
        params = EnlcaBlockParams(
            w_theta=gaussian_sample(RngSpec(32), 10, 4),
            w_delta=gaussian_sample(RngSpec(33), 10, 4),
            w_psi=np.zeros((10, 10)),
            config=config,
        )
        assert np.array_equal(enlca_block(x, params), x)

    def test_single_position(self):
        x = gaussian_sample(RngSpec(34), 7, 1)
        params = random_block_params(RngSpec(35), c_in=7, c_embed=3,
                                     config=EnlaConfig(rng=RngSpec(36), m=16))
        out = enlca_block(x, params)
        expected = x + params.w_psi.T @ x
        assert np.abs(out - expected).max() < 1e-12

    def test_block_tracks_exact_attention(self):
        # k_amp=1 keeps the estimator variance small enough for a tight
        # oracle comparison; amplified variance growth is covered by the
        # variance-law tests.
        x = gaussian_sample(RngSpec(37), 16, 36)
        config = EnlaConfig(rng=RngSpec(38), m=2048, k_amp=1.0)
        params = random_block_params(RngSpec(39), c_in=16, c_embed=4, config=config)
        q, k = normalize_and_scale(params.w_theta.T @ x, params.w_delta.T @ x, config.k_amp)
        reference = x + exact_attention(q, k, params.w_psi.T @ x)
        out = enlca_block(x, params)
        rel = np.linalg.norm(out - reference) / np.linalg.norm(reference)
        assert rel < 0.05

    def test_residual_overflow_is_named(self):
        # the forward is finite, x + forward is not
        params = random_block_params(RngSpec(0), 1, 1, EnlaConfig(rng=RngSpec(0), m=4, k_amp=1.0))
        with pytest.raises(NumericError, match=r"^block output has a non-finite entry at \(0, 0\)$"):
            enlca_block(np.array([[1e308, 1e308]]), params)

    def test_embedding_overflow_is_named(self):
        # w_delta is -1.77 here, so the delta embedding of 1.5e308 overflows
        params = random_block_params(RngSpec(0), 1, 1, EnlaConfig(rng=RngSpec(0), m=4, k_amp=1.0))
        with pytest.raises(NumericError, match=r"^delta output has a non-finite entry at \(0, 0\)$"):
            block_inputs(np.array([[1.5e308, 1.0]]), params)

    @pytest.mark.parametrize("name", ["theta", "value"])
    def test_other_embedding_overflow_is_named(self, name):
        # only the embedding whose weight is 4 overflows at 1.5e308
        w = {key: np.array([[4.0 if key == name else 0.5]]) for key in ("theta", "delta", "value")}
        params = EnlcaBlockParams(w_theta=w["theta"], w_delta=w["delta"], w_psi=w["value"],
                                  config=EnlaConfig(rng=RngSpec(0), m=4, k_amp=1.0))
        with pytest.raises(NumericError, match=rf"^{name} output has a non-finite entry at \(0, 0\)$"):
            block_inputs(np.array([[1.5e308, 1.0]]), params)

    def test_output_shape_matches_input(self):
        x = gaussian_sample(RngSpec(40), 9, 14)
        params = random_block_params(RngSpec(41), 9, 5, EnlaConfig(rng=RngSpec(42), m=8))
        assert enlca_block(x, params).shape == x.shape

    def test_embed_wider_than_input_rejected(self):
        with pytest.raises(ShapeError):
            EnlcaBlockParams(
                w_theta=np.zeros((4, 5)),
                w_delta=np.zeros((4, 5)),
                w_psi=np.zeros((4, 4)),
                config=EnlaConfig(rng=RngSpec(0)),
            )

    def test_value_weights_must_be_square(self):
        with pytest.raises(ShapeError, match=r"^w_psi must be 4x4, got \(4, 3\)$"):
            EnlcaBlockParams(
                w_theta=np.zeros((4, 2)),
                w_delta=np.zeros((4, 2)),
                w_psi=np.zeros((4, 3)),
                config=EnlaConfig(rng=RngSpec(0)),
            )

    def test_channel_mismatch_rejected(self):
        params = random_block_params(RngSpec(43), 6, 3, EnlaConfig(rng=RngSpec(44)))
        with pytest.raises(ShapeError):
            enlca_block(np.zeros((5, 4)), params)
        with pytest.raises(ShapeError):
            block_inputs(np.zeros((5, 4)), params)

    @pytest.mark.parametrize("orthogonal", [False, True])
    def test_is_residual_forward_over_block_inputs(self, orthogonal):
        x = gaussian_sample(RngSpec(45), 9, 2 * CHUNK + 5)
        config = EnlaConfig(rng=RngSpec(46), m=16, orthogonal=orthogonal)
        params = random_block_params(RngSpec(47), 9, 4, config)
        expected = x + enla_forward(*block_inputs(x, params), params.config)
        assert np.array_equal(enlca_block(x, params), expected)
