import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enlca.analysis import approximation_error_sweep
from enlca.enla import (
    EnlaConfig,
    EnlcaBlockParams,
    NormalizerUnderflowWarning,
    enla_forward,
    enlca_block,
    normalize_and_scale,
    random_block_params,
)
from enlca.exact import attention_row_entropies, exact_attention
from enlca.features import phi, sample_projection
from enlca.matrices import RngSpec, ShapeError, as_matrix, column_norms, gaussian_sample
from oracles import two_path_forward


def seeded_qkv(seed, c, c_out, n, k_amp=1.0):
    base = RngSpec(seed)
    theta = gaussian_sample(base.stream(1), c, n)
    delta = gaussian_sample(base.stream(2), c, n)
    v = gaussian_sample(base.stream(3), c_out, n)
    q, k = normalize_and_scale(theta, delta, k_amp)
    return q, k, v


class TestNormalizeAndScale:
    def test_norm_five_column_becomes_two(self):
        theta = np.array([[3.0], [4.0]])  # norm 5
        q, _ = normalize_and_scale(theta, theta, 4.0)
        assert abs(np.linalg.norm(q[:, 0]) - 2.0) < 1e-12

    def test_all_columns_have_sqrt_k_norm(self):
        theta = gaussian_sample(RngSpec(1), 5, 12)
        delta = gaussian_sample(RngSpec(2), 5, 12)
        q, k = normalize_and_scale(theta, delta, 6.0)
        assert np.abs(column_norms(q) - np.sqrt(6.0)).max() < 1e-12
        assert np.abs(column_norms(k) - np.sqrt(6.0)).max() < 1e-12

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
        q, _ = normalize_and_scale(theta, theta, 6.0, epsilon=1e-12)
        assert np.array_equal(q[:, 0], np.zeros(3))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            normalize_and_scale(np.zeros((2, 3)), np.zeros((2, 4)), 2.0)


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
        exact = exact_attention(q, k, v).y
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
        errs = sweep.values()
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

    def test_normalizer_floor_warns(self):
        q, k, v = seeded_qkv(25, c=4, c_out=3, n=8)
        config = EnlaConfig(rng=RngSpec(26), m=16, k_amp=1.0, epsilon=1e3)
        with pytest.warns(NormalizerUnderflowWarning):
            enla_forward(q, k, v, config)

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
        with pytest.raises(ValueError):
            EnlaConfig(rng=RngSpec(0), epsilon=0.0)


class TestTwoPathReference:
    """The single-GEMM forward against the unstabilized reference that
    computes the numerator and the normalizer separately."""

    @staticmethod
    def forward_and_reference(c, c_out, n, m, orthogonal, k_amp=6.0, epsilon=1e-12):
        """Inputs, config and the reference output; the reference normalizer
        comes back in phi's stabilized units, where epsilon applies: the
        exact one times exp(-(log_shift(q) + log_shift(k)))."""
        q, k, v = seeded_qkv(50 + n + m, c, c_out, n, k_amp)
        config = EnlaConfig(rng=RngSpec(51), m=m, k_amp=k_amp, orthogonal=orthogonal,
                            epsilon=epsilon)
        f = sample_projection(config.rng, m, c, orthogonal).f
        reference, normalizer = two_path_forward(f, q, k, v)
        stabilized = normalizer * np.exp(-((f @ q).max() + (f @ k).max()))
        return q, k, v, config, reference, stabilized

    @pytest.mark.parametrize("orthogonal", [False, True])
    @pytest.mark.parametrize("c, c_out, n, m", [
        (8, 8, 64, 128),   # typical
        (6, 4, 1, 32),     # N = 1
        (6, 4, 40, 1),     # m = 1
        (5, 1, 30, 16),    # c_out = 1
    ])
    def test_matches_reference(self, c, c_out, n, m, orthogonal):
        q, k, v, config, reference, _ = self.forward_and_reference(c, c_out, n, m, orthogonal)
        out = enla_forward(q, k, v, config)
        assert out.shape == reference.shape
        assert np.abs(out - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_floor_count_matches_reference_normalizer(self):
        # an epsilon halfway between two reference normalizers splits the
        # positions unambiguously; the forward must floor exactly those
        _, _, _, _, _, normalizer = self.forward_and_reference(4, 3, 20, 16, False, k_amp=1.0)
        ordered = np.sort(normalizer)
        gap = int(np.argmax(np.diff(ordered[5:15]))) + 5
        epsilon = float(0.5 * (ordered[gap] + ordered[gap + 1]))
        q, k, v, config, _, _ = self.forward_and_reference(4, 3, 20, 16, False, k_amp=1.0,
                                                           epsilon=epsilon)
        floored = int((normalizer < epsilon).sum())
        with pytest.warns(NormalizerUnderflowWarning) as caught:
            enla_forward(q, k, v, config)
        assert str(caught[0].message) == (
            f"{floored} normalizer entries below epsilon={epsilon} were floored"
        )


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
        q, k, v = seeded_qkv(62, c=5, c_out=3, n=19, k_amp=6.0)
        before = self.snapshot(q, k, v)
        # a huge epsilon also exercises the in-place normalizer floor
        with pytest.warns(NormalizerUnderflowWarning):
            enla_forward(q, k, v, EnlaConfig(rng=RngSpec(63), m=16, epsilon=1e6))
        enla_forward(q, k, v, EnlaConfig(rng=RngSpec(63), m=16))
        assert [q.tobytes(), k.tobytes(), v.tobytes()] == before

    def test_block_leaves_inputs_untouched(self):
        x = gaussian_sample(RngSpec(64), 7, 15)
        params = random_block_params(RngSpec(65), 7, 3, EnlaConfig(rng=RngSpec(66), m=16))
        weights = (params.w_theta, params.w_delta, params.w_psi)
        before = self.snapshot(x, *weights)
        enlca_block(x, params)
        assert [a.tobytes() for a in (x, *weights)] == before


def test_forward_peak_memory_is_one_feature_matrix():
    # phi(K) is reduced to m x (c_out + 1) and freed before phi(Q) exists,
    # so the peak is one m x N float64 matrix plus O((c + c_out) N)
    n, c, m = 8192, 8, 64
    q, k, v = seeded_qkv(67, c=c, c_out=c, n=n, k_amp=6.0)
    config = EnlaConfig(rng=RngSpec(68), m=m)
    tracemalloc.start()
    try:
        enla_forward(q, k, v, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * m * n


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
        q, k = normalize_and_scale(params.w_theta.T @ x, params.w_delta.T @ x,
                                   config.k_amp, config.epsilon)
        reference = x + exact_attention(q, k, params.w_psi.T @ x).y
        out = enlca_block(x, params)
        rel = np.linalg.norm(out - reference) / np.linalg.norm(reference)
        assert rel < 0.05

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

    def test_channel_mismatch_rejected(self):
        params = random_block_params(RngSpec(43), 6, 3, EnlaConfig(rng=RngSpec(44)))
        with pytest.raises(ShapeError):
            enlca_block(np.zeros((5, 4)), params)
