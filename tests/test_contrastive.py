import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enlca.contrastive import (
    ContrastiveConfig,
    contrastive_loss,
    reconstruction_loss,
    relevance_scores,
    total_loss,
)
from enlca.enla import normalize_and_scale
from enlca.matrices import NumericError, RngSpec, ShapeError, gaussian_sample

from oracles import naive_contrastive, naive_mean_abs_diff


class TestRelevanceScores:
    def test_same_direction_hits_k_amp(self):
        q = np.array([[1.0], [2.0]])
        k = np.array([[2.0], [4.0]])  # same direction, different length
        t = relevance_scores(q, k, 6.0)
        assert abs(t[0, 0] - 6.0) < 1e-12

    def test_orthogonal_columns_give_zero(self):
        q = np.array([[1.0], [0.0]])
        k = np.array([[0.0], [1.0]])
        assert abs(relevance_scores(q, k, 6.0)[0, 0]) < 1e-15

    def test_positive_scaling_invariance(self):
        q = gaussian_sample(RngSpec(1), 4, 7)
        k = gaussian_sample(RngSpec(2), 4, 7)
        scales = np.abs(gaussian_sample(RngSpec(3), 1, 7)) + 0.1
        base = relevance_scores(q, k, 6.0)
        rescaled = relevance_scores(q * scales, k * (2.0 * scales), 6.0)
        assert np.abs(base - rescaled).max() < 1e-12

    def test_scaling_invariance_ends_at_the_norm_floor(self):
        # a column of norm 5e-13 is divided by 1e-12, not by its norm, so it
        # scores 0.25 against itself; rescaled to norm 0.5 or 2e-12 it is
        # divided by its norm and scores 1
        short = np.array([[3e-13], [4e-13]])
        assert relevance_scores(short, short, 1.0)[0, 0] == 0.25
        assert relevance_scores(short, 1e12 * short, 1.0)[0, 0] == 0.5
        for scale in (1e12, 4.0):
            assert relevance_scores(scale * short, scale * short, 1.0)[0, 0] == 1.0

    @settings(max_examples=25)
    @given(st.integers(0, 2**32), st.floats(1.0, 12.0))
    def test_entries_bounded(self, seed, k_amp):
        q = gaussian_sample(RngSpec(seed), 3, 5)
        k = gaussian_sample(RngSpec(seed, 1), 3, 5)
        t = relevance_scores(q, k, k_amp)
        assert np.abs(t).max() <= k_amp + 1e-9

    def test_squares_past_float_range(self):
        # a column of norm 5e200 is the same direction as one of norm 5
        q = np.array([[3e200, 3.0], [4e200, 4.0]])
        assert np.allclose(relevance_scores(q, q, 6.0), 6.0, rtol=1e-15, atol=0)

    def test_cosine_rounding_past_one_is_clipped(self):
        # this column's cosine with itself rounds to 1 + 2^-52; at the
        # largest k_amp the unclipped score overflowed
        b = np.array([[0.9034701816518086], [0.09401229776087457], [-0.7434992493538084]])
        big = np.finfo(np.float64).max
        assert relevance_scores(b, b, big)[0, 0] == big
        assert relevance_scores(b, -b, big)[0, 0] == -big
        assert relevance_scores(b, b, 6.0)[0, 0] == 6.0

    def test_queries_with_their_own_column_count(self):
        q = gaussian_sample(RngSpec(21), 4, 7)
        k = gaussian_sample(RngSpec(22), 4, 3)
        cols = [5, 0]
        t = relevance_scores(q[:, cols], k, 6.0)
        assert t.shape == (2, 3)
        assert np.array_equal(t, relevance_scores(q, k, 6.0)[cols])

    def test_ties_equation_chain_together(self):
        # Relevance of the normalized/amplified features equals their
        # plain inner products: both express k_amp * cosine.
        theta = gaussian_sample(RngSpec(4), 5, 11)
        delta = gaussian_sample(RngSpec(5), 5, 11)
        q, k = normalize_and_scale(theta, delta, 6.0)
        assert np.abs(relevance_scores(q, k, 6.0) - q.T @ k).max() < 1e-9


class TestContrastiveLoss:
    def test_constant_features_return_margin(self):
        t = np.full((50, 50), 6.0)
        cfg = ContrastiveConfig()
        assert contrastive_loss(t, cfg) == 1.0

    def test_separated_instance_drops_below_margin(self):
        t = relevance_scores(
            gaussian_sample(RngSpec(6), 8, 50), gaussian_sample(RngSpec(7), 8, 50), 6.0
        )
        cfg = ContrastiveConfig()
        assert contrastive_loss(t, cfg) < cfg.b

    def test_matches_scalar_oracle(self):
        for seed in (8, 9, 10):
            t = relevance_scores(
                gaussian_sample(RngSpec(seed), 8, 50),
                gaussian_sample(RngSpec(seed, 1), 8, 50),
                6.0,
            )
            cfg = ContrastiveConfig()
            expected = naive_contrastive(t.tolist(), cfg.n1, cfg.n2, cfg.b)
            assert abs(contrastive_loss(t, cfg) - expected) < 1e-10

    def test_raising_top_scores_lowers_loss(self):
        t = relevance_scores(
            gaussian_sample(RngSpec(11), 8, 50), gaussian_sample(RngSpec(12), 8, 50), 6.0
        )
        cfg = ContrastiveConfig()
        base = contrastive_loss(t, cfg)
        bumped = t.copy()
        row = bumped[0]
        top = np.argsort(row)[::-1][:1]  # P = floor(0.02 * 50) = 1
        row[top] = np.minimum(row[top] + 0.1, 6.0)
        assert contrastive_loss(bumped, cfg) < base

    def test_large_scores_match_shifted(self):
        t = gaussian_sample(RngSpec(20), 50, 50)
        cfg = ContrastiveConfig()
        assert abs(contrastive_loss(t + 800.0, cfg) - contrastive_loss(t, cfg)) < 1e-9

    def test_mean_of_losses_near_float_max(self):
        # five losses of -1e308 sum past float range; their mean does not
        t = np.array([[1e308, 0.0, 0.0, 0.0, -1e308]] * 5)
        assert contrastive_loss(t, ContrastiveConfig(n1=0.2, n2=0.3)) == -1e308

    def test_row_loss_past_float_range_names_row(self):
        # the window mean exp is about e^-1e308 and the top one e^1e308
        t = np.array([[0.0, 0.0], [1e308, -1e308]])
        with pytest.raises(NumericError, match="^contrastive loss overflowed at row 1$"):
            contrastive_loss(t, ContrastiveConfig(n1=0.5, n2=0.5))

    def test_row_permutation_invariance_is_exact(self):
        t = relevance_scores(
            gaussian_sample(RngSpec(13), 6, 25), gaussian_sample(RngSpec(14), 6, 25), 6.0
        )
        cfg = ContrastiveConfig(n1=0.08, n2=0.2)
        shuffled = t.copy()
        gen = RngSpec(15).generator()
        for row in shuffled:
            gen.shuffle(row)
        assert contrastive_loss(t, cfg) == contrastive_loss(shuffled, cfg)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32), st.floats(1.0, 8.0))
    def test_log_ratio_bound(self, seed, k_amp):
        t = relevance_scores(
            gaussian_sample(RngSpec(seed), 4, 40),
            gaussian_sample(RngSpec(seed, 1), 4, 40),
            k_amp,
        )
        cfg = ContrastiveConfig(n1=0.1, n2=0.3)
        loss = contrastive_loss(t, cfg)
        assert cfg.b - 2 * k_amp <= loss <= cfg.b + 2 * k_amp

    def test_empty_top_group_rejected(self):
        with pytest.raises(ShapeError, match=r"N=10.*0\.02"):
            contrastive_loss(np.zeros((10, 10)), ContrastiveConfig())

    def test_config_window_must_fit(self):
        with pytest.raises(ValueError):
            ContrastiveConfig(n1=0.5, n2=0.6)

    def test_config_fraction_bounds(self):
        with pytest.raises(ValueError):
            ContrastiveConfig(n1=0.0)
        with pytest.raises(ValueError):
            ContrastiveConfig(n2=1.0)

    @pytest.mark.parametrize("setting, value", [
        ("n1", "0.1"), ("n2", "0.1"), ("b", "1"), ("b", None), ("n1", True),
    ])
    def test_config_non_number_named(self, setting, value):
        with pytest.raises(ValueError, match=rf"^{setting} must be a real number, got {value!r}$"):
            ContrastiveConfig(**{setting: value})

    def test_config_numpy_numbers_accepted(self):
        assert ContrastiveConfig(n1=np.float64(0.1), b=np.int64(2)).b == 2

    def test_config_margin_must_be_finite(self):
        with pytest.raises(ValueError, match="^b must be finite, got inf$"):
            ContrastiveConfig(b=float("inf"))


class TestReconstructionLoss:
    def test_identical_inputs(self):
        a = gaussian_sample(RngSpec(16), 4, 6)
        assert reconstruction_loss(a, a) == 0.0

    def test_constant_offset(self):
        a = gaussian_sample(RngSpec(17), 4, 6)
        assert abs(reconstruction_loss(a, a + 0.5) - 0.5) < 1e-12

    def test_matches_scalar_oracle(self):
        a = gaussian_sample(RngSpec(18), 5, 9)
        b = gaussian_sample(RngSpec(19), 5, 9)
        assert abs(reconstruction_loss(a, b) - naive_mean_abs_diff(a.tolist(), b.tolist())) < 1e-12

    def test_mean_near_float_max(self):
        # the two differences sum past float range; their mean does not
        assert reconstruction_loss([[1e308, 1e308]], [[0.0, 0.0]]) == 1e308

    def test_differences_past_float_range_with_mean_in_range(self):
        assert reconstruction_loss([[1e308, 0.0]], [[-1e308, 0.0]]) == 1e308

    def test_mean_past_float_range_raises(self):
        with pytest.raises(NumericError, match="^reconstruction loss overflowed$"):
            reconstruction_loss([[1e308, 1e308]], [[-1e308, -1e308]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruction_loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestTotalLoss:
    def test_paper_default_weighting(self):
        assert abs(total_loss(0.1, 1.0, 1e-3) - 0.101) < 1e-15

    def test_zero_weight(self):
        assert total_loss(0.25, 123.0, 0.0) == 0.25

    def test_zero_contrastive(self):
        assert total_loss(0.25, 0.0, 1e-3) == 0.25

    def test_sum_past_float_range_raises(self):
        with pytest.raises(NumericError, match="^total loss overflowed$"):
            total_loss(1e308, 1e308, 1.0)
        with pytest.raises(NumericError, match="^total loss overflowed$"):
            total_loss(np.float64(-1e308), np.float64(-1e308), np.float64(1.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            total_loss(float("inf"), 0.0, 1.0)

    @pytest.mark.parametrize("terms, name, value", [
        (("1", 0.0, 1.0), "rec", "1"), ((0.1, None, 1.0), "cl", None), ((True, 1.0, 1.0), "rec", True),
        ((0.1, 1.0, False), "lambda_cl", False),
    ])
    def test_non_number_named(self, terms, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be a real number, got {value!r}$"):
            total_loss(*terms)

    def test_numpy_numbers_accepted(self):
        assert total_loss(np.float64(0.25), np.int64(2), np.float32(0.5)) == 1.25
