import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enlca import features
from enlca.features import (
    _TRIAL_BLOCK,
    ProjectionMatrix,
    _orthogonal_rows,
    _projection_blocks,
    kernel_estimates,
    kernel_exact,
    kernel_variance_empirical,
    kernel_variance_theory,
    phi,
    sample_projection,
)
from enlca.matrices import NumericError, RngSpec, ShapeError, gaussian_sample
from oracles import block_gram_schmidt, philox_gaussian, projection_estimate, stream_estimates


B = _TRIAL_BLOCK
BLOCK_TRIALS = [1, B - 1, B, B + 1, 2 * B + 3]
WRAPPING_ID = 2**64 - 20


def unit_vector(c, scale=1.0):
    u = np.zeros(c)
    u[0] = scale
    return u


class TestSampleProjection:
    def test_deterministic(self):
        spec = RngSpec(17, 3)
        a = sample_projection(spec, 6, 9, orthogonal=True)
        b = sample_projection(spec, 6, 9, orthogonal=True)
        assert np.array_equal(a.f, b.f)

    def test_iid_matches_plain_gaussian_stream(self):
        spec = RngSpec(21)
        assert np.array_equal(sample_projection(spec, 5, 4).f, gaussian_sample(spec, 5, 4))

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    @pytest.mark.parametrize("m", [1, 5, 6, 40])
    def test_iid_projection_is_row_prefix_of_larger_draw(self, seed, m):
        # the approximation-error sweep evaluates every sample count as a
        # row prefix of one draw; c = 6 puts m at 1, c - 1, c and M = 40
        spec = RngSpec(seed, 3)
        assert np.array_equal(sample_projection(spec, m, 6).f, sample_projection(spec, 40, 6).f[:m])

    def test_orthogonal_rows_m_below_c(self):
        proj = sample_projection(RngSpec(1), 4, 8, orthogonal=True)
        gram = proj.f @ proj.f.T
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-9

    def test_orthogonal_blocks_m_above_c(self):
        proj = sample_projection(RngSpec(2), 12, 4, orthogonal=True)
        for start in range(0, 12, 4):
            block = proj.f[start:start + 4]
            gram = block @ block.T
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() < 1e-9

    @pytest.mark.parametrize("m, c", [(5, 8), (8, 8), (130, 8), (1, 1)])
    def test_orthogonal_matches_gram_schmidt(self, m, c):
        # m < c, m = c, m > c with a partial last block, and the 1 x 1 case
        spec = RngSpec(31, 7)
        f = sample_projection(spec, m, c, orthogonal=True).f
        reference = block_gram_schmidt(philox_gaussian(31, 7, m, c), c)
        assert np.abs(f - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_row_norm_distribution(self):
        # E|g|^2 = c for a standard Gaussian c-vector; the orthogonal
        # construction must preserve that.
        c = 8
        total = 0.0
        for seed in range(10_000):
            f = sample_projection(RngSpec(40, seed), c, c, orthogonal=True).f
            total += (f * f).sum() / c
        mean_sq_norm = total / 10_000
        assert abs(mean_sq_norm - c) / c < 0.02

    def test_bad_shape(self):
        # a requested count, not an operand's shape: ValueError, so the CLI exits 1
        with pytest.raises(ValueError, match=r"^m must be >= 1, got 0$") as caught:
            sample_projection(RngSpec(0), 0, 4)
        assert not isinstance(caught.value, ShapeError)


class TestPhi:
    def test_zero_column_is_uniform(self):
        proj = sample_projection(RngSpec(3), 16, 5)
        out = phi(proj, np.zeros((5, 1)))
        assert np.array_equal(out.values, np.full((16, 1), 1.0 / 4.0))
        assert out.log_shift == 0.0

    def test_entries_strictly_positive(self):
        proj = sample_projection(RngSpec(4), 32, 6)
        u = gaussian_sample(RngSpec(5), 6, 10)
        assert (phi(proj, u).values > 0).all()

    def test_shift_is_max_projection(self):
        proj = sample_projection(RngSpec(6), 8, 3)
        u = gaussian_sample(RngSpec(7), 3, 4)
        assert phi(proj, u).log_shift == (proj.f @ u - 0.5 * (u * u).sum(axis=0)).max()

    def test_channel_mismatch(self):
        proj = sample_projection(RngSpec(0), 4, 3)
        with pytest.raises(ShapeError):
            phi(proj, np.zeros((5, 2)))

    def test_projection_overflow_names_column(self):
        # finite but absurd magnitudes overflow F @ u itself, which the
        # shared shift cannot repair
        proj = ProjectionMatrix(
            f=np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]]),
            orthogonal=False,
        )
        u = np.ones((3, 2))
        u[:, 1] = 1e308
        with pytest.raises(NumericError, match="column 1"):
            phi(proj, u)

    @pytest.mark.parametrize("orthogonal", [False, True])
    def test_shifted_values_recover_exact_features(self, orthogonal):
        proj = sample_projection(RngSpec(8), 24, 6, orthogonal)
        u = 1.5 * gaussian_sample(RngSpec(9), 6, 11)
        out = phi(proj, u)
        exact = np.exp(proj.f @ u - 0.5 * (u * u).sum(axis=0)) / math.sqrt(24)
        recovered = out.values * math.exp(out.log_shift)
        assert np.abs(recovered - exact).max() <= 1e-12 * np.abs(exact).max()
        assert (out.values <= 1.0 / math.sqrt(24)).all()

    def test_overflowing_square_norm_gives_zero_column(self):
        # |u|^2 overflows while F @ u stays finite: that column's exact
        # features round to 0, and the other column is unaffected
        proj = ProjectionMatrix(
            f=np.array([[1e-160, 0.0, 0.0], [0.0, 1e-160, 0.0]]),
            orthogonal=False,
        )
        u = np.ones((3, 2))
        u[:, 1] = 1e160
        out = phi(proj, u)
        assert np.array_equal(out.values[:, 1], np.zeros(2))
        assert np.allclose(out.values[:, 0] * math.exp(out.log_shift),
                           np.exp(proj.f @ u[:, 0] - 1.5) / math.sqrt(2), rtol=1e-12)

    def test_every_square_norm_overflowing_gives_zeros(self):
        # every exponent F u - |u|^2 / 2 is -inf, so the shift is -inf and
        # the features are 0, not NaN
        proj = ProjectionMatrix(f=1e-160 * np.eye(3), orthogonal=False)
        out = phi(proj, np.full((3, 4), 1e160))
        assert np.array_equal(out.values, np.zeros((3, 4)))
        assert out.log_shift == -math.inf

    def test_square_norms_dwarfing_projections(self):
        # at norms near 7e101, |u|^2 / 2 (about 2e203, ulp 3e187) dwarfs F u
        # (about 1e102), and |u|^2 / 2 + shift loses F u entirely. Every
        # feature is at most m^-1/2 to rounding, and the one whose exponent
        # is the shift meets it; the others lie about e^-1e101 below it
        u = np.array([[-1.4494799372835445e101, 6.639994605103111e101],
                      [8.46080732347379e101, -9.77811600421972e101]])
        out = phi(sample_projection(RngSpec(5), 2, 2), u)
        expected = np.array([[0.0, 0.0], [1.0 / math.sqrt(2), 0.0]])
        assert np.abs(out.values - expected).max() <= 4 * np.finfo(np.float64).eps

    def test_monte_carlo_unbiasedness_at_e(self):
        # mean of phi(q) . phi(k) over independent projections approaches
        # exp(q . k) = e for aligned unit vectors.
        u = unit_vector(4)
        est = kernel_estimates(u, u, m=8, trials=100_000, rng=RngSpec(51))
        assert abs(est.mean() - math.e) / math.e < 0.01


class TestKernelExact:
    def test_zero(self):
        assert kernel_exact([0.0, 0.0], [0.0, 0.0]) == 1.0

    def test_unit_inner_product(self):
        assert abs(kernel_exact([1.0, 0.0], [1.0, 0.0]) - math.e) < 1e-12

    def test_amplified_alignment(self):
        u = unit_vector(3, math.sqrt(6.0))
        assert abs(kernel_exact(u, u) - math.exp(6.0)) < 1e-9
        assert round(kernel_exact(u, u), 4) == 403.4288

    def test_overflow_rejected(self):
        big = np.full(4, 500.0)
        with pytest.raises(NumericError):
            kernel_exact(big, big)

    def test_overflowing_inner_product_rejected_without_warning(self):
        big = [1e155, 1e155]
        with pytest.raises(NumericError, match=r"^kernel overflowed: exp\(inf\)$"):
            kernel_exact(big, big)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            kernel_exact([1.0], [1.0, 2.0])


class TestVarianceTheory:
    def test_origin_is_zero(self):
        z = np.zeros(5)
        for m in (1, 4, 128):
            assert kernel_variance_theory(z, z, m) == 0.0

    def test_inverse_m_scaling_is_exact(self):
        q = np.array([0.3, -0.1, 0.7])
        k = np.array([0.2, 0.4, -0.5])
        assert kernel_variance_theory(q, k, 256) == kernel_variance_theory(q, k, 128) / 2

    def test_closed_form_on_aligned_units(self):
        u = unit_vector(6)
        for m in (8, 32):
            expected = math.e**2 * (math.e**4 - 1) / m
            assert abs(kernel_variance_theory(u, u, m) - expected) < 1e-9

    def test_strictly_increasing_in_amplification(self):
        values = [
            kernel_variance_theory(unit_vector(8, math.sqrt(k)), unit_vector(8, math.sqrt(k)), 128)
            for k in (1, 2, 4, 6, 8)
        ]
        assert all(lo < hi for lo, hi in zip(values, values[1:]))

    def test_overflow_is_inf_without_warning(self):
        # K^2 = e^300 and the growth e^600 are finite; only their product overflows
        u = unit_vector(4, math.sqrt(150))
        assert kernel_variance_theory(u, u, 4) == math.inf

    @pytest.mark.parametrize("q, k, log_value", [
        # exp(2 q.k) = e^-800 underflows to 0 while expm1(900) overflows
        ([20.0, 0.0], [-20.0, 30.0], 100.0),
        # exp(2 q.k) = e^-200 is finite while expm1(800) overflows
        ([10.0, 0.0], [-10.0, math.sqrt(800.0)], 600.0),
        # exp(2 q.k) = e^-850 underflows to 0 while the product e^-481 is a float
        ([math.sqrt(425.0), 0.0], [-math.sqrt(425.0), math.sqrt(369.0)], -481.0),
    ])
    def test_finite_product_of_out_of_range_factors(self, q, k, log_value):
        assert kernel_variance_theory(q, k, 4) == pytest.approx(math.exp(log_value) / 4, rel=1e-12, abs=0)

    @pytest.mark.parametrize("q, k, expected", [
        # q.k = -2e400 and |q + k|^2 = 1e400: the closed form is exp(-1e400) = 0
        ([1e200, 0.0], [-1e200, 1e200], 0.0),
        # q.k = -2e400 and |q + k|^2 = 2e400: K^2 exp(|q + k|^2) is exactly 1
        ([1e200, 0.0, 0.0], [-1e200, 1e200, 1e200], 0.25),
        # q + k = 0: no variance, though s^2 = inf
        ([1e200, 0.0], [-1e200, 0.0], 0.0),
    ], ids=["underflow", "unit", "opposite"])
    def test_inner_products_past_float_range(self, q, k, expected):
        assert kernel_variance_theory(q, k, 4) == expected


class TestKernelEstimates:
    def test_estimate_matches_phi_route(self):
        q = gaussian_sample(RngSpec(61), 5, 1)[:, 0]
        k = gaussian_sample(RngSpec(62), 5, 1)[:, 0]
        rng = RngSpec(63)
        fast = kernel_estimates(q, k, m=16, trials=1, rng=rng)[0]
        proj = sample_projection(rng.stream(1), 16, 5)
        pq = phi(proj, q[:, None])
        pk = phi(proj, k[:, None])
        via_phi = float(pq.values[:, 0] @ pk.values[:, 0]) * math.exp(pq.log_shift + pk.log_shift)
        assert abs(fast - via_phi) / via_phi < 1e-10

    @pytest.mark.parametrize("m", [1, 16, 130])
    def test_iid_matches_stream_contract_bitwise(self, m):
        # trial counts on both sides of the _TRIAL_BLOCK boundaries
        q = gaussian_sample(RngSpec(66), 8, 1)[:, 0]
        k = gaussian_sample(RngSpec(67), 8, 1)[:, 0]
        for trials in BLOCK_TRIALS:
            est = kernel_estimates(q, k, m=m, trials=trials, rng=RngSpec(68, 40))
            assert np.array_equal(est, stream_estimates(q, k, m, trials, seed=68, stream_id=40))

    @pytest.mark.parametrize("orthogonal", [False, True])
    def test_infinite_square_norm_gives_zeros(self, orthogonal):
        # |q|^2 = |k|^2 = inf: the prefactor exp(-(|q|^2 + |k|^2) / 2) is 0
        q = [1e155, 0.0]
        est = kernel_estimates(q, q, 4, 3, RngSpec(0), orthogonal)
        assert np.array_equal(est, np.zeros(3))

    @pytest.mark.parametrize("orthogonal, m", [(False, 2), (True, 3)])
    def test_infinite_square_norm_past_matmul_range_gives_zeros(self, orthogonal, m):
        # F (q + k) would overflow here, and the orthogonal QR with it
        est = kernel_estimates([3.49e307, -9.45e307], [0.0, 0.0], m, 2, RngSpec(0), orthogonal)
        assert np.array_equal(est, np.zeros(2))

    def test_finite_prefactor_overflow_names_trial(self):
        # q = k = 32 u, u along trial 0's longest projection row: the
        # prefactor's exponent max F z - (|q|^2 + |k|^2) / 2 = 64 |f| - 1024
        # is finite but past exp's range, so math.exp raises OverflowError
        rng = RngSpec(3)
        f = sample_projection(rng.stream(1), 16, 1024).f
        longest = f[np.argmax(np.linalg.norm(f, axis=1))]
        q = 32.0 * longest / np.linalg.norm(longest)
        with pytest.raises(NumericError, match="^kernel estimate overflowed at trial 0$"):
            kernel_estimates(q, q, 16, 2, rng)

    def test_strict_positivity(self):
        q = gaussian_sample(RngSpec(64), 6, 1)[:, 0]
        k = -q  # estimates a kernel value below 1
        est = kernel_estimates(q, k, m=4, trials=500, rng=RngSpec(65))
        assert (est > 0).all()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 16))
    def test_positivity_property(self, seed, m):
        q = gaussian_sample(RngSpec(seed), 4, 1)[:, 0]
        k = gaussian_sample(RngSpec(seed, 1), 4, 1)[:, 0]
        est = kernel_estimates(q, k, m=m, trials=3, rng=RngSpec(seed, 2))
        assert (est > 0).all()

    def test_unbiased_within_three_standard_errors(self):
        for pair_seed in (101, 102, 103):
            base = RngSpec(pair_seed)
            gen = base.generator()
            q = gen.standard_normal(6)
            q /= np.linalg.norm(q)
            k = gen.standard_normal(6)
            k /= np.linalg.norm(k)
            est = kernel_estimates(q, k, m=8, trials=20_000, rng=base)
            se = est.std(ddof=1) / math.sqrt(est.size)
            assert abs(est.mean() - kernel_exact(q, k)) <= 3 * se


class TestTrialBlocks:
    """kernel_estimates runs trials in blocks of _TRIAL_BLOCK; the counts
    in BLOCK_TRIALS end on each side of a block boundary."""

    @staticmethod
    def operands():
        return gaussian_sample(RngSpec(66), 8, 1)[:, 0], gaussian_sample(RngSpec(67), 8, 1)[:, 0]

    @pytest.mark.parametrize("trials", BLOCK_TRIALS)
    @pytest.mark.parametrize("m", [1, 16, 130])
    def test_orthogonal_matches_per_trial_route(self, m, trials):
        # m = 130 at c = 8 leaves a partial last block of rows
        q, k = self.operands()
        rng = RngSpec(69, 41)
        est = kernel_estimates(q, k, m=m, trials=trials, rng=rng, orthogonal=True)
        alone = [kernel_estimates(q, k, m, 1, rng.stream(t), True)[0] for t in range(trials)]
        assert np.array_equal(est, alone)
        # the formed-F route rounds differently from the R-factor read
        formed = [projection_estimate(sample_projection(rng.stream(1 + t), m, 8, True).f, q, k)
                  for t in range(trials)]
        assert np.abs(est - formed).max() <= 1e-12 * np.abs(formed).max()
        reference = [projection_estimate(block_gram_schmidt(philox_gaussian(69, 42 + t, m, 8), 8), q, k)
                     for t in range(trials)]
        assert np.abs(est - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("orthogonal", [False, True])
    def test_stream_ids_wrap(self, orthogonal):
        q, k = self.operands()
        trials = 2 * B + 3
        est = kernel_estimates(q, k, m=16, trials=trials, rng=RngSpec(70, WRAPPING_ID), orthogonal=orthogonal)
        alone = [kernel_estimates(q, k, 16, 1, RngSpec(70, (WRAPPING_ID + t) % 2**64), orthogonal)[0]
                 for t in range(trials)]
        assert np.array_equal(est, alone)
        per_trial = [projection_estimate(sample_projection(RngSpec(70, (WRAPPING_ID + 1 + t) % 2**64),
                                                           16, 8, orthogonal).f, q, k)
                     for t in range(trials)]
        if orthogonal:
            assert np.abs(est - per_trial).max() <= 1e-12 * np.abs(per_trial).max()
        else:
            assert np.array_equal(est, per_trial)

    def test_rekeyed_draw_matches_fresh_generator(self):
        offsets = range(1, 2 * B + 3)
        draws = np.concatenate(list(_projection_blocks(RngSpec(71, WRAPPING_ID), offsets, 4, 3)))
        for draw, offset in zip(draws, offsets):
            stream_id = (WRAPPING_ID + offset) % 2**64
            assert np.array_equal(draw, RngSpec(71, stream_id).generator().standard_normal((4, 3)))
        # the last ids before the wrap, up to 2^64 - 1, come first
        assert [(WRAPPING_ID + o) % 2**64 for o in offsets][18:21] == [2**64 - 1, 0, 1]

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_rejected(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            kernel_estimates(np.ones(3), np.ones(3), 4, trials, RngSpec(0))

    @pytest.mark.parametrize("orthogonal", [False, True])
    def test_overflow_names_trial_zero(self, orthogonal):
        # q = k = 32 u, u along the longest row of trial 0's projection:
        # that estimate is past float range, and the first block stops there
        rng = RngSpec(3)
        f = sample_projection(rng.stream(1), 16, 1024, orthogonal).f
        longest = f[np.argmax(np.linalg.norm(f, axis=1))]
        q = 32.0 * longest / np.linalg.norm(longest)
        with pytest.raises(NumericError, match="overflowed at trial 0$"):
            kernel_estimates(q, q, 16, 2 * B + 3, rng, orthogonal)

    def test_degenerate_block_raises(self, monkeypatch):
        # zeroing projection row `row` of draw number `draw` (counted from
        # 0 per generator) leaves that row's block of c rows rank-deficient
        target = {"draw": B + 1, "row": 2}
        real_generator = RngSpec.generator

        class ZeroRowGenerator:
            def __init__(self, gen):
                self.gen, self.bit_generator, self.draws = gen, gen.bit_generator, 0

            def standard_normal(self, out):
                self.gen.standard_normal(out=out)
                if self.draws == target["draw"]:
                    out[target["row"]] = 0.0
                self.draws += 1

        monkeypatch.setattr(RngSpec, "generator", lambda spec: ZeroRowGenerator(real_generator(spec)))
        # trial B + 1 sits inside the second block of trials
        with pytest.raises(NumericError, match=f"^degenerate Gaussian block: row 2 is linearly dependent "
                                               f"at trial {B + 1}$"):
            kernel_estimates(np.ones(4), np.ones(4), 3, 2 * B + 3, RngSpec(0), orthogonal=True)
        kernel_estimates(np.ones(4), np.ones(4), 3, B + 1, RngSpec(0), orthogonal=True)
        # m > c: row 20 of m = 24 is row 4 of its block of c = 8; the
        # message names the projection row
        target["row"] = 20
        with pytest.raises(NumericError, match=f"^degenerate Gaussian block: row 20 is linearly dependent "
                                               f"at trial {B + 1}$"):
            kernel_estimates(np.ones(8), np.ones(8), 24, 2 * B + 3, RngSpec(0), orthogonal=True)
        target["draw"] = 0
        with pytest.raises(NumericError, match="^degenerate Gaussian block: row 20 is linearly dependent$"):
            sample_projection(RngSpec(0), 24, 8, orthogonal=True)
        assert not sample_projection(RngSpec(0), 24, 8).f[20].any()


class TestOrthogonalRows:
    """_orthogonal_rows reads F_orth @ rhs off the R factor of one QR; the
    identity rhs gives F_orth itself, which sample_projection returns."""

    @pytest.mark.parametrize("count", [1, 33])
    @pytest.mark.parametrize("m, c", [(5, 8), (8, 8), (130, 8), (1, 1)])
    def test_product_matches_formed_projection(self, m, c, count):
        # m < c, m = c, m > c with a partial last block, and the 1 x 1 case
        f = np.stack([philox_gaussian(32, t, m, c) for t in range(count)])
        draws = f.copy()
        formed = _orthogonal_rows(f, np.eye(c))
        for rhs in (philox_gaussian(33, 0, c, 1)[:, 0], philox_gaussian(33, 1, c, 3)):
            product = _orthogonal_rows(f, rhs)
            expected = formed @ rhs
            assert product.shape == expected.shape
            assert np.abs(product - expected).max() <= 1e-14 * np.abs(expected).max()
        assert np.array_equal(f, draws)
        for draw, projection in zip(draws, formed):
            reference = block_gram_schmidt(draw, c)
            assert np.abs(projection - reference).max() <= 1e-12 * np.abs(reference).max()
            for start in range(0, m, c):
                block = projection[start:start + c]
                directions = block / np.linalg.norm(block, axis=1)[:, None]
                assert np.abs(directions @ directions.T - np.eye(len(block))).max() <= 1e-12


class TestVarianceEmpirical:
    def test_deterministic_at_origin(self):
        z = np.zeros(4)
        report = kernel_variance_empirical(z, z, m=8, trials=50, rng=RngSpec(1))
        assert report.empirical == 0.0
        assert report.theoretical == 0.0

    def test_matches_theory_at_half_norm(self):
        u = unit_vector(8, 0.5)
        report = kernel_variance_empirical(u, u, m=32, trials=100_000, rng=RngSpec(123))
        assert report.rel_gap < 0.05

    def test_orthogonal_beats_iid_smoke(self):
        # Small paired smoke check; the 100-pair version runs in the
        # acceptance suite.
        u = unit_vector(64, 0.5)
        wins = 0
        trials = 1500
        for pair in range(10):
            base = RngSpec(77).stream(pair * (trials + 1))
            iid = kernel_variance_empirical(u, u, 16, trials, base, orthogonal=False)
            ortho = kernel_variance_empirical(u, u, 16, trials, base, orthogonal=True)
            wins += ortho.empirical <= iid.empirical
        assert wins >= 8

    def test_requires_two_trials(self):
        with pytest.raises(ValueError):
            kernel_variance_empirical(np.ones(3), np.ones(3), 4, 1, RngSpec(0))

    def test_finite_theory_with_out_of_range_factors(self):
        # the closed form e^100 / 4 fits in float range though exp(2 q.k)
        # underflows and expm1(|q + k|^2) overflows
        q, k = np.array([20.0, 0.0]), np.array([-20.0, 30.0])
        report = kernel_variance_empirical(q, k, m=4, trials=2, rng=RngSpec(0))
        assert report.theoretical == pytest.approx(math.exp(100) / 4, rel=1e-12)
        assert math.isfinite(report.empirical)

    def test_overflowing_theory_raises_before_trials(self, monkeypatch):
        monkeypatch.setattr(features, "kernel_estimates", lambda *args: pytest.fail("drew trials"))
        u = unit_vector(4, math.sqrt(150))
        with pytest.raises(NumericError, match="^closed-form variance overflowed$"):
            kernel_variance_empirical(u, u, m=4, trials=20, rng=RngSpec(0))
