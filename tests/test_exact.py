import ast
from pathlib import Path

import numpy as np
import pytest

from enlca import exact
from enlca.contrastive import relevance_scores
from enlca.enla import EnlaConfig, enla_forward, normalize_and_scale
from enlca.exact import (
    attention_row_entropies,
    attention_weights,
    correlation_map,
    exact_attention,
    shannon_entropy,
)
from enlca.matrices import _UNSHIFTED_MAX, NumericError, RngSpec, ShapeError, gaussian_sample

from oracles import columns, naive_attention


def seeded_instance(seed, c=3, c_out=3, n=4):
    base = RngSpec(seed)
    q = gaussian_sample(base.stream(1), c, n)
    k = gaussian_sample(base.stream(2), c, n)
    v = gaussian_sample(base.stream(3), c_out, n)
    return q, k, v


def test_single_position_passes_values_through():
    q, k, v = seeded_instance(0, n=1)
    assert np.array_equal(exact_attention(q, k, v), v)
    assert np.array_equal(attention_weights(q, k), [[1.0]])


def test_zero_features_give_uniform_mixing():
    v = gaussian_sample(RngSpec(1), 5, 9)
    out = exact_attention(np.zeros((4, 9)), np.zeros((4, 9)), v)
    expected = np.repeat(v.mean(axis=1, keepdims=True), 9, axis=1)
    assert np.abs(out - expected).max() < 1e-12


def test_against_scalar_oracle():
    q, k, v = seeded_instance(7)
    expected = np.array(naive_attention(columns(q), columns(k), columns(v))).T
    assert np.abs(exact_attention(q, k, v) - expected).max() < 1e-12


def test_scalar_oracle_on_sampled_queries():
    # a few query columns attend over every key, as in the full call
    q, k, v = seeded_instance(8, n=9)
    full = naive_attention(columns(q), columns(k), columns(v))
    assert naive_attention(columns(q)[:3], columns(k), columns(v)) == full[:3]


def test_rows_are_stochastic():
    q, k, _ = seeded_instance(3, c=4, n=12)
    weights = attention_weights(q, k)
    assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-9
    assert (weights >= 0).all() and (weights <= 1).all()


def test_key_value_permutation_invariance():
    q, k, v = seeded_instance(11, n=10)
    perm = RngSpec(5).generator().permutation(10)
    base = exact_attention(q, k, v)
    permuted = exact_attention(q, k[:, perm], v[:, perm])
    assert np.abs(base - permuted).max() < 1e-12


def test_query_permutation_equivariance():
    q, k, v = seeded_instance(13, n=10)
    perm = RngSpec(6).generator().permutation(10)
    base = exact_attention(q, k, v)
    permuted = exact_attention(q[:, perm], k, v)
    assert np.abs(base[:, perm] - permuted).max() < 1e-12


def test_key_shift_invariance():
    q, k, v = seeded_instance(17, n=8)
    offset = gaussian_sample(RngSpec(8), 3, 1)
    shifted = exact_attention(q, k + offset, v)
    assert np.abs(exact_attention(q, k, v) - shifted).max() < 1e-9


@pytest.mark.parametrize("n", [1, 7, 2049])
def test_output_starts_on_a_cache_line(n):
    q, k, v = seeded_instance(5, n=n)
    assert exact_attention(q, k, v).ctypes.data % 64 == 0


def test_chunking_does_not_change_results(monkeypatch):
    q, k, v = seeded_instance(19, c=5, c_out=4, n=37)
    monkeypatch.setattr(exact, "MAX_ROWS", 37)
    full = exact_attention(q, k, v)
    monkeypatch.setattr(exact, "MAX_ROWS", 3)
    tiny = exact_attention(q, k, v)
    assert np.abs(full - tiny).max() < 1e-12


class TestBlocks:
    """Blocks as tall as fit in 512 KiB for c + c_out <= 16, if that is at
    least 16 rows, else 256 rows. The height follows N: at c = 8 a block
    holds all of N <= 256 positions, and N = 257 is split 255 + 2."""

    @pytest.mark.parametrize("n, c, c_out, rows", [
        (256, 8, 8, 256),
        (257, 8, 8, 255),
        (515, 8, 8, 127),
        (2048, 8, 8, 32),      # the approximation sweep's oracle
        (4096, 8, 8, 16),
        (10_000, 8, 8, 256),   # 6 rows would fit
        (1024, 16, 16, 256),   # wider channels keep 256 rows
        (1100, 16, 0, 59),     # entropies: no value GEMM
        (260, 64, 64, 256),
        (10_000, 16, 16, 256),
    ])
    def test_height(self, n, c, c_out, rows):
        assert exact._block_rows(n, c, c_out) == rows

    @pytest.mark.parametrize("c, n", [(8, 1), (8, 255), (8, 256), (8, 257), (8, 515), (64, 260)])
    def test_against_scalar_oracle(self, c, n):
        q, k, v = seeded_instance(41, c=c, c_out=c, n=n)
        expected = np.array(naive_attention(columns(q), columns(k), columns(v))).T
        assert np.abs(exact_attention(q, k, v) - expected).max() < 1e-12

    def test_weights_across_blocks(self):
        # at N = 1100 the weights and the entropies, with no value GEMM,
        # take 59-row blocks
        q, k, _ = seeded_instance(43, c=16, n=1100)
        weights = attention_weights(q, k)
        assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-12
        expected = np.array([shannon_entropy(row) for row in weights])
        assert np.abs(attention_row_entropies(q, k) - expected).max() < 1e-12


class TestRegimes:
    """The oracle scales each row of v below 1 by an exact power of two,
    forms its logits against key 0 and skips the row max when
    max|q_i| max|k_j - k_0| <= min(U, log(MAX / 2) - log(N)), the headroom
    of N weights, with U = matrices._UNSHIFTED_MAX; any other input takes
    the row-max shift of _softmax_rows."""

    @staticmethod
    def run(monkeypatch, q, k, v):
        """exact_attention, attention_weights and whether any block took the row-max shift."""
        shifted = []
        softmax_rows = exact._softmax_rows

        def spy(logits, first_column):
            shifted.append(first_column)
            return softmax_rows(logits, first_column)

        monkeypatch.setattr(exact, "_softmax_rows", spy)
        return exact_attention(q, k, v), attention_weights(q, k), bool(shifted)

    @staticmethod
    def assert_matches_oracle(y, weights, q, k, v):
        expected = np.array(naive_attention(columns(q), columns(k), columns(v))).T
        assert np.abs(y - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())
        assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.fixture
    def no_row_max(self, monkeypatch):
        def refuse(logits, first_column):
            raise AssertionError("a block took the row-max shift")

        monkeypatch.setattr(exact, "_softmax_rows", refuse)

    @staticmethod
    def at_reach(seed, reach, c=3, n=8):
        """q, k with max|q_i| max|k_j - k_0| = reach, key 0 off the origin."""
        base = RngSpec(seed)
        q = gaussian_sample(base.stream(1), c, n)
        relative = gaussian_sample(base.stream(2), c, n)
        relative[:, 0] = 0.0
        q /= np.linalg.norm(q, axis=0).max()
        relative *= reach / np.linalg.norm(relative, axis=0).max()
        return q, relative + np.array([[0.5], [-0.25], [0.75]])[:c]

    @pytest.mark.parametrize("offset, shifted", [(-1e-9, False), (1e-9, True)], ids=["below", "above"])
    def test_reach_at_the_limit(self, monkeypatch, offset, shifted):
        q, k = self.at_reach(51, _UNSHIFTED_MAX * (1 + offset))
        v = gaussian_sample(RngSpec(52), 2, 8)
        y, weights, took_shift = self.run(monkeypatch, q, k, v)
        assert took_shift == shifted
        self.assert_matches_oracle(y, weights, q, k, v)

    @pytest.mark.parametrize("scale, reach", [(1.0, 20.0), (1e300, 20.0), (1e307, 0.5)])
    def test_value_term(self, monkeypatch, scale, reach):
        # values in [scale, 4 scale] at N = 64: they enter at unit scale, so
        # the headroom is U whatever their size, and even near 1e307, where
        # 64 unscaled weights within e^-1 of the row max would overflow the
        # sum, no row max is taken
        q, k = self.at_reach(53, reach, n=64)
        v = scale * (1.0 + np.abs(gaussian_sample(RngSpec(54), 2, 64)))
        y, weights, took_shift = self.run(monkeypatch, q, k, v)
        assert not took_shift
        self.assert_matches_oracle(y, weights, q, k, v)

    @pytest.mark.parametrize("scale", [1e-307, 1.5e308])
    def test_values_at_either_end_of_float_range(self, monkeypatch, scale):
        # the output is scaled back after the divide: normalizers up to
        # 64 e^20 scaled by 2^-e, which reaches 2^1019 here, would overflow
        q, k = self.at_reach(59, 20.0, n=64)
        v = 1.0 + np.abs(gaussian_sample(RngSpec(60), 2, 64))
        v /= v.max()
        y, _, took_shift = self.run(monkeypatch, q, k, scale * v)
        assert not took_shift
        expected = exact_attention(q, k, v)
        assert np.abs(y / scale - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_query_anti_aligned_with_key_0(self, monkeypatch):
        # query 0 points along -u and every k_j - k_0 leans along +u, so its
        # key-relative logits lie in [-350, -175] except key 0's 0: weights
        # near e^-350 that must neither underflow nor lose digits
        u = np.array([0.6, 0.8, 0.0])
        directions = gaussian_sample(RngSpec(55), 3, 16)
        directions /= np.linalg.norm(directions, axis=0)
        directions += 3.0 * u[:, None]
        directions /= np.linalg.norm(directions, axis=0)
        assert (u @ directions).min() >= 0.5
        k = np.array([[0.5], [-0.25], [0.75]]) + directions
        k[:, 0] = [0.5, -0.25, 0.75]
        q = gaussian_sample(RngSpec(56), 3, 16)
        q *= 350.0 / np.linalg.norm(q, axis=0)
        q[:, 0] = -350.0 * u
        v = gaussian_sample(RngSpec(57), 2, 16)
        y, weights, took_shift = self.run(monkeypatch, q, k, v)
        assert not took_shift
        self.assert_matches_oracle(y, weights, q, k, v)
        # the scalar oracle's weights: its attention over the identity's columns
        expected = np.array(naive_attention(columns(q), columns(k), columns(np.eye(16))))[0]
        assert weights[0, 0] == expected[0] and expected[1:].max() < 1e-75
        assert np.abs(weights[0] / expected - 1.0).max() < 1e-12

    @pytest.mark.parametrize("k_amp", [1.0, 6.0])
    def test_sweep_shape_takes_no_row_max(self, no_row_max, k_amp):
        base = RngSpec(58)
        q, k = normalize_and_scale(gaussian_sample(base.stream(1), 8, 2048),
                                   gaussian_sample(base.stream(2), 8, 2048), k_amp)
        v = gaussian_sample(base.stream(3), 8, 2048)
        # the textbook softmax on a few query rows, across block edges
        sample = [0, 31, 32, 1000, 2047]
        logits = q[:, sample].T @ k
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        assert np.abs(exact_attention(q, k, v)[:, sample] - v @ weights.T).max() < 1e-12
        entropies = -(weights * np.log(weights)).sum(axis=1)
        assert np.abs(attention_row_entropies(q, k)[sample] - entropies).max() < 1e-12

    @pytest.mark.parametrize("k_amp", [1.0, 6.0])
    def test_correlation_map_is_a_weight_row(self, no_row_max, k_amp):
        # in range, a map runs the oracle's block loop on its one column: no
        # row max, and the weight row to rounding; the bound is for small
        # k_amp, at 400 the two differed by 5.5e-14 of the row's max
        base = RngSpec(61)
        q, k = normalize_and_scale(gaussian_sample(base.stream(1), 8, 512),
                                   gaussian_sample(base.stream(2), 8, 512), k_amp)
        weights = attention_weights(q, k)
        for i in (0, 127, 128, 511):  # 128-row blocks
            row = weights[i]
            assert np.abs(correlation_map(q, k, i) - row).max() <= 1e-14 * row.max()


def test_oracle_imports_nothing_from_the_forward():
    # the oracle checks enla, so it may not share its code
    tree = ast.parse(Path(exact.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported |= {module} | {f"{module}.{alias.name}".replace("..", ".") for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not {".enla", "enlca.enla"} & imported


def test_repeat_calls_are_bitwise_identical():
    q, k, v = seeded_instance(23, n=20)
    assert np.array_equal(exact_attention(q, k, v), exact_attention(q, k, v))


def test_shape_validation():
    with pytest.raises(ShapeError):
        exact_attention(np.zeros((3, 4)), np.zeros((2, 4)), np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        exact_attention(np.zeros((3, 4)), np.zeros((3, 4)), np.zeros((3, 5)))


# Malformed (q, k, v) triples; the randomized forward validates through the
# oracle's contract, so both refuse these alike.
MALFORMED_QKV = {
    "channel mismatch": ((3, 4), (2, 4), (3, 4)),
    "v position mismatch": ((3, 4), (3, 4), (3, 5)),
    "v channels and positions": ((3, 4), (3, 4), (2, 5)),
    "q not 2-D": ((4,), (3, 4), (3, 4)),
    "v empty": ((3, 4), (3, 4), (3, 0)),
}


@pytest.mark.parametrize("shapes", MALFORMED_QKV.values(), ids=MALFORMED_QKV.keys())
def test_oracle_and_forward_reject_alike(shapes):
    q, k, v = (np.zeros(shape) for shape in shapes)
    with pytest.raises(ShapeError) as oracle:
        exact_attention(q, k, v)
    with pytest.raises(ShapeError) as forward:
        enla_forward(q, k, v, EnlaConfig(rng=RngSpec(0), m=8))
    assert str(oracle.value) == str(forward.value)


def test_forward_and_oracle_take_queries_with_their_own_column_count():
    q, k, v = np.zeros((3, 4)), np.zeros((3, 5)), np.ones((3, 5))
    assert np.array_equal(exact_attention(q, k, v), np.ones((3, 4)))
    assert np.array_equal(enla_forward(q, k, v, EnlaConfig(rng=RngSpec(0), m=8)), np.ones((3, 4)))


class TestCrossAttention:
    """q with its own column count N_q against N_k keys and values."""

    @pytest.mark.parametrize("n_q, n_k", [(1, 6), (6, 1), (1, 1), (3, 7), (9, 4)])
    def test_against_scalar_oracle(self, n_q, n_k):
        base = RngSpec(71)
        q = gaussian_sample(base.stream(1), 3, n_q)
        k = gaussian_sample(base.stream(2), 3, n_k)
        v = gaussian_sample(base.stream(3), 2, n_k)
        expected = np.array(naive_attention(columns(q), columns(k), columns(v))).T
        assert np.abs(exact_attention(q, k, v) - expected).max() < 1e-12
        # the scalar oracle's weights: its attention over the identity's columns
        weights = np.array(naive_attention(columns(q), columns(k), columns(np.eye(n_k))))
        assert attention_weights(q, k).shape == weights.shape == (n_q, n_k)
        assert np.abs(attention_weights(q, k) - weights).max() < 1e-12
        for i in range(n_q):
            assert np.abs(correlation_map(q, k, i) - weights[i]).max() < 1e-12
        entropies = [shannon_entropy(row / row.sum()) for row in weights]
        assert np.abs(attention_row_entropies(q, k) - entropies).max() < 1e-12

    @pytest.mark.parametrize("k_amp, outlier", [(1.0, 1.0), (6.0, 1.0), (6.0, 400.0)],
                             ids=["k_amp 1", "k_amp 6", "k_amp 6, one long query left out"])
    def test_query_columns_give_output_columns(self, k_amp, outlier):
        # what a check on sampled query columns relies on; a long query 0,
        # left out of the sample, takes the full call into the row max
        base = RngSpec(73)
        q, k = normalize_and_scale(gaussian_sample(base.stream(1), 8, 2048),
                                   gaussian_sample(base.stream(2), 8, 2048), k_amp)
        q[:, 0] *= outlier
        v = gaussian_sample(base.stream(3), 8, 2048)
        cols = RngSpec(74).generator().choice(np.arange(1, 2048), 256, replace=False)
        full = exact_attention(q, k, v)
        assert np.abs(exact_attention(q[:, cols], k, v) - full[:, cols]).max() <= 1e-14 * np.abs(v).max()


class TestCorrelationMap:
    def test_single_position(self):
        out = correlation_map([[1.0]], [[2.0]], 0)
        assert np.array_equal(out, [1.0])

    def test_zero_features_uniform(self):
        out = correlation_map(np.zeros((3, 5)), np.zeros((3, 5)), 2)
        assert np.abs(out - 0.2).max() < 1e-15

    def test_amplification_raises_peak(self):
        base = RngSpec(31)
        theta = gaussian_sample(base.stream(1), 6, 25)
        delta = gaussian_sample(base.stream(2), 6, 25)
        q1, k1 = normalize_and_scale(theta, delta, 1.0)
        q6, k6 = normalize_and_scale(theta, delta, 6.0)
        sharp = correlation_map(q6, k6, 4)
        flat = correlation_map(q1, k1, 4)
        assert sharp.max() >= flat.max()

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            correlation_map(np.zeros((2, 3)), np.zeros((2, 3)), 3)

    @pytest.mark.parametrize("index", [1.5, True, "1", np.float64(1.0)])
    def test_non_integer_index_refused_by_name(self, index):
        with pytest.raises(ValueError, match=rf"^query_index must be an integer, got {index}$"):
            correlation_map(np.zeros((2, 3)), np.zeros((2, 3)), index)

    def test_numpy_integer_index(self):
        q, k, _ = seeded_instance(3, n=5)
        assert np.array_equal(correlation_map(q, k, np.int64(2)), correlation_map(q, k, 2))

    @pytest.mark.parametrize("call", [
        lambda q, k: correlation_map(q, k, 0),
        attention_row_entropies,
        attention_weights,
        lambda q, k: exact_attention(q, k, np.zeros((1, 5))),
        lambda q, k: relevance_scores(q, k, 1.0),
    ], ids=["correlation_map", "attention_row_entropies", "attention_weights", "exact_attention",
            "relevance_scores"])
    def test_channel_mismatch(self, call):
        message = r"^q and k need equal channel counts, got \(2, 3\) vs \(3, 5\)$"
        with pytest.raises(ShapeError, match=message):
            call(np.zeros((2, 3)), np.zeros((3, 5)))


class TestEntropy:
    def test_uniform_is_log_n(self):
        assert abs(shannon_entropy(np.full(8, 0.125)) - np.log(8)) < 1e-12

    def test_point_mass_is_zero(self):
        for p in ([1.0], [0.0, 1.0, 0.0]):
            assert shannon_entropy(p) == 0.0
            assert np.copysign(1.0, shannon_entropy(p)) == 1.0  # +0, not -0

    @pytest.mark.parametrize("p, error, message", [
        ([], ShapeError, "entropy expects a non-empty 1-D vector"),
        ([[0.5, 0.5]], ShapeError, "entropy expects a non-empty 1-D vector"),
        ([1.5, -0.5], ValueError, "entropy expects non-negative finite probabilities"),
        ([0.5, float("nan")], ValueError, "entropy expects non-negative finite probabilities"),
        ([2.0, 3.0], ValueError, "entropy expects probabilities of at most 1 that sum to 1"),
        ([1e308, 1.0], ValueError, "entropy expects probabilities of at most 1 that sum to 1"),
        ([1e308, 1e308], ValueError, "entropy expects probabilities of at most 1 that sum to 1"),
        ([0.5, 0.25], ValueError, "entropy expects probabilities of at most 1 that sum to 1"),
        ([1.0 + 2**-52, 0.0], ValueError, "entropy expects probabilities of at most 1 that sum to 1"),
    ], ids=["empty", "2-D", "negative", "nan", "above-one", "near-max", "sum-overflow", "short-sum",
            "one-ulp-above-one"])
    def test_rejects_non_distribution(self, p, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            shannon_entropy(p)

    def test_sum_tolerance_is_n_eps(self):
        eps = np.finfo(np.float64).eps
        assert shannon_entropy([0.5, 0.5 - 2 * eps]) > 0
        with pytest.raises(ValueError):
            shannon_entropy([0.5, 0.5 - 4 * eps])

    def test_accepts_correlation_map_at_large_n(self):
        # a map divided by its own sum carries that sum's rounding
        q, k, _ = seeded_instance(44, c=4, n=200_000)
        q, k = normalize_and_scale(q, k, 6.0)
        cmap = correlation_map(q, k, 7)
        assert 0 < shannon_entropy(cmap) <= np.log(200_000)

    def test_accepts_weight_rows_at_large_n(self):
        q, k, _ = seeded_instance(45, c=4, n=2048)
        weights = attention_weights(q, k)
        entropies = [shannon_entropy(row) for row in weights]
        assert np.abs(attention_row_entropies(q, k) - entropies).max() < 1e-12

    def test_one_hot_rows_are_positive_zero(self):
        # logits 900 apart: every weight row is exactly one-hot
        entropies = attention_row_entropies([[30.0, -30.0]], [[30.0, -30.0]])
        assert np.array_equal(np.copysign(1.0, entropies), [1.0, 1.0])

    def test_row_entropies_match_weights(self):
        q, k, _ = seeded_instance(37, c=4, n=15)
        weights = attention_weights(q, k)
        expected = np.array([shannon_entropy(row) for row in weights])
        assert np.abs(attention_row_entropies(q, k) - expected).max() < 1e-12


class TestOverflowingLogits:
    """A weight row whose largest logit is not finite has no softmax: the
    oracle names its query column instead of returning NaN."""

    # query column 1 meets the keys at +inf and -inf; column 0 stays finite
    Q = np.array([[1.0, 1e300]])
    K = np.array([[1e300, -1e300]])

    @pytest.mark.parametrize("call", [
        lambda q, k: exact_attention(q, k, np.ones((1, 2))),
        attention_weights,
        lambda q, k: correlation_map(q, k, 1),
        attention_row_entropies,
    ], ids=["exact_attention", "attention_weights", "correlation_map", "attention_row_entropies"])
    def test_names_query_column(self, call):
        with pytest.raises(NumericError, match="^attention logits overflowed at query column 1$"):
            call(self.Q, self.K)

    def test_all_negative_infinite_row(self):
        with pytest.raises(NumericError, match="query column 0"):
            correlation_map([[-1e300]], [[1e300, 2e300]], 0)

    def test_names_column_of_later_chunk(self, monkeypatch):
        monkeypatch.setattr(exact, "MAX_ROWS", 2)
        q = np.array([[1.0, 2.0, 0.5, 1e300, 1.0]])
        k = np.array([[1.0, 1e300, 0.0, 2.0, 1.0]])
        with pytest.raises(NumericError, match="query column 3$"):
            exact_attention(q, k, np.ones((2, 5)))

    @pytest.mark.parametrize("scale", [1e150, 1.3e154])
    def test_huge_finite_logits_match_oracle(self, scale):
        # logits near +-scale^2; at 1.3e154 they sit near the float limit and
        # their difference from the row max overflows to -inf, a zero weight
        q = np.array([[scale, -scale, 0.5 * scale], [1.0, 2.0, -1.0]])
        k = np.array([[scale, -0.5 * scale, -scale], [0.5, -1.0, 3.0]])
        v = np.array([[1.0, -2.0, 3.0], [0.25, 0.5, -0.75]])
        with np.errstate(over="ignore"):  # the oracle subtracts numpy scalars
            expected = np.array(naive_attention(columns(q), columns(k), columns(v))).T
        assert np.abs(exact_attention(q, k, v) - expected).max() < 1e-12
