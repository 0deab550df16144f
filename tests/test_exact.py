import numpy as np
import pytest

from enlca import exact
from enlca.enla import EnlaConfig, enla_forward, normalize_and_scale
from enlca.exact import (
    attention_row_entropies,
    correlation_map,
    exact_attention,
    shannon_entropy,
)
from enlca.matrices import NumericError, RngSpec, ShapeError, gaussian_sample

from oracles import columns, naive_attention


def seeded_instance(seed, c=3, c_out=3, n=4):
    base = RngSpec(seed)
    q = gaussian_sample(base.stream(1), c, n)
    k = gaussian_sample(base.stream(2), c, n)
    v = gaussian_sample(base.stream(3), c_out, n)
    return q, k, v


def test_single_position_passes_values_through():
    q, k, v = seeded_instance(0, n=1)
    out = exact_attention(q, k, v, keep_weights=True)
    assert np.array_equal(out.y, v)
    assert np.array_equal(out.weights, [[1.0]])


def test_zero_features_give_uniform_mixing():
    v = gaussian_sample(RngSpec(1), 5, 9)
    out = exact_attention(np.zeros((4, 9)), np.zeros((4, 9)), v)
    expected = np.repeat(v.mean(axis=1, keepdims=True), 9, axis=1)
    assert np.abs(out.y - expected).max() < 1e-12


def test_against_scalar_oracle():
    q, k, v = seeded_instance(7)
    expected = np.array(naive_attention(columns(q), columns(k), columns(v))).T
    out = exact_attention(q, k, v)
    assert np.abs(out.y - expected).max() < 1e-12


def test_rows_are_stochastic():
    q, k, v = seeded_instance(3, c=4, c_out=2, n=12)
    weights = exact_attention(q, k, v, keep_weights=True).weights
    assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-9
    assert (weights >= 0).all() and (weights <= 1).all()


def test_key_value_permutation_invariance():
    q, k, v = seeded_instance(11, n=10)
    perm = RngSpec(5).generator().permutation(10)
    base = exact_attention(q, k, v).y
    permuted = exact_attention(q, k[:, perm], v[:, perm]).y
    assert np.abs(base - permuted).max() < 1e-12


def test_query_permutation_equivariance():
    q, k, v = seeded_instance(13, n=10)
    perm = RngSpec(6).generator().permutation(10)
    base = exact_attention(q, k, v).y
    permuted = exact_attention(q[:, perm], k, v).y
    assert np.abs(base[:, perm] - permuted).max() < 1e-12


def test_key_shift_invariance():
    q, k, v = seeded_instance(17, n=8)
    offset = gaussian_sample(RngSpec(8), 3, 1)
    shifted = exact_attention(q, k + offset, v).y
    assert np.abs(exact_attention(q, k, v).y - shifted).max() < 1e-9


def test_chunking_does_not_change_results(monkeypatch):
    q, k, v = seeded_instance(19, c=5, c_out=4, n=37)
    monkeypatch.setattr(exact, "CHUNK", 37)
    full = exact_attention(q, k, v).y
    monkeypatch.setattr(exact, "CHUNK", 3)
    tiny = exact_attention(q, k, v).y
    assert np.abs(full - tiny).max() < 1e-12


def test_repeat_calls_are_bitwise_identical():
    q, k, v = seeded_instance(23, n=20)
    assert np.array_equal(exact_attention(q, k, v).y, exact_attention(q, k, v).y)


def test_shape_validation():
    with pytest.raises(ShapeError):
        exact_attention(np.zeros((3, 4)), np.zeros((2, 4)), np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        exact_attention(np.zeros((3, 4)), np.zeros((3, 4)), np.zeros((3, 5)))


# Malformed (q, k, v) triples; the oracle and the randomized forward share one contract.
MALFORMED_QKV = {
    "channel mismatch": ((3, 4), (2, 4), (3, 4)),
    "q/k position mismatch": ((3, 4), (3, 5), (3, 4)),
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

    @pytest.mark.parametrize("call", [
        lambda q, k: correlation_map(q, k, 0),
        attention_row_entropies,
    ], ids=["correlation_map", "attention_row_entropies"])
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
    ], ids=["empty", "2-D", "negative", "nan"])
    def test_rejects_non_distribution(self, p, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            shannon_entropy(p)

    def test_one_hot_rows_are_positive_zero(self):
        # logits 900 apart: every weight row is exactly one-hot
        entropies = attention_row_entropies([[30.0, -30.0]], [[30.0, -30.0]])
        assert np.array_equal(np.copysign(1.0, entropies), [1.0, 1.0])

    def test_row_entropies_match_weights(self):
        q, k, v = seeded_instance(37, c=4, c_out=2, n=15)
        weights = exact_attention(q, k, v, keep_weights=True).weights
        expected = np.array([shannon_entropy(row) for row in weights])
        assert np.abs(attention_row_entropies(q, k) - expected).max() < 1e-12


class TestOverflowingLogits:
    """A weight row whose largest logit is not finite has no softmax: the
    oracle names its query column instead of returning NaN."""

    # query column 1 meets the keys at +inf and -inf; column 0 stays finite
    Q = np.array([[1.0, 1e300]])
    K = np.array([[1e300, -1e300]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [
        lambda q, k: exact_attention(q, k, np.ones((1, 2))),
        lambda q, k: exact_attention(q, k, np.ones((1, 2)), keep_weights=True),
        lambda q, k: correlation_map(q, k, 1),
        lambda q, k: attention_row_entropies(q, k),
    ], ids=["exact_attention", "exact_attention weights", "correlation_map", "attention_row_entropies"])
    def test_names_query_column(self, call):
        with pytest.raises(NumericError, match="^attention logits overflowed at query column 1$"):
            call(self.Q, self.K)

    @pytest.mark.filterwarnings("error")
    def test_all_negative_infinite_row(self):
        with pytest.raises(NumericError, match="query column 0"):
            correlation_map([[-1e300]], [[1e300, 2e300]], 0)

    @pytest.mark.filterwarnings("error")
    def test_names_column_of_later_chunk(self, monkeypatch):
        monkeypatch.setattr(exact, "CHUNK", 2)
        q = np.array([[1.0, 2.0, 0.5, 1e300, 1.0]])
        k = np.array([[1.0, 1e300, 0.0, 2.0, 1.0]])
        with pytest.raises(NumericError, match="query column 3$"):
            exact_attention(q, k, np.ones((2, 5)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e150, 1.3e154])
    def test_huge_finite_logits_match_oracle(self, scale):
        # logits near +-scale^2; at 1.3e154 they sit near the float limit and
        # their difference from the row max overflows to -inf, a zero weight
        q = np.array([[scale, -scale, 0.5 * scale], [1.0, 2.0, -1.0]])
        k = np.array([[scale, -0.5 * scale, -scale], [0.5, -1.0, 3.0]])
        v = np.array([[1.0, -2.0, 3.0], [0.25, 0.5, -0.75]])
        with np.errstate(over="ignore"):  # the oracle subtracts numpy scalars
            expected = np.array(naive_attention(columns(q), columns(k), columns(v))).T
        assert np.abs(exact_attention(q, k, v).y - expected).max() < 1e-12
