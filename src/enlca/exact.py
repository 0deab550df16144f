"""Exact quadratic-cost non-local attention.

Every output position is the softmax-weighted sum of all value columns,
with weights exp(q_i . k_j) normalized per query. This is the slow,
trustworthy baseline that enla is checked against, so it imports nothing
from enla.

Every entry point takes one contract, _validated_qkv: q is c x N_q and k
c x N_k with equal channel counts, v is c_out x N_k, so any sample of
query columns is scored against all keys. One block loop, _weight_rows,
serves outputs, weights, maps and entropies: it runs over the q it is
given in blocks of rows, in one reused rows x N_k buffer, so the
N_q x N_k matrix exists only in attention_weights. A block takes three
passes: the logit GEMM, exp in place and one GEMM with the staged rows,
whose last row, all ones, gives each query's normalizer. The output
stages [2^-e v; 1] and is divided by that row once, at the end; the
others stage the ones alone.

The forward's float-range rule (matrices._headroom) holds here too: each
value row v_r enters as 2^-e_r v_r, max|v_r| 2^-e_r in [0.5, 1), and its
output row is scaled back by 2^e_r after the divide, so the headroom of
N_k weights, min(U, log(MAX / 2) - log(N_k)), and the shift are fixed
before the logit GEMM: the logits are formed against k - k_0, which
moves each row by the constant q_i . k_0, so each row's key-0 weight is
exactly exp(0) = 1. When max|q_i| max|k_j - k_0|, over the given
queries, is within the headroom, every weight lies in [e^-U, e^U] and no
sum of N_k weighted values can overflow. Any other input (a product that
is not finite or above that bound) takes the row max of _softmax_rows,
which names a query column whose logits overflowed, and every weight is
at most 1. Either way the staged row of ones normalizes.

The weight buffer, the staged values and the output start on a cache line
(matrices._aligned_empty, which states the rule and its measured effect).

A small-channel oracle (c + c_out <= 16, such as the approximation
sweep's c = c_out = 8) takes blocks as tall as fit in 512 KiB, so that
their passes run from L2: 32 rows at N = 2048. Those blocks already sit
under the bound that the forward's tiles keep (enla._tiles): at
c = c_out = 8 a block's logit GEMM is 32 x 2048 x 8 = 0.52 M
multiply-adds and its value GEMM 32 x 2048 x 9 = 0.59 M, both within
OpenBLAS's small-matrix limit. Wider oracles, and long
ones where fewer than 16 rows would fit, keep blocks of MAX_ROWS = 256
rows: there the GEMMs, which repack all of k and v for every block, carry
more of the cost, and shorter blocks measured slower.
"""

from __future__ import annotations

import numpy as np

from .matrices import NumericError, ShapeError, _aligned_empty, _headroom, _is_integer, _unit_exponent, as_matrix

# Block height, the rows of the rows x N weight transient (see the module
# docstring); the values come from a grid of heights timed over N and c.
MAX_ROWS = 256
_BLOCK_BYTES = 512 * 1024
_MIN_ROWS = 16
_MAX_SHRINK_CHANNELS = 16  # largest c + c_out whose blocks shrink

__all__ = [
    "attention_row_entropies",
    "attention_weights",
    "correlation_map",
    "exact_attention",
    "shannon_entropy",
]


def _validated_qkv(q, k, v=None):
    """q and k with equal channel counts, their column counts free, and v,
    if given, with a column per key: (q, k) or (q, k, v)."""
    q = as_matrix(q, "q")
    k = as_matrix(k, "k")
    if q.shape[0] != k.shape[0]:
        raise ShapeError(f"q and k need equal channel counts, got {q.shape} vs {k.shape}")
    if v is None:
        return q, k
    v = as_matrix(v, "v")
    if v.shape[1] != k.shape[1]:
        raise ShapeError(f"v has {v.shape[1]} positions, k has {k.shape[1]}")
    return q, k, v


def _softmax_rows(logits: np.ndarray, first_column: int) -> np.ndarray:
    """The softmax of each row up to its normalizer, exp(logit - row max),
    computed in place; returns `logits`, whose rows each hold a weight of 1.
    Row i holds query column first_column + i; a row whose max is not
    finite (a logit overflowed or is NaN) has no softmax and raises
    NumericError naming it."""
    top = logits.max(axis=1, keepdims=True)
    bad = np.flatnonzero(~np.isfinite(top))
    if bad.size:
        raise NumericError(f"attention logits overflowed at query column {first_column + int(bad[0])}")
    with np.errstate(over="ignore"):  # a logit far below the max goes to -inf: weight 0
        logits -= top
    np.exp(logits, out=logits)
    return logits


def _row_entropies(p: np.ndarray) -> np.ndarray:
    """Entropy in nats of each row of a non-negative matrix, formed in p's
    place (p is overwritten); zero entries contribute 0, one-hot rows +0."""
    # the one scratch block: log p, with a zero entry's log taken at the
    # smallest subnormal, finite, so that its term p log p is 0 and not NaN
    log = np.maximum(p, np.finfo(np.float64).smallest_subnormal)
    np.log(log, out=log)
    p *= log
    return 0.0 - p.sum(axis=1)


def _block_rows(n: int, c: int, c_out: int) -> int:
    """Query rows per block against n keys, for c-channel q and k and a
    c_out-row v (0 for the entropies, which stage only the row of ones)."""
    rows = min(MAX_ROWS, _BLOCK_BYTES // (8 * n))
    shrinks = c + c_out <= _MAX_SHRINK_CHANNELS and rows >= _MIN_ROWS
    return rows if shrinks else MAX_ROWS


def _logit_keys(q, k):
    """The keys of the logit GEMM and whether its logits go to exp with no
    row max: k - k_0 when max|q_i| max|k_j - k_0| is within the headroom
    of a sum of N_k weights (see the module docstring); else k itself."""
    with np.errstate(over="ignore", invalid="ignore"):  # a huge q or k: an inf or NaN reach, so row max
        relative = k - k[:, :1]
        reach = np.sqrt((q * q).sum(axis=0).max() * (relative * relative).sum(axis=0).max())
    if reach <= _headroom(k.shape[1]):
        return relative, True
    return k, False


def _weight_rows(q, k, staged, first=0):
    """Yield (start, stop, w, s) for each block of _block_rows columns of q:
    w holds the weight rows of q's columns start..stop-1 against all keys,
    unnormalized, and s = staged @ w.T, so that with staged's last row all
    ones s[-1] holds their normalizers. Every w is a view of one reused
    buffer, valid until the next step. `first` is the caller's number for
    q's column 0, which only the error naming an overflowing column reads."""
    keys, unshifted = _logit_keys(q, k)
    n_q = q.shape[1]
    rows = _block_rows(k.shape[1], q.shape[0], staged.shape[0] - 1)
    buffer = _aligned_empty((min(n_q, rows), k.shape[1]))
    for start in range(0, n_q, rows):
        stop = min(start + rows, n_q)
        w = buffer[:stop - start]
        with np.errstate(over="ignore", invalid="ignore"):  # _softmax_rows names the column
            np.matmul(q[:, start:stop].T, keys, out=w)
        if unshifted:
            np.exp(w, out=w)
        else:
            _softmax_rows(w, first + start)
        yield start, stop, w, staged @ w.T


def exact_attention(q, k, v) -> np.ndarray:
    """Full-precision c_out x N_q attention output for q (c x N_q), k
    (c x N_k) and v (c_out x N_k): column i is query i's, over all keys.

    Transient memory is one block of at most MAX_ROWS x N_k, the c x N_k
    key-relative copy and the (c_out + 1) x N_k staged values.
    """
    q, k, v = _validated_qkv(q, k, v)
    c_out, n = v.shape
    e = _unit_exponent(v)
    staged = _aligned_empty((c_out + 1, n))
    np.ldexp(v, -e, out=staged[:-1])
    staged[-1] = 1.0
    out = _aligned_empty((c_out + 1, q.shape[1]))
    for start, stop, _, s in _weight_rows(q, k, staged):
        out[:, start:stop] = s
    out[:-1] /= out[-1]
    np.ldexp(out[:-1], e, out=out[:-1])
    return out[:-1]


def attention_weights(q, k) -> np.ndarray:
    """The N_q x N_k exact attention weights of q (c x N_q) against k
    (c x N_k), row i those of query i; the one O(N^2) array of the oracle."""
    q, k = _validated_qkv(q, k)
    weights = np.empty((q.shape[1], k.shape[1]))
    for start, stop, w, s in _weight_rows(q, k, np.ones((1, k.shape[1]))):
        np.divide(w, s.T, out=weights[start:stop])
    return weights


def correlation_map(q, k, query_index: int) -> np.ndarray:
    """Softmax-normalized relevance of one query position against all
    keys: length-N_k vector, row query_index of attention_weights.
    Reshaping to an h x w image is the caller's concern."""
    q, k = _validated_qkv(q, k)
    if not _is_integer(query_index):
        raise ValueError(f"query_index must be an integer, got {query_index}")
    if not 0 <= query_index < q.shape[1]:
        raise IndexError(f"query_index {query_index} out of range for {q.shape[1]} positions")
    _, _, w, s = next(_weight_rows(q[:, query_index:query_index + 1], k, np.ones((1, k.shape[1])), query_index))
    return w[0] / s[0, 0]


def shannon_entropy(p) -> float:
    """Entropy in nats of a probability vector; zero entries contribute 0.
    Entries must lie in [0, 1] and their sum within N eps of 1, the
    rounding a vector normalized by its own sum can carry."""
    p = np.array(p, dtype=np.float64)  # a copy: _row_entropies overwrites it
    if p.ndim != 1 or p.size < 1:
        raise ShapeError("entropy expects a non-empty 1-D vector")
    if (p < 0).any() or not np.isfinite(p).all():
        raise ValueError("entropy expects non-negative finite probabilities")
    # no entry above 1 first, so that the sum cannot overflow
    if (p > 1).any() or abs(p.sum() - 1.0) > p.size * np.finfo(np.float64).eps:
        raise ValueError("entropy expects probabilities of at most 1 that sum to 1")
    return float(_row_entropies(p[None, :])[0])


def attention_row_entropies(q, k) -> np.ndarray:
    """Per-query Shannon entropy of the exact attention weight rows,
    computed without holding the full weight matrix."""
    q, k = _validated_qkv(q, k)
    out = np.empty(q.shape[1], dtype=np.float64)
    for start, stop, w, s in _weight_rows(q, k, np.ones((1, k.shape[1]))):
        w /= s.T
        out[start:stop] = _row_entropies(w)
    return out
