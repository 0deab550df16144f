"""Exact quadratic-cost non-local attention.

Every output position is the softmax-weighted sum of all value columns,
with weights exp(q_i . k_j) normalized per query. This is the slow,
trustworthy baseline that enla is checked against, so it imports nothing
from enla.

Every entry point takes one contract, `_validated_qkv`, on any sample
of query columns, q[:, cols]. One block loop, `_weight_rows`, serves
outputs, weights and entropies, so the N_q x N_k matrix exists only in
`attention_weights`. The forward's float-range rule (`matrices._headroom`)
holds here too: value rows enter at unit scale, and logits against
k - k_0 within the headroom (`_logit_keys`) go to exp unshifted, since no
sum of N_k weighted values can then overflow; any other input takes a
row max (`_softmax_rows`). Every N-sized block comes from
`matrices._aligned_empty`.
"""

from __future__ import annotations

import numpy as np

from .matrices import NumericError, ShapeError, _aligned_empty, _headroom, _unit_exponent, as_matrix

# The oracle's block rule (see _block_rows)
MAX_ROWS = 256
_BLOCK_BYTES = 512 * 1024
_MIN_ROWS = 16
_MAX_SHRINK_CHANNELS = 16  # largest c + c_out whose blocks shrink

__all__ = [
    "attention_row_entropies",
    "attention_weights",
    "exact_attention",
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


def _block_rows(n: int, c: int, c_out: int) -> int:
    """Query rows per block against n keys, for c-channel q and k and a
    c_out-row v (0 for the entropies, which stage only the row of ones):
    when c + c_out <= 16, as many as fit in 512 KiB, so that a block's
    passes run from L2, unless fewer than 16 fit; else, and at most,
    MAX_ROWS = 256. Wider oracles repack all of k and v for every block, so
    shorter blocks measured slower there, and so did every other rule tried
    (`BENCH_oracle_block.json` `block_grid` and `rules_rejected`)."""
    rows = min(MAX_ROWS, _BLOCK_BYTES // (8 * n))
    shrinks = c + c_out <= _MAX_SHRINK_CHANNELS and rows >= _MIN_ROWS
    return rows if shrinks else MAX_ROWS


def _logit_keys(q, k):
    """The keys of the logit GEMM and whether its logits go to exp with no
    row max: k - k_0, which moves each row by the constant q_i . k_0 and
    makes its key-0 weight exactly 1, when max|q_i| max|k_j - k_0| is
    within the headroom of a sum of N_k weights (`matrices._headroom`), so
    that every weight lies in [e^-U, e^U]; else k itself."""
    with np.errstate(over="ignore", invalid="ignore"):  # a huge q or k: an inf or NaN reach, so row max
        relative = k - k[:, :1]
        reach = np.sqrt((q * q).sum(axis=0).max() * (relative * relative).sum(axis=0).max())
    if reach <= _headroom(k.shape[1]):
        return relative, True
    return k, False


def _weight_rows(q, k, staged):
    """Yield (start, stop, w, s) for each block of _block_rows columns of q:
    w holds the weight rows of q's columns start..stop-1 against all keys,
    unnormalized, and s = staged @ w.T, so that with staged's last row all
    ones s[-1] holds their normalizers. Every w is a view of one reused
    buffer, valid until the next step. An overflowing row is named by its
    column in q as given; a caller that sliced q names its own column."""
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
            _softmax_rows(w, start)
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


def attention_row_entropies(q, k) -> np.ndarray:
    """Per-query Shannon entropy in nats of the exact attention weight rows,
    computed without holding the full weight matrix; a one-hot row's is +0."""
    q, k = _validated_qkv(q, k)
    out = np.empty(q.shape[1], dtype=np.float64)
    for start, stop, w, s in _weight_rows(q, k, np.ones((1, k.shape[1]))):
        w /= s.T
        # the one scratch block: log w, with a zero weight's log taken at the
        # smallest subnormal, finite, so that its term w log w is 0 and not NaN
        log = np.maximum(w, np.finfo(np.float64).smallest_subnormal)
        np.log(log, out=log)
        w *= log
        out[start:stop] = 0.0 - w.sum(axis=1)
    return out
