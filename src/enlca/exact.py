"""Exact quadratic-cost non-local attention.

Every output position is the softmax-weighted sum of all value columns,
with weights exp(q_i . k_j) normalized per query. This is the slow,
trustworthy baseline that the linear-complexity path is checked against.

Evaluation is chunked over query positions, CHUNK at a time, and each
chunk's weight rows are formed and softmax-normalized in place in one
reused CHUNK x N buffer, so the N x N weight matrix is never
materialized unless explicitly requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matrices import NumericError, ShapeError, _validated_qkv, as_matrix

# Query positions per chunk of weight rows: the transient is CHUNK x N.
CHUNK = 256

__all__ = [
    "AttentionOutput",
    "attention_row_entropies",
    "correlation_map",
    "exact_attention",
    "shannon_entropy",
]


@dataclass(frozen=True)
class AttentionOutput:
    """Result of exact attention: y is c_out x N; weights (N x N, row i =
    weights of query i) is populated only when keep_weights was set."""

    y: np.ndarray
    weights: Optional[np.ndarray] = None


def _validated_qk(q, k):
    """q and k with equal channel counts; their position counts may differ."""
    q = as_matrix(q, "q")
    k = as_matrix(k, "k")
    if q.shape[0] != k.shape[0]:
        raise ShapeError(f"q and k need equal channel counts, got {q.shape} vs {k.shape}")
    return q, k


def _softmax_rows(logits: np.ndarray, first_column: int) -> np.ndarray:
    """Softmax of each row, computed in place; returns `logits`. Row i holds
    query column first_column + i; a row whose max is not finite (a logit
    overflowed or is NaN) has no softmax and raises NumericError naming it."""
    top = logits.max(axis=1, keepdims=True)
    bad = np.flatnonzero(~np.isfinite(top))
    if bad.size:
        raise NumericError(f"attention logits overflowed at query column {first_column + int(bad[0])}")
    with np.errstate(over="ignore"):  # a logit far below the max goes to -inf: weight 0
        logits -= top
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _row_entropies(p: np.ndarray) -> np.ndarray:
    """Entropy in nats of each row of a non-negative matrix; zero entries contribute 0, one-hot rows +0."""
    return 0.0 - (p * np.log(np.where(p > 0, p, 1.0))).sum(axis=1)


def _weight_rows(q, k):
    """Yield (start, stop, w) with w the exact weight rows of queries
    start..stop-1 against all keys, CHUNK queries at a time. Every w is a
    view of one reused CHUNK x N buffer, valid until the next step."""
    n = q.shape[1]
    buffer = np.empty((min(n, CHUNK), k.shape[1]))
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        w = buffer[:stop - start]
        with np.errstate(over="ignore", invalid="ignore"):  # _softmax_rows names the column
            np.matmul(q[:, start:stop].T, k, out=w)
        yield start, stop, _softmax_rows(w, start)


def exact_attention(q, k, v, keep_weights: bool = False) -> AttentionOutput:
    """Full-precision attention output for q, k (c x N) and v (c_out x N).

    Transient memory is O(CHUNK * N); weights are stored only when
    keep_weights is True, which costs O(N^2) memory.
    """
    q, k, v = _validated_qkv(q, k, v)
    n = q.shape[1]
    y = np.empty((v.shape[0], n), dtype=np.float64)
    weights = np.empty((n, n), dtype=np.float64) if keep_weights else None
    for start, stop, w in _weight_rows(q, k):
        y[:, start:stop] = v @ w.T
        if keep_weights:
            weights[start:stop] = w
    return AttentionOutput(y=y, weights=weights)


def correlation_map(q, k, query_index: int) -> np.ndarray:
    """Softmax-normalized relevance of one query position against all
    positions: length-N vector. Reshaping to an h x w image is the
    caller's concern."""
    q, k = _validated_qk(q, k)
    if not 0 <= query_index < q.shape[1]:
        raise IndexError(f"query_index {query_index} out of range for {q.shape[1]} positions")
    with np.errstate(over="ignore", invalid="ignore"):  # _softmax_rows names the column
        logits = k.T @ q[:, query_index]
    return _softmax_rows(logits[None, :], query_index)[0]


def shannon_entropy(p) -> float:
    """Entropy in nats of a probability vector; zero entries contribute 0."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ShapeError("entropy expects a non-empty 1-D vector")
    if (p < 0).any() or not np.isfinite(p).all():
        raise ValueError("entropy expects non-negative finite probabilities")
    return float(_row_entropies(p[None, :])[0])


def attention_row_entropies(q, k) -> np.ndarray:
    """Per-query Shannon entropy of the exact attention weight rows,
    computed without holding the full weight matrix."""
    q, k = _validated_qk(q, k)
    out = np.empty(q.shape[1], dtype=np.float64)
    for start, stop, w in _weight_rows(q, k):
        out[start:stop] = _row_entropies(w)
    return out
