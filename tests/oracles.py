"""Independent brute-force reimplementations used as test oracles.

Everything here is deliberately scalar-loop Python over plain lists, or
plain numpy evaluated literally as the formula reads, so these stay
independent of the optimized code paths they check.
"""

import math

import numpy as np


def naive_attention(q_cols, k_cols, v_cols):
    """q_cols/k_cols/v_cols are lists of column vectors (length N each).
    Returns the output columns, one per query."""
    n = len(q_cols)
    out = []
    for i in range(n):
        logits = []
        for j in range(n):
            logits.append(sum(qa * ka for qa, ka in zip(q_cols[i], k_cols[j])))
        top = max(logits)
        exps = [math.exp(x - top) for x in logits]
        total = sum(exps)
        weights = [e / total for e in exps]
        column = [0.0] * len(v_cols[0])
        for j, w in enumerate(weights):
            for ch in range(len(column)):
                column[ch] += w * v_cols[j][ch]
        out.append(column)
    return out


def two_path_forward(f, q, k, v):
    """Random-feature attention for projection rows f (m x c), q, k (c x N)
    and v (c_out x N), unstabilized, with the numerator and the normalizer
    computed on separate paths. Returns (output, normalizer)."""
    scale = 1.0 / math.sqrt(f.shape[0])
    pq = scale * np.exp(f @ q - 0.5 * (q * q).sum(axis=0))
    pk = scale * np.exp(f @ k - 0.5 * (k * k).sum(axis=0))
    numerator = (v @ pk.T) @ pq
    normalizer = pk.sum(axis=1) @ pq
    return numerator / normalizer, normalizer


def naive_contrastive(t_rows, n1, n2, b):
    """Scalar reimplementation of the sorted-group log-ratio loss."""
    n = len(t_rows[0])
    p = math.floor(n1 * n)
    start = math.floor(n2 * n)
    assert p >= 1 and start + p <= n
    total = 0.0
    for row in t_rows:
        ordered = sorted(row, reverse=True)
        num = sum(math.exp(x) for x in ordered[:p]) / p
        den = sum(math.exp(x) for x in ordered[start:start + p]) / p
        total += -math.log(num / den) + b
    return total / len(t_rows)


def naive_mean_abs_diff(a_rows, b_rows):
    total = 0.0
    count = 0
    for ra, rb in zip(a_rows, b_rows):
        for x, y in zip(ra, rb):
            total += abs(x - y)
            count += 1
    return total / count


def columns(matrix):
    """Column vectors of a 2-D array-like, as plain lists."""
    rows = [list(r) for r in matrix]
    return [[rows[i][j] for i in range(len(rows))] for j in range(len(rows[0]))]
