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


def philox_gaussian(seed, stream_id, rows, cols):
    """rows x cols standard normals from the Philox stream keyed by
    (seed, stream_id), drawn in one call."""
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal((rows, cols))


def gram_schmidt_rows(block):
    """Orthonormal rows by Gram-Schmidt, run twice per row to keep
    orthogonality at machine precision."""
    q = np.empty_like(block)
    for i in range(block.shape[0]):
        v = block[i].copy()
        for _ in range(2):
            v -= q[:i].T @ (q[:i] @ v)
        q[i] = v / np.linalg.norm(v)
    return q


def block_gram_schmidt(gaussian, c):
    """The orthogonal projection built from an m x c Gaussian draw: each
    block of up to c rows gets Gram-Schmidt directions scaled by the
    block's original row norms."""
    blocks = []
    for start in range(0, gaussian.shape[0], c):
        block = gaussian[start:start + c]
        blocks.append(gram_schmidt_rows(block) * np.linalg.norm(block, axis=1)[:, None])
    return np.vstack(blocks)


def stream_estimates(q, k, m, trials, seed, stream_id=0):
    """iid estimator samples per the stream contract: trial t draws an
    m x c projection F from Philox key (seed, stream_id + 1 + t), and
    phi(q) . phi(k) = exp(-(|q|^2 + |k|^2) / 2) * mean exp(F (q + k)),
    evaluated with the max of F (q + k) shifted out."""
    z = q + k
    log_const = -0.5 * (float(q @ q) + float(k @ k))
    out = []
    for t in range(trials):
        g = philox_gaussian(seed, stream_id + 1 + t, m, q.size) @ z
        top = float(g.max())
        out.append(math.exp(top + log_const) * float(np.exp(g - top).mean()))
    return np.array(out)


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
