"""Independent brute-force reimplementations used as test oracles, and
readers for the library's output formats that only tests need.

Everything here is deliberately scalar-loop Python over plain lists, or
plain numpy evaluated literally as the formula reads, so these stay
independent of the optimized code paths they check.
"""

import math
from pathlib import Path

import numpy as np

from enlca.matrices import FormatError


def naive_attention(q_cols, k_cols, v_cols):
    """q_cols holds query column vectors; k_cols/v_cols hold the key and
    value column vectors, one per position. Returns the output columns,
    one per query."""
    out = []
    for i in range(len(q_cols)):
        logits = []
        for j in range(len(k_cols)):
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
    computed on separate paths. Returns (output, normalizer).

    The output leaves out each query's factor exp(-|q|^2 / 2), which
    cancels in its column, so a query whose exponents all underflow still
    has an output; the normalizer keeps it."""
    scale = 1.0 / math.sqrt(f.shape[0])
    pq = scale * np.exp(f @ q - 0.5 * (q * q).sum(axis=0))
    pk = scale * np.exp(f @ k - 0.5 * (k * k).sum(axis=0))
    eq = scale * np.exp(f @ q)
    numerator = (v @ pk.T) @ eq
    normalizer = pk.sum(axis=1) @ pq
    return numerator / (pk.sum(axis=1) @ eq), normalizer


def stabilized_normalizer(f, q, k):
    """The forward's normalizer per query in its stabilized units: the
    two-path normalizer times m exp(|q_j|^2 / 2 - max_l f_l . q_j - S_K),
    with S_K the max over keys of F k - |k|^2 / 2. Evaluated as
    kappa . exp(F q_j - max_l f_l . q_j), kappa_l = sum_i exp(f_l . k_i -
    |k_i|^2 / 2 - S_K), so it stays in range at norms where the two-path
    normalizer underflows."""
    exponent = f @ k - 0.5 * (k * k).sum(axis=0)
    kappa = np.exp(exponent - exponent.max()).sum(axis=1)
    fq = f @ q
    return kappa @ np.exp(fq - fq.max(axis=0))


def philox_gaussian(seed, stream_id, rows, cols):
    """rows x cols standard normals from the Philox stream keyed by
    (seed, stream_id mod 2^64), drawn in one call."""
    key = np.array([seed, stream_id % 2**64], dtype=np.uint64)
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


def projection_estimate(f, q, k):
    """phi(q) . phi(k) for one m x c projection f, which collapses to
    exp(-(|q|^2 + |k|^2) / 2) * mean exp(f (q + k)), evaluated with the
    max of f (q + k) shifted out."""
    g = f @ (q + k)
    top = float(g.max())
    log_const = -0.5 * (float(q @ q) + float(k @ k))
    return math.exp(top + log_const) * float(np.exp(g - top).mean())


def stream_estimates(q, k, m, trials, seed, stream_id=0):
    """iid estimator samples per the stream contract: trial t draws an
    m x c projection from Philox key (seed, stream_id + 1 + t mod 2^64)."""
    return np.array([projection_estimate(philox_gaussian(seed, stream_id + 1 + t, m, q.size), q, k)
                     for t in range(trials)])


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


def read_pgm(src):
    """Parse a binary P5 image (a path or an open binary file) into a
    height x width uint8 array."""
    blob = Path(src).read_bytes() if isinstance(src, (str, Path)) else src.read()
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise ValueError("not a binary P5 image")
    width, height = (int(tok) for tok in parts[1].split())
    if parts[2] != b"255":
        raise ValueError(f"unsupported maxval {parts[2]!r}")
    payload = parts[3]
    if len(payload) != width * height:
        raise ValueError(f"payload holds {len(payload)} bytes, expected {width * height}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width)


def read_sweep_csv(src):
    """Parse a sweep CSV (a path or an open text file) into its header
    fields and data rows."""
    text = Path(src).read_text() if isinstance(src, (str, Path)) else src.read()
    lines = [line for line in text.splitlines() if line]
    if not lines or not lines[0].startswith("# "):
        raise FormatError("sweep CSV must start with a '# ' header line")
    meta = {}
    for token in lines[0][2:].split():
        key, _, value = token.partition("=")
        meta[key] = value
    try:
        rows = [tuple(float(f) for f in line.split(",")) for line in lines[1:]]
    except ValueError as exc:
        raise FormatError(f"bad sweep row: {exc}") from None
    return meta, rows
