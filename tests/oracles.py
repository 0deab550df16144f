"""Independent brute-force reimplementations used as test oracles, and
readers for the library's output formats that only tests need.

Everything here is deliberately scalar-loop Python over plain lists, or
plain numpy evaluated literally as the formula reads, so these stay
independent of the optimized code paths they check.
"""

import decimal
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
    """Random-feature attention for projection rows f (m x c), q (c x N_q),
    k (c x N_k) and v (c_out x N_k), unstabilized, with the numerator and the normalizer
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


def decimal_forward(f, q, k, v, digits=60):
    """The random-feature attention output for projection rows f (m x c),
    q (c x N_q), k (c x N_k) and v (c_out x N_k), evaluated in `digits`-digit decimal
    arithmetic from the exact values of the float64 inputs. Each weight
    sum_l exp(a_lj + b_li), a = F q - |q|^2 / 2 and b = F k - |k|^2 / 2, is
    taken in log space, as the forward takes it: each row l of b is shifted
    by its own max t_l, and a_lj + t_l by each query's max over l, which
    cancel in the ratio. So the largest terms are 1, no term overflows, and
    every query's total holds a term 1 times a key sum of at least 1."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.Emax, ctx.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        rows = [[decimal.Decimal(x) for x in row] for row in f.tolist()]

        def exponents(u):
            """a or b as a list of m rows, one entry per column of u."""
            out = [[] for _ in rows]
            for col in columns(u):
                col = [decimal.Decimal(x) for x in col]
                half_sq = sum(x * x for x in col) / 2
                for row, a in zip(rows, out):
                    a.append(sum(r * x for r, x in zip(row, col)) - half_sq)
            return out

        b = exponents(k)
        b_tops = [max(row) for row in b]
        key_terms = [[(x - top).exp() for x in row] for row, top in zip(b, b_tops)]
        values = [[decimal.Decimal(x) for x in col] for col in columns(v)]
        outputs = []
        for a in zip(*exponents(q)):
            a = [x + top for x, top in zip(a, b_tops)]
            a_top = max(a)
            query_terms = [(x - a_top).exp() for x in a]
            weights = [sum(t * row[i] for t, row in zip(query_terms, key_terms))
                       for i in range(len(values))]
            total = sum(weights)
            outputs.append([float(sum(w * col[r] for w, col in zip(weights, values)) / total)
                            for r in range(len(values[0]))])
    return np.array(outputs).T


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
