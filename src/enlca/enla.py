"""Linear-complexity attention forward and a shape-preserving block.

The forward replaces every exp(q_i . k_j) with the random-feature
estimator and uses associativity: kv = phi(K) [V^T | 1] (m x (c_out + 1))
is reduced first, then multiplied by phi(Q)^T, so no N_q x N_k object
exists and one GEMM yields both the numerator rows and the normalizer
row; N_q and N_k are free to differ. `_Forwards` sets up an instance
(q, k, v) once; each projection then runs a key pass, which reduces k
into kv, and a query pass, which multiplies q's features by kv, each
streaming its side in chunks and tiles (`_tiles`). The approximation
sweep sets up its instance once for all its trials and runs its sample
counts as row prefixes of one projection. The multiply-add count is
m N_k (c + c_out + 1) + m N_q (c + c_out + 1), of which m N_k + m N_q is
the normalizer: 2mNc + 2mN(c_out + 1) at N_q = N_k = N.
analysis.flop_count keeps the published convention, which excludes the
normalizer.

Query/key columns enter unit-normalized and scaled by sqrt(k_amp); k_amp > 1
sharpens the attention at the price of exponentially larger variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import _validated_qkv
# phi itself is unused here; perfbench/spans.py wraps it under this module's name.
from .features import _exp_features, _half_sq_norms, _overflow_check, _projected, phi, sample_projection  # noqa: F401
from .matrices import (
    NumericError, RngSpec, ShapeError, _aligned_empty, _headroom, _matrix_pair, _unit_exponent, as_matrix,
    check_settings, normalize_columns,
)

# The widest chunk of the forward (see _tiles), from `BENCH_chunked.json`
# `chunk_width_sweep`, made when the feature buffer held all m rows.
CHUNK = 2048
# OpenBLAS's small-matrix limit, the fewest rows worth a tile and the
# narrowest chunk (see _tiles)
_SMALL_GEMM_MNK = 100 ** 3
_MIN_TILE_ROWS = 24
W_MIN = 256

__all__ = [
    "EnlaConfig",
    "EnlcaBlockParams",
    "NormalizerUnderflowWarning",
    "block_inputs",
    "enla_forward",
    "enlca_block",
    "normalize_and_scale",
    "random_block_params",
]


class NormalizerUnderflowWarning(RuntimeWarning):
    """Never raised: every normalizer of the forward is at least 1. Still
    exported because the benchmark harness under perfbench/ counts it."""


@dataclass(frozen=True)
class EnlaConfig:
    """Settings for one randomized forward.

    The projection is drawn once per forward call from `rng`; callers that
    want a fresh projection (per epoch, per trial) pass a new stream.
    k_amp does nothing in `enla_forward`, which takes q and k already
    amplified; only `block_inputs` reads it, to amplify what it derives.
    """

    rng: RngSpec
    m: int = 128
    k_amp: float = 6.0
    orthogonal: bool = False

    def __post_init__(self):
        check_settings(m=self.m, k_amp=self.k_amp)


def normalize_and_scale(theta_out, delta_out, k_amp: float):
    """Turn raw query/key feature maps into amplified unit features.

    Each column is divided by its own norm (floored at 1e-12) and scaled by
    sqrt(k_amp), so every column of norm at least 1e-12 has norm sqrt(k_amp)
    and q_i . k_j = k_amp * cos(angle) stays within [-k_amp, k_amp]; a
    shorter column keeps norm sqrt(k_amp) |column| / 1e-12, less than that.
    """
    theta_out, delta_out = as_matrix(theta_out, "theta output"), as_matrix(delta_out, "delta output")
    check_settings(k_amp=k_amp)
    scale = np.sqrt(k_amp)
    return scale * normalize_columns(theta_out), scale * normalize_columns(delta_out)


def enla_forward(q, k, v, config: EnlaConfig) -> np.ndarray:
    """Randomized c_out x N_q attention output for q (c x N_q), k (c x N_k)
    and v (c_out x N_k): column i is query i's, over all keys, under the
    oracle's contract (`exact._validated_qkv`).

    Row l of kv has its own shift s_l, the max of f_l . k - |k|^2 / 2 over
    the keys, so its key sum is at least 1. Query column j is shifted by
    its max over l of f_l . q_j + s_l, whose term is exp(0) times a key sum
    of at least 1: every normalizer is at least 1 and none can underflow.
    Every shift cancels in the output ratio, so one column of extreme norm
    cannot push the features of the others out of float range. Both
    exponents come out of the feature GEMMs, on a lifted projection:
    [F | -1] [k_b; |k_b|^2 / 2] and [F | s] [q_b; 1].

    Each value row v_r enters as 2^-e_r v_r, max|v_r| 2^-e_r in [0.5, 1),
    and its output row is scaled back by 2^e_r after the divide, so every
    kv entry is at most N_k. With B = min(U, log(MAX / 2) - log(m N_k)),
    the headroom of a query's m N_k terms, a key chunk whose row maxima all
    lie in [-B, B], and a query chunk whose column maxima all lie in
    [0, B], run exp on their raw exponents; any other chunk is shifted in
    its block by those maxima (`features._exp_features`).

    Keys whose |k|^2 all overflow, and a query column whose every exponent
    is -inf, raise NumericError, as a projection of +inf does; that error
    names a key column or a query column.
    """
    forwards = _Forwards(q, k, v, [config.m])
    return forwards.project(sample_projection(config.rng, config.m, forwards.c, config.orthogonal).f)[0]


def _tiles(c: int, c_out: int, m: int):
    """(R, W): the most projection rows in one tile of a forward pass, or
    None (every row segment is then one tile), and the width of its chunks,
    at c channels, c_out value rows and m rows in the first row segment.
    The key pass takes it at m = 1, which gives the widest chunk, and the
    query pass at the first sample count m_1, so enla_forward(m_1) cuts a
    sweep's first prefix into the same tiles.

    The rule keeps each of a tile's three GEMMs (its features [F | s] u,
    R x (c + 1) by (c + 1) x W; its kv share, R x W by W x (c_out + 1); its
    output share, (c_out + 1) x R by R x W) within OpenBLAS's small-matrix
    permit, M N K <= 10^6, which skips the operand packing of its blocked
    path. W is the widest multiple of 8, OpenBLAS's column group, in
    [W_MIN, CHUNK] at which m rows keep the features and the output share
    within it, m W (max(c, c_out) + 1) <= 10^6, and
    R = 10^6 // (W (max(c, c_out) + 1)), never fewer rows than at m = 1.
    So the key pass runs (54, 2048) at c = c_out = 8 and (28, 2048) at 16,
    and the query pass (128, 456) at c = c_out = 16 and m_1 = 128, where
    the first segment is one tile and each chunk's output one GEMM. The
    permit's limit for a transposed first operand, M N <= 1200, never binds
    on the kv GEMM: at W = CHUNK the first limit keeps R (c_out + 1) <= 488.

    The rule has two limits: where the widest chunk leaves fewer than 24
    rows (max(c, c_out) of 20 and more) both passes keep their segments
    whole, at CHUNK columns, (None, CHUNK); and no chunk is narrower than
    W_MIN = 256 columns, which keeps per-chunk costs from dominating at
    large m. The GEMMs' cost per element jumps past the permit, fewer than
    24 rows lose to whole segments, query tiles do not pay at wide
    channels, a W_MIN of 512 buys nothing over 256, and one shape for both
    passes is slower (`BENCH_tiles.json` `gemm_grid` and
    `tile_size_variants`; `BENCH_query_tiles.json` `wide_channels` and
    `w_min_grid`; `BENCH_tile_rule.json` `one_shape_negative_result`).
    """
    depth = max(c, c_out) + 1
    if _SMALL_GEMM_MNK // (CHUNK * depth) < _MIN_TILE_ROWS:
        return None, CHUNK
    width = min(CHUNK, max(W_MIN, _SMALL_GEMM_MNK // (m * depth) // 8 * 8))
    return _SMALL_GEMM_MNK // (width * depth), width


class _Forwards:
    """enla_forward on one instance (q, k, v) at each sample count of the
    ascending list ms, for any number of projections of ms[-1] rows.

    Built once per instance: the validated q, k and v, v's row exponents
    e, the headroom B at m = ms[-1], and per pass the row segments
    [m_{i-1}, m_i), each cut into tiles from its first row, its chunk
    width (`_tiles` at m = 1 for the keys and at m_1 = ms[0] for the
    queries, clamped to N_k and N_q) and its layout of one working block.
    The block is one allocation, sized for the larger layout: as separate
    blocks, glibc trimmed their pages after each projection and the next
    faulted them back in (`BENCH_tiles.json` `heap_faults`).
    """

    def __init__(self, q, k, v, ms):
        self.q, self.k, self.v = _validated_qkv(q, k, v)
        (self.c, self.n_q), (c_out, n_k) = self.q.shape, self.v.shape
        self.e = _unit_exponent(self.v)
        self.bound = _headroom(ms[-1] * n_k)
        # the key pass's tile rows and chunk width, then the query pass's,
        # no chunk wider than its own side
        shapes = [(min(rows or ms[-1], ms[-1]), min(width, n))
                  for (rows, width), n in zip((_tiles(self.c, c_out, m) for m in (1, ms[0])), (n_k, self.n_q))]
        block = _aligned_empty((max((rows + self.c + c_out + 2) * width for rows, width in shapes),))
        ranges = list(zip([0, *ms[:-1]], ms))  # the row segments [m_{i-1}, m_i)
        # per pass: its row segments, each cut into tiles from its first row,
        # its chunk width and its layout of the one block: the feature tile,
        # the chunk's GEMM operand, [k_b; |k_b|^2 / 2] or [q_b; 1], and
        # c_out + 1 rows, which hold a key chunk's staged [2^-e V_b; 1],
        # whose last row makes the last column of kv the key sum, or a later
        # tile's share of a query chunk
        self.passes = [
            ([[(t, min(high, t + rows)) for t in range(low, high, rows)] for low, high in ranges], width,
             *np.split(block[:(rows + self.c + c_out + 2) * width].reshape(-1, width), np.cumsum([rows, self.c + 1])))
            for rows, width in shapes]

    def project(self, f) -> list:
        """The output for each sample count m in ms, in order, from the
        projection f (ms[-1] x c), using f's first m rows: for an iid draw,
        enla_forward with that m on f's stream, up to rounding, and
        bit-identical for the first. The key pass, then the query pass; all
        but the working block is the call's own, so no projection reads
        another's, and the caller owns the outputs."""
        return self._queries(*self._keys(f))

    def _keys(self, f):
        """The key pass of the projection f: [F | s], s the key shifts, and kv.

        It loops over k's chunks outermost and over the segments' tiles
        inside, so each chunk of k, |k|^2 / 2 and V is staged once. A row's
        shift depends on no other row, so a chunk forms each tile's rows of
        its share of kv with the tile's own GEMM, then raises the shifts to
        its row maxima, rescales kv by exp(old - new) and adds its shares,
        for every row at once. A chunk whose |k|^2 all overflow has no
        finite feature and is skipped; NumericError if every chunk is.
        """
        k, v, c, e, bound = self.k, self.v, self.c, self.e, self.bound
        segments, chunk, features, operand, staged = self.passes[0]
        m, n_k = len(f), k.shape[1]
        lifted = np.concatenate([f, np.full((m, 1), -1.0)], axis=1)
        kv, key_shift = np.zeros((m, len(v) + 1)), np.full(m, -math.inf)
        # a chunk's row maxima, the lead exp took out of each row and each
        # row's share of kv
        tops, leads, shares = np.empty(m), np.empty((m, 1)), np.empty_like(kv)
        staged[-1] = 1.0  # the query layout of the block overwrites it
        with np.errstate(over="ignore", invalid="ignore"):  # once: the helpers take none
            for start in range(0, n_k, chunk):
                stop = min(n_k, start + chunk)
                lift, stage = operand[:, :stop - start], staged[:, :stop - start]
                lift[:c] = k[:, start:stop]
                lift[c] = _half_sq_norms(lift[:c])
                np.ldexp(v[:, start:stop], -e, out=stage[:-1])
                for low, high in (tile for segment in segments for tile in segment):
                    block = features[:high - low, :stop - start]
                    top = tops[low:high] = _projected(lifted[low:high], lift, block, axis=1)
                    raw = -bound <= top.min() and top.max() <= bound
                    if not raw:
                        _overflow_check(top, block, start, "key column")
                        # a key of finite |k|^2 is finite on every row: a chunk's
                        # row maxima are all finite, or all -inf and its features all 0
                        if top[0] == -math.inf:
                            break
                    leads[low:high] = _exp_features(block, top[:, None], raw)
                    np.matmul(block, stage.T, out=shares[low:high])
                else:  # every row of kv at once, rescaled to its raised shift
                    raised = np.maximum(key_shift, tops)
                    kv *= np.exp(key_shift - raised)[:, None]
                    kv += shares * np.exp(leads - raised[:, None])
                    key_shift[:] = raised
        if key_shift[0] == -math.inf:
            raise NumericError("every key's squared norm overflowed")
        lifted[:, c] = key_shift
        return lifted, kv

    def _queries(self, lifted, kv):
        """The query pass: the outputs from the key pass's [F | s] and kv,
        fresh (c_out + 1) x N_q arrays returned without their last row, the
        normalizers.

        It loops over q's chunks outermost and over the segments inside, so
        each chunk of q is staged once. A chunk carries its running column
        max, whether it is shifted and the undivided sums of its tiles so
        far: a segment's first product goes into output i, onto the
        previous segment's sums, and each later one is added from the
        product rows. The chunk runs raw exp while every tile finds its
        columns in [0, B]; from the first that does not, it is shifted, and
        the sums so far are rescaled by exp(old - new) per column, the old
        shift 0 for an unshifted chunk. Only a tile that fails that test is
        checked for a projection of +inf or NaN (`features._overflow_check`).
        A column may stay -inf through a segment's early tiles; it is named
        if it still is after the last. Each output then divides its chunk
        as enla_forward(m_i) does.
        """
        q, c, e, bound = self.q, self.c, self.e, self.bound
        segments, chunk, features, operand, product = self.passes[1]
        outputs = [_aligned_empty((kv.shape[1], self.n_q)) for _ in segments]
        operand[c] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # once: the helpers take none
            for start in range(0, self.n_q, chunk):
                stop = min(self.n_q, start + chunk)
                lift, part = operand[:, :stop - start], product[:, :stop - start]
                lift[:c] = q[:, start:stop]
                # the chunk's running column max of F q + s, whether it carries
                # that max as a shift, and the undivided sums of the tiles so far
                seen, shifted, sums = -math.inf, False, None
                for segment, out in zip(segments, outputs):
                    cols = out[:, start:stop]
                    for i, (low, high) in enumerate(segment):
                        block = features[:high - low, :stop - start]
                        top = _projected(lifted[low:high], lift, block)
                        if sums is not None:
                            np.maximum(seen, top, out=top)
                        was_shifted = shifted
                        if not (top.max() <= bound and top.min() >= 0.0):
                            _overflow_check(top, block, start, "query column")
                            shifted = True
                        _exp_features(block, top, not shifted)
                        # a segment's first product goes into its output, a later one beside it
                        share = cols if i == 0 else part
                        np.matmul(kv[low:high].T, block, out=share)
                        if sums is not None:
                            if shifted:
                                # -inf - -inf, a column with no finite exponent
                                # yet, rescales its sums of 0 by 1
                                sums = sums * np.exp(np.fmin((seen if was_shifted else 0.0) - top, 0.0))
                            np.add(share, sums, out=cols)
                        seen, sums = top, cols
                    # an unshifted chunk's maxima all passed the range test
                    if shifted and seen.min() == -math.inf:
                        col = start + int(np.argmin(seen))
                        raise NumericError(f"every projection of query column {col} is -inf")
                for out in outputs:
                    cols = out[:-1, start:stop]
                    cols /= out[-1, start:stop]
                    np.ldexp(cols, e, out=cols)
        return [out[:-1] for out in outputs]


@dataclass(frozen=True)
class EnlcaBlockParams:
    """Weights of one attention block.

    w_theta / w_delta embed the input into the attention space (c_in x
    c_embed, c_embed <= c_in); w_psi (c_in x c_in) produces the values, so
    the block output keeps the input shape.
    """

    w_theta: np.ndarray
    w_delta: np.ndarray
    w_psi: np.ndarray
    config: EnlaConfig

    def __post_init__(self):
        w_theta, w_delta = _matrix_pair(self.w_theta, self.w_delta, "w_theta", "w_delta")
        w_psi = as_matrix(self.w_psi, "w_psi")
        c_in, c_embed = w_theta.shape
        if c_embed > c_in:
            raise ShapeError(f"embedding width {c_embed} exceeds input channels {c_in}")
        if w_psi.shape != (c_in, c_in):
            raise ShapeError(f"w_psi must be {c_in}x{c_in}, got {w_psi.shape}")
        object.__setattr__(self, "w_theta", w_theta)
        object.__setattr__(self, "w_delta", w_delta)
        object.__setattr__(self, "w_psi", w_psi)

    @property
    def c_in(self) -> int:
        return self.w_theta.shape[0]


def block_inputs(x, params: EnlcaBlockParams):
    """The block's (q, k, v) for an input x (c_in x N): x embedded by w_theta
    and w_delta, normalized and amplified, and x transformed by w_psi."""
    x = as_matrix(x, "x")
    if x.shape[0] != params.c_in:
        raise ShapeError(f"x has {x.shape[0]} channels, block expects {params.c_in}")
    with np.errstate(over="ignore"):  # as_matrix names an entry that overflowed
        theta, delta, v = (w.T @ x for w in (params.w_theta, params.w_delta, params.w_psi))
    q, k = normalize_and_scale(theta, delta, params.config.k_amp)
    return q, k, as_matrix(v, "value output")


def enlca_block(x, params: EnlcaBlockParams) -> np.ndarray:
    """One attention block with a residual connection: the randomized
    forward over block_inputs(x), added back onto x."""
    x = as_matrix(x, "x")
    y = enla_forward(*block_inputs(x, params), params.config)
    with np.errstate(over="ignore"):  # as_matrix names an entry that overflowed
        return as_matrix(x + y, "block output")


def random_block_params(rng: RngSpec, c_in: int, c_embed: int, config: EnlaConfig) -> EnlcaBlockParams:
    """Gaussian block weights scaled by 1/sqrt(c_in), drawn sequentially
    (theta, delta, psi) from one stream."""
    check_settings(c_in=c_in, c_embed=c_embed)
    gen = rng.generator()
    scale = 1.0 / np.sqrt(c_in)
    return EnlcaBlockParams(
        w_theta=scale * gen.standard_normal((c_in, c_embed)),
        w_delta=scale * gen.standard_normal((c_in, c_embed)),
        w_psi=scale * gen.standard_normal((c_in, c_in)),
        config=config,
    )
