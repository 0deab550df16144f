"""Linear-complexity attention forward and a shape-preserving block.

The forward replaces every exp(q_i . k_j) with the random-feature
estimator and exploits associativity: phi(K) [V^T | 1] is reduced first
(m x (c_out + 1)), then multiplied by phi(Q)^T, so no N_q x N_k object
ever exists and one GEMM yields both the numerator rows and the
normalizer row. The estimator is a per-query map times a per-key map, so
N_q queries and N_k keys are free to differ. Both phi(K) and phi(Q) are
streamed in column chunks, and each chunk in row tiles, so that every GEMM
of a tile stays on OpenBLAS's small-matrix path. One rule sizes both
passes' chunks and tiles, and states its numbers and their measured
effect (_tiles). So the forward's extra memory is one reused working
block, holding either pass's feature tile, chunk operand and staged
values or product, the (c_out + 1) x N_q output and one shift per
projection row; the stabilizer shifts go where they are cheap (see
enla_forward). The same loop evaluates several sample counts as row
prefixes of one projection, for the approximation-error
sweep: chunks outermost, each chunk staged once and taken through every
row segment. What depends on the instance (q, k, v) and the sample counts
alone is set up once (`_Forwards`): validation, v's row exponents, the
headroom, the row tiles, the working block, kv and the key pass's per-row
arrays. What depends on the projection runs once per projection
(`_Forwards.project`): it writes the lifted projection, resets the key
shifts, runs both passes and returns fresh outputs, which the caller
owns. enla_forward sets up its instance for its one projection; the sweep
sets up its instance once for all its trials. The multiply-add count is
m N_k (c + c_out + 1) for the keys (phi(K) and its reduction into kv)
plus m N_q (c + c_out + 1) for the queries (phi(Q) and the output GEMM),
the m N_k + m N_q being the normalizer: 2mNc + 2mN(c_out + 1) at
N_q = N_k = N. analysis.flop_count keeps the published convention,
which excludes the normalizer. The working block and the outputs start
on a cache line (matrices._aligned_empty, which states the rule and its
measured effect).

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

# The widest chunk of the forward (see _tiles). Chosen from the chunk-width
# sweep in BENCH_chunked.json, made when the feature buffer held all m rows.
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
    sqrt(k_amp), so every surviving column has norm sqrt(k_amp) and
    q_i . k_j = k_amp * cos(angle) stays within [-k_amp, k_amp].
    """
    theta_out, delta_out = as_matrix(theta_out, "theta output"), as_matrix(delta_out, "delta output")
    check_settings(k_amp=k_amp)
    scale = np.sqrt(k_amp)
    return scale * normalize_columns(theta_out), scale * normalize_columns(delta_out)


def enla_forward(q, k, v, config: EnlaConfig) -> np.ndarray:
    """Randomized c_out x N_q attention output for q (c x N_q), k (c x N_k)
    and v (c_out x N_k): column i is query i's, over all keys, under the
    oracle's contract (`exact._validated_qkv`).

    The keys are streamed first, a chunk of columns and a tile of rows at
    a time (`_tiles` at m = 1), through one feature tile: each tile's
    features are reduced into its rows of kv = phi(K) [V^T | 1]
    (m x (c_out + 1)) at once. Row l of kv has its own shift s_l, the
    running max of f_l . k - |k|^2 / 2 over the keys, and is rescaled by
    exp(old - new) when a chunk raises it, so its key sum is at least 1.
    The queries then go through the same block, in chunks and tiles of
    their own (`_tiles` at m), with exponents f_l . q + s_l, each column
    shifted by its max, and each (c_out + 1)-row output block is
    written in place as the sum of its tiles' products: one product where
    the m rows fit one tile (`_Forwards.project` says how the tiles carry
    it). The term of that max is exp(0) times a key sum of at least 1:
    every normalizer is at least 1 and none can underflow. Every shift
    cancels in the output ratio, so one
    column of extreme norm cannot push the features of the others out of
    float range. Both exponents come out of the feature GEMMs, on a lifted
    projection: [F | -1] [k_b; |k_b|^2 / 2] and [F | s] [q_b; 1].

    Each value row v_r enters as 2^-e_r v_r, max|v_r| 2^-e_r in [0.5, 1),
    and its output row is scaled back by 2^e_r after the divide, so every
    kv entry is at most N_k. With B = min(U, log(MAX / 2) - log(m N_k)),
    the headroom of a query's m N_k terms, a key
    chunk whose row maxima all lie in [-B, B], and a query chunk whose
    column maxima all lie in [0, B], run exp on their raw exponents; such a
    query chunk leaves its output block in raw units. Any other chunk is
    shifted in its block by those maxima (`features._exp_features`).

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
    query pass at the first sample count m_1. So both shapes depend on c,
    c_out and m_1 alone: enla_forward(m_1) cuts a sweep's first prefix, and
    a sample of query columns the full call, into the same tiles.

    The rule keeps each of a tile's three GEMMs (its features [F | s] u,
    R x (c + 1) by (c + 1) x W; its kv share, R x W by W x (c_out + 1); its
    output share, (c_out + 1) x R by R x W) on OpenBLAS's small-matrix path,
    which skips the operand packing of its blocked path. OpenBLAS's
    SkylakeX permit takes a GEMM while M N K <= 10^6. W is the widest
    multiple of 8 in [W_MIN, CHUNK] at which m rows keep the features and
    the output share within it, m W (max(c, c_out) + 1) <= 10^6, and
    R = 10^6 // (W (max(c, c_out) + 1)), never fewer rows than at m = 1.
    The key pass's shape is (54, 2048) at c = c_out = 8 and (28, 2048) at
    16. The query pass's is (128, 456) at c = c_out = 16 and m_1 = 128, so
    the first segment is one query tile, and each query chunk's output one
    GEMM written in place, up to m_1 = 10^6 / (W_MIN (max(c, c_out) + 1))
    rows (229 at c = 16); at c = c_out = 8 and m_1 = 16 it is the key
    pass's own. W, a multiple of 8, splits the columns where OpenBLAS's
    groups of 8 do. The permit also holds a GEMM whose first operand is
    transposed, as the kv GEMM's is, to M N <= 1200; at W = CHUNK the first
    limit keeps R (c_out + 1) at most 488, so that one never binds on the
    key pass. (The kv GEMM alone at W = 512, across it: 1.15 ns per
    element at 70 rows and 1.46 at 72 (c_out = 16), 0.56 at 133 and 1.15
    at 134 (c_out = 8).)

    The rule has two limits. Where the widest chunk leaves fewer than 24
    rows (max(c, c_out) of 20 and more) both passes keep their segments
    whole, at CHUNK columns: (None, CHUNK). At 23 rows key tiles took
    0.97-1.07x the time of whole segments, within the runs' spread, and
    from 19 rows down they lost (1.04-1.16x at 19 rows, 1.23-1.32x at 14,
    2.1-2.3x at 7; three, three and two runs). And no chunk is narrower
    than W_MIN columns, which keeps per-chunk costs from dominating at
    large m.

    Measured on a 2-core Xeon (OpenBLAS 0.3.31, SkylakeX core, numpy 2.4,
    one BLAS thread). ns per tile element of the three GEMMs at W = 2048,
    by R, across the first limit (BENCH_tiles.json):

        c = c_out = 8:   48: 1.96  54: 2.04 | 56: 2.73  64: 2.72
        c = c_out = 16:  24: 3.48  28: 3.44 | 32: 3.84  64: 3.76

    enla_forward at N = 40 000, m = 128, whole segments against key tiles
    in both passes (medians of 10 alternating pairs): 32.0 -> 23.2 ms at
    c = c_out = 8 and 38.0 -> 31.5 at 16. Process CPU of enla_forward with
    the query pass's own shape over that of the same forward with the key
    pass's tiles in its query pass, medians of 10 alternating fresh
    processes, at N = 10 000 and c = c_out = 16, by W_MIN (the range of two
    runs; BENCH_query_tiles.json):

        m:          512        1024       4096
        W_MIN = 8:  0.83-0.86  0.92-0.93  1.52-1.67
               64:  0.84-0.89  0.91-0.92  0.89-0.91
              128:  0.85-0.87  0.84-0.85  0.86-0.87
              256:  0.83-0.86  0.83-0.85  0.84-0.88
              512:  0.84-0.85  0.84-0.86  0.84-0.87

    256 and 512 lie within each other's spread; 512 would clamp the
    456-column chunks of c = 16, m = 128 and cut their rows into two tiles.

    With query tiles also where max(c, c_out) >= 20 (whole segments only
    below 24 rows), N = 2048, c = c_out = 64, m = 128 read 1.07-1.18x in
    three runs of four and 0.95x in the fourth (three tiles per
    256-column chunk), and the c = 32 sweep over m = 16 to 128 read 1.18x
    with 16-row tiles. Where one query tile held the first segment, they
    gained at N = 10 000 (0.78-1.08x at c = 20, m = 128; 0.82-0.92x at
    c = 32, m = 32) but not at N = 2048 (0.86-1.18x at c = 32, m = 32),
    which the rule cannot see. So only the rule is shared, not the shape:
    with the key pass at the query pass's shape, the forward at
    N = 40 000, c = c_out = 16, m = 128 took 1.10x and 1.12x the time
    (medians of 12 and 8 alternating fresh processes; BENCH_tile_rule.json).
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
    e, the headroom B at m = ms[-1], the row segments, each pass's tiles
    of them and its chunk width (`_tiles` at m = 1 for the keys and at
    m_1 = ms[0] for the queries, so that the first output cuts the tiles of
    enla_forward(m_1)), the working block, kv, the key shifts, the key
    pass's per-row arrays and the lifted projection [F | -1]. `project`
    runs one projection through them and returns outputs of its own, so a
    caller that keeps or edits one projection's outputs leaves every other
    projection's untouched.

    The working block is one allocation, sized for the larger of two
    layouts of rows: the key pass's feature tile, chunk operand and staged
    values, and the query pass's feature tile, chunk operand and product
    buffer, so the query pass's shape adds no allocation. As four
    allocations (tile, operand, staged values, product), at the
    approximation sweep's shape (N = 2048, c = c_out = 8, prefixes 16 to
    128) glibc gave their pages back after every forward and the next
    forward faulted about 450 of them in again, which cost more than the
    tiles saved: glibc trims the top of its heap when a free leaves more
    than twice its mmap threshold there, and that threshold follows the
    largest block freed, which the tiles shrink from an m-row feature
    buffer to an R-row one.
    """

    def __init__(self, q, k, v, ms):
        self.q, self.k, self.v = _validated_qkv(q, k, v)
        (self.c, self.n_q), (c_out, n_k) = self.q.shape, self.v.shape
        self.e = _unit_exponent(self.v)
        self.bound = _headroom(ms[-1] * n_k)
        # the key pass's tile rows and chunk width, then the query pass's; no
        # chunk is wider than the longer of q and k
        shapes = [(min(rows or ms[-1], ms[-1]), min(width, max(self.n_q, n_k)))
                  for rows, width in (_tiles(self.c, c_out, m) for m in (1, ms[0]))]
        block = _aligned_empty((max((rows + self.c + c_out + 2) * width for rows, width in shapes),))
        ranges = list(zip([0, *ms[:-1]], ms))  # the row segments [m_{i-1}, m_i)
        # per pass: its row segments, each cut into tiles from its first row,
        # its chunk width and its layout of the one block (see the docstring):
        # the feature tile, the chunk's GEMM operand, [k_b; |k_b|^2 / 2] or
        # [q_b; 1], and c_out + 1 rows, which hold a key chunk's staged
        # [2^-e V_b; 1], whose last row makes the last column of kv the key
        # sum, or a later tile's share of a query chunk
        self.passes = [
            ([[(t, min(high, t + rows)) for t in range(low, high, rows)] for low, high in ranges], width,
             *np.split(block[:(rows + self.c + c_out + 2) * width].reshape(-1, width), np.cumsum([rows, self.c + 1])))
            for rows, width in shapes]
        # [F | -1], written per projection; after its key pass the rows hold [F | s]
        self.lifted = np.empty((ms[-1], self.c + 1))
        # zero once: a projection's first key chunk with finite row maxima
        # rescales kv by exp(-inf - s) = 0, so no projection reads another's
        self.kv = np.zeros((ms[-1], c_out + 1))
        self.key_shift = np.empty(ms[-1])
        # a key chunk's row maxima, the lead exp took out of each row and each
        # row's share of kv
        self.tops, self.leads = np.empty(ms[-1]), np.empty((ms[-1], 1))
        self.shares = np.empty((ms[-1], c_out + 1))

    def project(self, f) -> list:
        """The output for each sample count m in ms, in order, from the
        projection f (ms[-1] x c): the output for m uses its first m rows.
        An iid draw fills rows in order, so each output is enla_forward
        with that m on f's stream, up to rounding; the first is
        bit-identical to it. The outputs are fresh arrays that the caller
        owns. Each call first writes [F | -1] into the lifted projection,
        resets the key shifts to -inf and sets the staged row of ones,
        which the query layout of the working block overwrites, so no call
        reads what an earlier one left.

        Both passes loop over chunks outermost and over the row segments
        [m_{i-1}, m_i) inside, each cut into tiles from its first row, so
        each chunk of k, |k|^2 / 2, V and q is staged once, in the pass's
        chunks and tiles (`_tiles`). A row's key shift depends on no other
        row, so a key chunk forms each tile's rows of its share of kv with
        the tile's own GEMM, then rescales and adds to every row of kv at
        once. A query chunk carries its running column max,
        whether it is shifted, and the undivided sums of the tiles so far
        through its tile loop: a segment's first product goes into output
        i, onto the previous segment's sums, and each later tile's product
        is added to it from the product buffer, so output i holds the sums
        of every tile up to segment i's last. The chunk keeps the raw exp
        of enla_forward while every tile finds its columns in range; once
        one does not, that tile and every later one is shifted, and the
        sums so far are rescaled by exp(old - new) per column, the old
        shift being 0 for a chunk that was unshifted. A column may stay
        -inf through a segment's early tiles; it is named only if it is
        still -inf after the segment's last. Every tile tests its chunks
        against enla_forward's B at m = ms[-1], and only a tile that fails
        that range test is checked for a projection of +inf or NaN
        (`features._overflow_check`): maxima within the range are finite.
        Once the chunk has passed every segment, each output divides its
        columns as enla_forward(m_i) does.
        """
        q, k, v, c, e, bound = self.q, self.k, self.v, self.c, self.e, self.bound
        segments, chunk, features, operand, staged = self.passes[0]
        lifted, kv, key_shift, tops, leads, shares = (
            self.lifted, self.kv, self.key_shift, self.tops, self.leads, self.shares)
        n_k = k.shape[1]
        lifted[:, :c] = f
        lifted[:, c] = -1.0
        key_shift.fill(-math.inf)
        staged[-1] = 1.0
        outputs = [_aligned_empty((kv.shape[1], self.n_q)) for _ in segments]

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

            # the working block's query layout, which overwrites the key layout
            segments, chunk, features, operand, product = self.passes[1]
            operand[c] = 1.0
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
