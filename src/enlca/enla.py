"""Linear-complexity attention forward and a shape-preserving block.

The forward replaces every exp(q_i . k_j) with the random-feature
estimator and exploits associativity: phi(K) [V^T | 1] is reduced first
(m x (c_out + 1)), then multiplied by phi(Q)^T, so no N x N object ever
exists and one GEMM yields both the numerator rows and the normalizer
row. Both phi(K) and phi(Q) are streamed in column chunks through one
reused m x CHUNK feature buffer, so the forward's extra memory is that
buffer, the (c_out + 1) x N output and one shift per query column. The
same loop evaluates several sample counts as row prefixes of one
projection, for the approximation-error sweep. The multiply-add count is
2mNc + 2mN(c_out + 1), the 2mN being the normalizer; analysis.flop_count
keeps the published convention, which excludes the normalizer.

The stabilizer shifts cancel in the output ratio, so they go where they
are cheap: each value row enters below 1 by an exact power of two, so the
headroom (matrices._headroom, the oracle's rule too) is fixed before the
loop, and a chunk whose column maxima of F u lie in [0, headroom] runs exp
on its raw projection, its keys carrying their shift as one weight each in
the staged [V; 1] rows and its queries carrying theirs in the normalizer
floor threshold. Only the other chunks pay a shift pass over the
m x CHUNK block. The normalizer's units and floor are the same either way.

Query/key columns are unit-normalized and scaled by sqrt(k_amp) before
entering the forward; k_amp > 1 sharpens the attention distribution at the
price of exponentially larger estimator variance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# phi itself is unused here; perfbench/spans.py wraps it under this module's name.
from .features import _finite_or_zero, _half_sq_norms, _projected, phi, sample_projection  # noqa: F401
from .matrices import (
    RngSpec, ShapeError, _headroom, _matrix_pair, _unit_exponent, _validated_qkv, as_matrix, check_settings,
    normalize_columns,
)

# Columns per chunk of the forward: the feature buffer is m x CHUNK
# (2 MiB at m = 128). Chosen from the chunk-width sweep in BENCH_chunked.json.
CHUNK = 2048
EPSILON = 1e-12  # the forward's normalizer floor, in its stabilized units

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
    """Warned when attention normalizer entries fall below EPSILON and are floored."""


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
    theta_out, delta_out = _matrix_pair(theta_out, delta_out, "theta output", "delta output")
    check_settings(k_amp=k_amp)
    scale = np.sqrt(k_amp)
    return scale * normalize_columns(theta_out), scale * normalize_columns(delta_out)


def enla_forward(q, k, v, config: EnlaConfig) -> np.ndarray:
    """Randomized attention output for q, k (c x N) and v (c_out x N).

    The keys are streamed first, CHUNK columns at a time, through one
    m x CHUNK feature buffer: each chunk's features are reduced into
    kv = phi(K) [V^T | 1] (m x (c_out + 1)) at once. Keys share one
    shift S, the running max of the real exponent F k - |k|^2 / 2; when a
    chunk raises it, kv is rescaled by exp(old - new). The queries then go
    through the same buffer, and each (c_out + 1)-row output block is
    written in place. Every shift cancels in the output ratio, so one
    column of extreme norm cannot push the features of the others out of
    float range.

    Each value row v_r enters as 2^-e_r v_r, max|v_r| 2^-e_r in [0.5, 1),
    and its output row is scaled back by 2^e_r after the divide, so every
    kv entry is at most N. No shift touches the feature block of a chunk
    whose column maxima of F u all lie in [0, B], with
    B = min(U, log(MAX / 2) - log(mN)): exp runs on the raw projection
    (the bottom 0 keeps each key weight at most 1 and each floor threshold
    at least EPSILON). Such a key chunk multiplies its staged [V_b; 1] rows
    by one weight per key, exp(-|k_j|^2 / 2 - S). Such a query chunk leaves
    its (c_out + 1)-row block in raw units and compares each normalizer with
    EPSILON * exp(max_l f_l . q_j) instead of EPSILON. Any other chunk is
    shifted in its block: each key by |k_j|^2 / 2 + S, formed as
    t_j + (S - (t_j - |k_j|^2 / 2)) with t_j = max_l f_l . k_j, since the sum
    cancels once |k_j|^2 / 2 dwarfs t_j; each query column by its max of F q.

    Normalizer entries below EPSILON = 1e-12 are floored and reported
    through a NormalizerUnderflowWarning rather than an error; that
    includes exact zeros from features that underflowed. The normalizer
    is in stabilized units, whichever way its chunk went: the exact one
    times m * exp(|q_j|^2 / 2 - max_l f_l . q_j - S_K), with S_K the final
    key shift.
    """
    outputs = []
    _prefix_forwards(q, k, v, config, [config.m], outputs.append)
    return outputs[0]


def _prefix_forwards(q, k, v, config: EnlaConfig, ms, emit) -> None:
    """Call emit with enla_forward's output for each sample count in the
    ascending list ms, in order, all from one projection of ms[-1] rows
    drawn from config.rng: the output for m uses its first m rows. An iid
    draw fills rows in order, so each output is the forward of config with
    that m, up to rounding; the first is bit-identical to it.

    The rows are processed in segments [m_{i-1}, m_i), each through the
    key pass and then the query pass of enla_forward. Output i accumulates
    in one (c_out + 1) x N block. A query chunk keeps the raw exp(F q) of
    enla_forward for as long as every segment finds its columns in range;
    it then owes no rescale but a key one. Once a segment finds a column
    out of range, the chunk is shifted in that segment and every later
    one, and what the earlier segments made is rescaled by exp(old - new)
    per column, the old shift being 0 for a chunk that was unshifted. When
    a segment raises the key shift, all of it is rescaled too. Every
    segment tests its chunks against enla_forward's B at m = ms[-1].
    Output i is floored and divided chunk by chunk, in the units
    enla_forward(m_i) documents: the first segment writes the block, each
    later one rescales it and adds its own product, and the last output is
    divided in place.

    A callback and not a generator: a generator's frame is allocated per
    call, and repeated 40 000-column forwards through one then read a
    process peak two output blocks (9.8 MB) higher.
    """
    q, k, v = _validated_qkv(q, k, v)
    f = sample_projection(config.rng, ms[-1], q.shape[0], config.orthogonal).f
    c_out, n = v.shape
    e = _unit_exponent(v)
    bound = _headroom(ms[-1] * n)
    width = min(n, CHUNK)
    # 64-byte aligned wherever malloc puts it: AVX-512 loads of its rows then
    # never split a cache line (3 % faster feature passes on an AMD EPYC)
    raw = np.empty(ms[-1] * width + 7)
    first = (-raw.ctypes.data % 64) // 8
    features = raw[first:first + ms[-1] * width].reshape(ms[-1], width)
    # [2^-e V_b w_b; w_b] per key chunk, w_b its key weights or ones for a
    # shifted chunk: the last row makes the last column of kv the key sum
    staged = np.empty((c_out + 1, width))
    kv = np.zeros((ms[-1], c_out + 1))
    key_shift = -math.inf
    # each query column's running max of F q over the rows so far, and
    # whether its chunk carries that max as a shift; later segments rescale
    query_shift = np.full(n, -math.inf)
    shifted = [False] * -(-n // CHUNK)
    acc = np.empty((c_out + 1, n))

    low = 0
    for high in ms:
        rows = f[low:high]
        shift_before = key_shift
        last = high == ms[-1]
        out = acc if last else np.empty_like(acc)
        floored = 0
        with np.errstate(over="ignore", invalid="ignore"):  # one per segment: the helpers take none
            for start in range(0, n, CHUNK):
                stop = min(n, start + CHUNK)
                block = features[:high - low, :stop - start]
                stage = staged[:, :stop - start]
                half_sq = _half_sq_norms(k[:, start:stop])
                top = _projected(rows, k, start, stop, block)
                gap = top - half_sq
                raised = max(key_shift, float(np.max(gap)))
                if raised > key_shift:
                    kv *= math.exp(key_shift - raised)
                    key_shift = raised
                shift = key_shift if key_shift > -math.inf else 0.0
                np.ldexp(v[:, start:stop], -e, out=stage[:-1])
                if 0.0 <= top.min() and top.max() <= bound:
                    # S >= max F k_j - |k_j|^2 / 2, so exp(-|k_j|^2 / 2 - S) <= 1
                    np.exp(block, out=block)
                    np.subtract(-shift, half_sq, out=stage[-1])
                    np.exp(stage[-1], out=stage[-1])
                    stage[:-1] *= stage[-1]
                else:
                    # S >= gap, so every exponent stays <= 0 after rounding
                    _exp_shifted(block, _finite_or_zero(top) + (shift - gap))
                    stage[-1] = 1.0
                kv[low:high] += block @ stage.T

            key_rescale = math.exp(shift_before - key_shift) if key_shift > shift_before else 1.0
            for chunk, start in enumerate(range(0, n, CHUNK)):
                stop = min(n, start + CHUNK)
                block = features[:high - low, :stop - start]
                seen = query_shift[start:stop]
                top = np.maximum(seen, _projected(rows, q, start, stop, block))
                peak = float(top.max())
                was_shifted = shifted[chunk]
                shifted[chunk] = was_shifted or not (peak <= bound and top.min() >= 0.0)
                if shifted[chunk]:
                    _exp_shifted(block, _finite_or_zero(top))
                else:
                    np.exp(block, out=block)
                cols = acc[:, start:stop]
                if low == 0:
                    np.matmul(kv[:high].T, block, out=cols)
                else:
                    rescale = key_rescale
                    if shifted[chunk]:
                        rescale = rescale * _rescale(seen if was_shifted else 0.0, top)
                    cols *= rescale
                    cols += kv[low:high].T @ block
                seen[:] = top
                if not last:
                    out[:, start:stop] = cols
                    cols = out[:, start:stop]
                # an unshifted chunk's thresholds are EPSILON * exp(top) in raw
                # units; twice the largest covers the rounding of both exps
                d = cols[-1]
                limit = EPSILON if shifted[chunk] else 2.0 * EPSILON * math.exp(peak)
                if d.min() < limit:
                    threshold = EPSILON if shifted[chunk] else EPSILON * np.exp(top)
                    floored += int(np.count_nonzero(d < threshold))
                    np.maximum(d, threshold, out=d)
                cols[:-1] /= d
                np.ldexp(cols[:-1], e, out=cols[:-1])
        if floored:
            warnings.warn(
                f"{floored} normalizer entries below epsilon={EPSILON} were floored",
                NormalizerUnderflowWarning,
                stacklevel=3,
            )
        emit(out[:-1])
        low = high


def _exp_shifted(block, shift) -> None:
    """exp(block - shift) in place: the pass over the m x CHUNK block that
    only a chunk outside the unshifted range takes."""
    block -= shift
    np.exp(block, out=block)


def _rescale(old, new):
    """exp(old - new) per column for a running shift that went from old to
    new; 1 where it did not rise, so a column still at -inf stays at 1 and
    never meets exp(-inf + inf). A column that rises from -inf holds
    zeros and gets 0. Runs under the forward's np.errstate."""
    return np.exp(np.where(new > old, old - new, 0.0))


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
    q, k = normalize_and_scale(params.w_theta.T @ x, params.w_delta.T @ x, params.config.k_amp)
    return q, k, params.w_psi.T @ x


def enlca_block(x, params: EnlcaBlockParams) -> np.ndarray:
    """One attention block with a residual connection: the randomized
    forward over block_inputs(x), added back onto x."""
    x = as_matrix(x, "x")
    return x + enla_forward(*block_inputs(x, params), params.config)


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
