"""Linear-complexity attention forward and a shape-preserving block.

The forward replaces every exp(q_i . k_j) with the random-feature
estimator and exploits associativity: phi(K) [V^T | 1] is reduced first
(m x (c_out + 1)), then multiplied by phi(Q)^T, so no N x N object ever
exists and one GEMM yields both the numerator rows and the normalizer
row. Both phi(K) and phi(Q) are streamed in column chunks through one
reused m x CHUNK feature buffer, so the forward's extra memory is that
buffer, the (c_out + 1) x N output and one shift per projection row; the
stabilizer shifts go where they are cheap (see enla_forward). The same
loop evaluates several sample counts as row prefixes of one projection,
for the approximation-error sweep: chunks outermost, each chunk staged
once and taken through every row segment. The multiply-add count is
2mNc + 2mN(c_out + 1), the 2mN being the normalizer; analysis.flop_count
keeps the published convention, which excludes the normalizer.

Query/key columns enter unit-normalized and scaled by sqrt(k_amp); k_amp > 1
sharpens the attention at the price of exponentially larger variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# phi itself is unused here; perfbench/spans.py wraps it under this module's name.
from .features import _exp_features, _half_sq_norms, _projected, phi, sample_projection  # noqa: F401
from .matrices import (
    NumericError, RngSpec, ShapeError, _headroom, _matrix_pair, _unit_exponent, _validated_qkv, as_matrix,
    check_settings, normalize_columns,
)

# Columns per chunk of the forward: the feature buffer is m x CHUNK
# (2 MiB at m = 128). Chosen from the chunk-width sweep in BENCH_chunked.json.
CHUNK = 2048

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
    theta_out, delta_out = _matrix_pair(theta_out, delta_out, "theta output", "delta output")
    check_settings(k_amp=k_amp)
    scale = np.sqrt(k_amp)
    return scale * normalize_columns(theta_out), scale * normalize_columns(delta_out)


def enla_forward(q, k, v, config: EnlaConfig) -> np.ndarray:
    """Randomized attention output for q, k (c x N) and v (c_out x N).

    The keys are streamed first, CHUNK columns at a time, through one
    m x CHUNK feature buffer: each chunk's features are reduced into
    kv = phi(K) [V^T | 1] (m x (c_out + 1)) at once. Row l of kv has its
    own shift s_l, the running max of f_l . k - |k|^2 / 2 over the keys,
    and is rescaled by exp(old - new) when a chunk raises it, so its key
    sum is at least 1. The queries then go through the same buffer with
    exponents f_l . q + s_l, each column shifted by its max, and each
    (c_out + 1)-row output block is written in place. The term of that max
    is exp(0) times a key sum of at least 1: every normalizer is at least 1
    and none can underflow. Every shift cancels in the output ratio, so one
    column of extreme norm cannot push the features of the others out of
    float range. Both exponents come out of the feature GEMMs, on a lifted
    projection: [F | -1] [k_b; |k_b|^2 / 2] and [F | s] [q_b; 1].

    Each value row v_r enters as 2^-e_r v_r, max|v_r| 2^-e_r in [0.5, 1),
    and its output row is scaled back by 2^e_r after the divide, so every
    kv entry is at most N. With B = min(U, log(MAX / 2) - log(mN)), a key
    chunk whose row maxima all lie in [-B, B], and a query chunk whose
    column maxima all lie in [0, B], run exp on their raw exponents; such a
    query chunk leaves its output block in raw units. Any other chunk is
    shifted in its block by those maxima (`features._exp_features`).

    Keys whose |k|^2 all overflow, and a query column whose every exponent
    is -inf, raise NumericError, as a projection of +inf does.
    """
    return _prefix_forwards(q, k, v, config, [config.m])[0]


def _prefix_forwards(q, k, v, config: EnlaConfig, ms) -> list:
    """enla_forward's output for each sample count in the ascending list
    ms, in order, all from one projection of ms[-1] rows drawn from
    config.rng: the output for m uses its first m rows. An iid draw fills
    rows in order, so each output is the forward of config with that m, up
    to rounding; the first is bit-identical to it.

    Both passes loop over chunks outermost and over the row segments
    [m_{i-1}, m_i) inside, so each chunk of k, |k|^2 / 2, V and q is staged
    once. A row's key shift depends on no other row, so a key chunk reduces
    each segment into that segment's rows of kv with its own GEMM. A query
    chunk carries its running column max, whether it is shifted, and the
    previous segment's undivided sums through its segment loop: output i
    holds those sums plus segment i's product. The chunk keeps the raw exp
    of enla_forward while every segment finds its columns in range; once
    one does not, that segment and every later one is shifted, and the sums
    so far are rescaled by exp(old - new) per column, the old shift being 0
    for a chunk that was unshifted. Every segment tests its chunks against
    enla_forward's B at m = ms[-1]. Once the chunk has passed every
    segment, each output divides its columns as enla_forward(m_i) does.
    """
    q, k, v = _validated_qkv(q, k, v)
    c, n = q.shape
    c_out = v.shape[0]
    spans = list(zip([0, *ms[:-1]], ms))
    # [F | -1]; after the key pass its rows hold [F | s]
    lifted = np.empty((ms[-1], c + 1))
    lifted[:, :c] = sample_projection(config.rng, ms[-1], c, config.orthogonal).f
    lifted[:, c] = -1.0
    e = _unit_exponent(v)
    bound = _headroom(ms[-1] * n)
    width = min(n, CHUNK)
    # 64-byte aligned wherever malloc puts it: AVX-512 loads of its rows then
    # never split a cache line (3 % faster feature passes on an AMD EPYC)
    raw = np.empty(ms[-1] * width + 7)
    first = (-raw.ctypes.data % 64) // 8
    features = raw[first:first + ms[-1] * width].reshape(ms[-1], width)
    # a chunk's GEMM operand [k_b; |k_b|^2 / 2] or [q_b; 1], and a key
    # chunk's staged [2^-e V_b; 1]: its last row makes the last column of kv
    # the key sum
    operand = np.empty((c + 1, width))
    staged = np.empty((c_out + 1, width))
    staged[-1] = 1.0
    kv = np.zeros((ms[-1], c_out + 1))
    key_shift = np.full(ms[-1], -math.inf)
    outputs = [np.empty((c_out + 1, n)) for _ in ms]

    with np.errstate(over="ignore", invalid="ignore"):  # once: the helpers take none
        for start in range(0, n, CHUNK):
            stop = min(n, start + CHUNK)
            lift, stage = operand[:, :stop - start], staged[:, :stop - start]
            lift[:c] = k[:, start:stop]
            lift[c] = _half_sq_norms(lift[:c])
            np.ldexp(v[:, start:stop], -e, out=stage[:-1])
            for low, high in spans:
                block = features[:high - low, :stop - start]
                top = _projected(lifted[low:high], lift, start, block, axis=1)
                # a key of finite |k|^2 is finite on every row: a chunk's row
                # maxima are all finite, or all -inf and its features all 0
                if top[0] == -math.inf:
                    continue
                lead = _exp_features(block, top[:, None], -bound <= top.min() and top.max() <= bound)
                shift = key_shift[low:high]
                raised = np.maximum(shift, top)
                kv[low:high] *= np.exp(shift - raised)[:, None]
                kv[low:high] += (block @ stage.T) * np.exp(lead - raised[:, None])
                shift[:] = raised
        if key_shift[0] == -math.inf:
            raise NumericError("every key's squared norm overflowed")
        lifted[:, c] = key_shift

        operand[c] = 1.0
        for start in range(0, n, CHUNK):
            stop = min(n, start + CHUNK)
            lift = operand[:, :stop - start]
            lift[:c] = q[:, start:stop]
            # the chunk's running column max of F q + s, whether it carries
            # that max as a shift, and the previous segment's undivided sums
            seen, shifted, sums = -math.inf, False, None
            for (low, high), out in zip(spans, outputs):
                block = features[:high - low, :stop - start]
                top = np.maximum(seen, _projected(lifted[low:high], lift, start, block))
                if top.min() == -math.inf:
                    col = start + int(np.argmin(top))
                    raise NumericError(f"every projection of query column {col} is -inf")
                was_shifted = shifted
                shifted = shifted or not (top.max() <= bound and top.min() >= 0.0)
                _exp_features(block, top, not shifted)
                cols = out[:, start:stop]
                np.matmul(kv[low:high].T, block, out=cols)
                if sums is not None:
                    cols += sums * np.exp((seen if was_shifted else 0.0) - top) if shifted else sums
                seen, sums = top, cols
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
