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
    RngSpec, ShapeError, _matrix_pair, _validated_qkv, as_matrix, check_settings, normalize_columns,
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
    """Raised (as a warning) when attention normalizer entries underflow
    below the configured epsilon and get floored."""


@dataclass(frozen=True)
class EnlaConfig:
    """Settings for one randomized forward.

    The projection is drawn once per forward call from `rng`; callers that
    want a fresh projection (per epoch, per trial) pass a new stream.
    k_amp does nothing in `enla_forward`, which takes q and k already
    amplified; only `block_inputs` reads it, to amplify what it derives.
    epsilon is only the forward's normalizer floor, in stabilized units.
    """

    rng: RngSpec
    m: int = 128
    k_amp: float = 6.0
    orthogonal: bool = False
    epsilon: float = 1e-12

    def __post_init__(self):
        check_settings(m=self.m, k_amp=self.k_amp, epsilon=self.epsilon)


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
    shift, the running max of the real exponent F k - |k|^2 / 2; when a
    chunk raises it, kv is rescaled by exp(old - new). The queries then go
    through the same buffer, each column shifted by its own max of F q,
    and each (c_out + 1)-row output block is written in place. Both kinds
    of shift cancel in the output ratio, so one column of extreme norm
    cannot push the features of the others out of float range.

    Normalizer entries below config.epsilon are floored and reported
    through a NormalizerUnderflowWarning rather than an error; that
    includes exact zeros from features that underflowed. The normalizer
    is in stabilized units: the exact one times
    m * exp(|q_j|^2 / 2 - max_l f_l . q_j - S_K), with S_K the final key
    shift.
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
    in one (c_out + 1) x N block: when a segment raises the key shift or a
    query column's shift, what the earlier segments made is rescaled by
    exp(old - new), so output i is stabilized, floored and reported in the
    units enla_forward(m_i) documents. The first segment writes the block
    and each later one rescales it and adds its own product; the last
    output is divided in place.

    A callback and not a generator: a generator's frame is allocated per
    call, and repeated 40 000-column forwards through one then read a
    process peak two output blocks (9.8 MB) higher.
    """
    q, k, v = _validated_qkv(q, k, v)
    f = sample_projection(config.rng, ms[-1], q.shape[0], config.orthogonal).f
    c_out, n = v.shape
    width = min(n, CHUNK)
    # 64-byte aligned wherever malloc puts it: AVX-512 loads of its rows then
    # never split a cache line (3 % faster feature passes on an AMD EPYC)
    raw = np.empty(ms[-1] * width + 7)
    first = (-raw.ctypes.data % 64) // 8
    features = raw[first:first + ms[-1] * width].reshape(ms[-1], width)
    # [V_b; 1] per chunk: the ones row makes the last column of kv the key sum
    staged = np.empty((c_out + 1, width))
    staged[-1] = 1.0
    kv = np.zeros((ms[-1], c_out + 1))
    key_shift = -math.inf
    # each query column's running max of F q over the rows so far; it
    # cancels per output column, and later segments rescale by it
    query_shift = np.full(n, -math.inf)
    acc = np.empty((c_out + 1, n))

    low = 0
    for high in ms:
        rows = f[low:high]
        shift_before = key_shift
        for start in range(0, n, CHUNK):
            stop = min(n, start + CHUNK)
            block = features[:high - low, :stop - start]
            half_sq = _half_sq_norms(k[:, start:stop])
            top = _projected(rows, k, start, stop, block)
            raised = max(key_shift, float(np.max(top - half_sq)))
            if raised > key_shift:
                kv *= math.exp(key_shift - raised)
                key_shift = raised
            block -= half_sq + _finite_or_zero(key_shift)
            np.exp(block, out=block)
            staged[:-1, :stop - start] = v[:, start:stop]
            kv[low:high] += block @ staged[:, :stop - start].T
        key_rescale = math.exp(shift_before - key_shift) if key_shift > shift_before else 1.0
        for start in range(0, n, CHUNK):
            stop = min(n, start + CHUNK)
            block = features[:high - low, :stop - start]
            seen = query_shift[start:stop]
            top = np.maximum(seen, _projected(rows, q, start, stop, block))
            block -= _finite_or_zero(top)
            np.exp(block, out=block)
            if low == 0:
                np.matmul(kv[:high].T, block, out=acc[:, start:stop])
            else:
                acc[:, start:stop] *= key_rescale * _rescale(seen, top)
                acc[:, start:stop] += kv[low:high].T @ block
            seen[:] = top

        out = acc if high == ms[-1] else acc.copy()
        numerator, d = out[:-1], out[-1]
        floored = d < config.epsilon
        if floored.any():
            warnings.warn(
                f"{int(floored.sum())} normalizer entries below epsilon={config.epsilon} were floored",
                NormalizerUnderflowWarning,
                stacklevel=3,
            )
            np.maximum(d, config.epsilon, out=d)
        numerator /= d
        emit(numerator)
        low = high


def _rescale(old, new):
    """exp(old - new) per column for a running shift that went from old to
    new; 1 where it did not rise, so a column still at -inf stays at 1 and
    never meets exp(-inf + inf). A column that rises from -inf holds
    zeros and gets 0."""
    with np.errstate(over="ignore", invalid="ignore"):
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
