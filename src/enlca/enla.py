"""Linear-complexity attention forward and a shape-preserving block.

The forward replaces every exp(q_i . k_j) with the random-feature
estimator and exploits associativity: phi(K) [V^T | 1] is reduced first
(m x (c_out + 1)), then multiplied by phi(Q)^T, so no N x N object ever
exists and one GEMM yields both the numerator rows and the normalizer
row. The multiply-add count is 2mNc + 2mN(c_out + 1), the 2mN being the
normalizer; analysis.flop_count keeps the published convention, which
excludes the normalizer.

Query/key columns are unit-normalized and scaled by sqrt(k_amp) before
entering the forward; k_amp > 1 sharpens the attention distribution at the
price of exponentially larger estimator variance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# phi itself is unused here; perfbench/spans.py wraps it under this module's name.
from .features import _phi_values, phi, sample_projection  # noqa: F401
from .matrices import RngSpec, ShapeError, as_matrix, normalize_columns

__all__ = [
    "EnlaConfig",
    "EnlcaBlockParams",
    "NormalizerUnderflowWarning",
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
    """

    rng: RngSpec
    m: int = 128
    k_amp: float = 6.0
    orthogonal: bool = False
    epsilon: float = 1e-12

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not self.k_amp >= 1.0:
            raise ValueError(f"k_amp must be >= 1, got {self.k_amp}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


def normalize_and_scale(theta_out, delta_out, k_amp: float, epsilon: float = 1e-12):
    """Turn raw query/key feature maps into amplified unit features.

    Each column is divided by its own norm (epsilon-floored) and scaled by
    sqrt(k_amp), so every surviving column has norm sqrt(k_amp) and
    q_i . k_j = k_amp * cos(angle) stays within [-k_amp, k_amp].
    """
    theta_out = as_matrix(theta_out, "theta output")
    delta_out = as_matrix(delta_out, "delta output")
    if theta_out.shape != delta_out.shape:
        raise ShapeError(
            f"query/key maps need equal shapes, got {theta_out.shape} vs {delta_out.shape}"
        )
    if not k_amp >= 1.0:
        raise ValueError(f"k_amp must be >= 1, got {k_amp}")
    scale = np.sqrt(k_amp)
    q = scale * normalize_columns(theta_out, epsilon)
    k = scale * normalize_columns(delta_out, epsilon)
    return q, k


def enla_forward(q, k, v, config: EnlaConfig) -> np.ndarray:
    """Randomized attention output for q, k (c x N) and v (c_out x N).

    phi(K) [V^T | 1] is computed before anything touches phi(Q), which
    keeps the cost linear in N and only one m x N feature matrix alive at
    a time. The stabilization shifts inside phi cancel in the output
    ratio. Normalizer entries below config.epsilon are floored and
    reported through a NormalizerUnderflowWarning rather than an error;
    that includes exact zeros from features that underflowed.
    """
    q = as_matrix(q, "q")
    k = as_matrix(k, "k")
    v = as_matrix(v, "v")
    if q.shape != k.shape:
        raise ShapeError(f"q and k need equal shapes, got {q.shape} vs {k.shape}")
    if v.shape[1] != q.shape[1]:
        raise ShapeError(f"v has {v.shape[1]} positions, q/k have {q.shape[1]}")
    projection = sample_projection(config.rng, config.m, q.shape[0], config.orthogonal)
    # the ones row of [V; 1] makes the last row of `out` the normalizer
    kv = _phi_values(projection, k).values @ np.vstack((v, np.ones(v.shape[1]))).T
    out = kv.T @ _phi_values(projection, q).values     # (c_out + 1) x N
    numerator, d = out[:-1], out[-1]
    low = d < config.epsilon
    if low.any():
        warnings.warn(
            f"{int(low.sum())} normalizer entries below epsilon={config.epsilon} were floored",
            NormalizerUnderflowWarning,
            stacklevel=2,
        )
        np.maximum(d, config.epsilon, out=d)
    numerator /= d
    return numerator


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
        w_theta = as_matrix(self.w_theta, "w_theta")
        w_delta = as_matrix(self.w_delta, "w_delta")
        w_psi = as_matrix(self.w_psi, "w_psi")
        if w_theta.shape != w_delta.shape:
            raise ShapeError(
                f"w_theta and w_delta need equal shapes, got {w_theta.shape} vs {w_delta.shape}"
            )
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

    @property
    def c_embed(self) -> int:
        return self.w_theta.shape[1]


def enlca_block(x, params: EnlcaBlockParams) -> np.ndarray:
    """One attention block with a residual connection: the input is
    embedded, normalized and amplified, run through the randomized
    forward against w_psi-transformed values, and added back onto x."""
    x = as_matrix(x, "x")
    if x.shape[0] != params.c_in:
        raise ShapeError(f"x has {x.shape[0]} channels, block expects {params.c_in}")
    cfg = params.config
    q, k = normalize_and_scale(params.w_theta.T @ x, params.w_delta.T @ x, cfg.k_amp, cfg.epsilon)
    v = params.w_psi.T @ x
    return x + enla_forward(q, k, v, cfg)


def random_block_params(rng: RngSpec, c_in: int, c_embed: int, config: EnlaConfig) -> EnlcaBlockParams:
    """Gaussian block weights scaled by 1/sqrt(c_in), drawn sequentially
    (theta, delta, psi) from one stream."""
    if not 1 <= c_embed <= c_in:
        raise ShapeError(f"need 1 <= c_embed <= c_in, got c_embed={c_embed}, c_in={c_in}")
    gen = rng.generator()
    scale = 1.0 / np.sqrt(c_in)
    return EnlcaBlockParams(
        w_theta=scale * gen.standard_normal((c_in, c_embed)),
        w_delta=scale * gen.standard_normal((c_in, c_embed)),
        w_psi=scale * gen.standard_normal((c_in, c_in)),
        config=config,
    )
