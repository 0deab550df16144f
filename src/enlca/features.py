"""Positive random features for the exponential kernel.

The feature map phi(u) = m^-1/2 * exp(-|u|^2 / 2) * exp(F u) with Gaussian
F makes phi(q) . phi(k) an unbiased estimator of exp(q . k); its variance
has the closed form K^2(q,k) * (exp(|q+k|^2) - 1) / m. Both facts, plus the
variance reduction from orthogonalized projection rows, are exercised by
the Monte-Carlo helpers here.

All exponentials are max-shifted before evaluation; phi reports the shift
so exact values can be recovered, and ratio-style consumers can ignore it.
phi and the attention forward share one kernel, `_exp_features`, which
differs between them only in the shift it subtracts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import NumericError, RngSpec, ShapeError, as_matrix, as_vector, check_settings

__all__ = [
    "PhiFeatures",
    "ProjectionMatrix",
    "VarianceReport",
    "kernel_estimates",
    "kernel_exact",
    "kernel_variance_empirical",
    "kernel_variance_theory",
    "phi",
    "sample_projection",
]

_REL_GAP_FLOOR = 1e-30


@dataclass(frozen=True)
class ProjectionMatrix:
    """An m x c random projection, optionally with orthogonalized rows."""

    f: np.ndarray
    orthogonal: bool

    @property
    def m(self) -> int:
        return self.f.shape[0]

    @property
    def c(self) -> int:
        return self.f.shape[1]


@dataclass(frozen=True)
class PhiFeatures:
    """Stabilized feature values: the exact map is values * exp(log_shift)."""

    values: np.ndarray
    log_shift: float


def sample_projection(rng: RngSpec, m: int, c: int, orthogonal: bool = False) -> ProjectionMatrix:
    """Draw an m x c projection with iid N(0,1) entries.

    With orthogonal=True the rows are orthogonalized block-wise (blocks of
    up to c rows) and each row keeps its original norm, which is chi_c
    distributed and independent of all row directions; every row is still
    marginally N(0, I_c), so estimators built on the projection stay
    unbiased while their variance drops. The directions are the Q factor
    of the block's transpose with its signs fixed so that diag(R) > 0,
    which makes them the Gram-Schmidt directions of the block's rows.
    """
    if m < 1 or c < 1:
        raise ShapeError(f"projection shape must be positive, got ({m}, {c})")
    f = rng.generator().standard_normal((m, c))
    if orthogonal:
        for start in range(0, m, c):
            block = f[start:start + c]
            q_factor, r_factor = np.linalg.qr(block.T)
            diag = np.diagonal(r_factor)
            degenerate = np.flatnonzero(np.abs(diag) < 1e-150)
            if degenerate.size:
                raise NumericError(
                    f"degenerate Gaussian block: row {int(degenerate[0])} is linearly dependent"
                )
            block[...] = q_factor.T * (np.sign(diag) * np.linalg.norm(block, axis=1))[:, None]
    return ProjectionMatrix(f=f, orthogonal=orthogonal)


def phi(f: ProjectionMatrix, u_cols) -> PhiFeatures:
    """Apply the positive feature map to every column of u_cols (c x N).

    A single shift, the max of the real exponent F u - |u|^2 / 2 over the
    whole matrix, is subtracted inside the exponential so the call cannot
    overflow; the exact feature matrix is values * exp(log_shift). Any
    consumer that divides one phi product by another (the attention
    forward) can use `values` directly because the shifts cancel.
    """
    u = as_matrix(u_cols, "phi input")
    if u.shape[0] != f.c:
        raise ShapeError(f"phi input has {u.shape[0]} channels, projection expects {f.c}")
    values = np.empty((f.m, u.shape[1]))
    half_sq = _half_sq_norms(u)
    log_shift = -math.inf

    def shift(top, start, stop):
        nonlocal log_shift
        log_shift = float(np.max(top - half_sq))
        # the 1/sqrt(m) scale rides along with the shift
        return half_sq + (_finite_or_zero(log_shift) + 0.5 * math.log(f.m))

    _exp_features(f.f, u, 0, u.shape[1], values, shift)
    return PhiFeatures(values=values, log_shift=log_shift)


def _half_sq_norms(u: np.ndarray) -> np.ndarray:
    """|u_j|^2 / 2 per column; an overflow gives inf, whose features are 0."""
    with np.errstate(over="ignore"):
        return 0.5 * np.einsum("ij,ij->j", u, u)


def _finite_or_zero(shift: float) -> float:
    """A shift of -inf means every exponent it covers is -inf; any finite
    shift then gives the correct 0 features, where -inf would give NaN."""
    return shift if math.isfinite(shift) else 0.0


def _exp_features(f: np.ndarray, u: np.ndarray, start: int, stop: int, out: np.ndarray, shift) -> None:
    """The feature kernel: exp(F u_j - s_j) for columns start..stop-1 of a
    validated c x N matrix u, written in place into out (m x (stop - start)).

    `shift(top, start, stop)` receives the column maxima of F u over the
    slice and returns s, a scalar or one entry per column. F u is formed in
    `out`, s is subtracted in place and exp runs in place, so the kernel
    allocates nothing of size m x N. A projection that overflows (a column
    maximum of +inf or NaN) cannot be repaired by any shift and raises
    NumericError naming the column of u.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(f, u[:, start:stop], out=out)
        top = out.max(axis=0)
        if not (top < math.inf).all():
            col = start + int(np.flatnonzero(~(top < math.inf))[0])
            raise NumericError(f"phi overflowed after stabilization at column {col}")
        out -= shift(top, start, stop)
    np.exp(out, out=out)


def _kernel_operands(q_i, k_j) -> tuple[np.ndarray, np.ndarray]:
    q = as_vector(q_i, "q")
    k = as_vector(k_j, "k")
    if q.shape != k.shape:
        raise ShapeError(f"kernel operands need equal length, got {q.size} vs {k.size}")
    return q, k


def kernel_exact(q_i, k_j) -> float:
    """exp(q . k), the exponential (softmax) kernel."""
    q, k = _kernel_operands(q_i, k_j)
    inner = float(q @ k)
    try:
        value = math.exp(inner)
    except OverflowError:
        raise NumericError(f"kernel overflowed: exp({inner:.6g})") from None
    if not math.isfinite(value):
        raise NumericError(f"kernel overflowed: exp({inner:.6g})")
    return value


def kernel_variance_theory(q_i, k_j, m: int) -> float:
    """Closed-form variance of the m-sample iid feature estimator of
    exp(q . k): K^2 * (exp(|q + k|^2) - 1) / m. May return inf when the
    closed form itself exceeds float range."""
    q, k = _kernel_operands(q_i, k_j)
    check_settings(m=m)
    z = q + k
    with np.errstate(over="ignore"):
        k2 = np.exp(2.0 * float(q @ k))
        growth = np.expm1(float(z @ z))
    return float(k2 * growth) / m


def kernel_estimates(
    q_i,
    k_j,
    m: int,
    trials: int,
    rng: RngSpec,
    orthogonal: bool = False,
) -> np.ndarray:
    """Estimator samples across `trials` independent projections.

    Trial t draws its projection from rng.stream(1 + t), so trials are
    order-independent and can be reproduced individually. A trial's
    phi(q) . phi(k) collapses to exp(-(|q|^2 + |k|^2) / 2) * mean_l
    exp(f_l . z) for z = q + k, which is evaluated max-shifted.
    """
    q, k = _kernel_operands(q_i, k_j)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    z = q + k
    log_const = -0.5 * (float(q @ q) + float(k @ k))
    out = np.empty(trials, dtype=np.float64)
    for t in range(trials):
        g = sample_projection(rng.stream(1 + t), m, q.size, orthogonal).f @ z
        s = float(g.max())
        try:
            value = math.exp(s + log_const) * float(np.exp(g - s).mean())
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise NumericError(f"kernel estimate overflowed at trial {t}")
        out[t] = value
    return out


@dataclass(frozen=True)
class VarianceReport:
    """Empirical estimator variance next to the iid closed form."""

    theoretical: float
    empirical: float
    trials: int
    m: int
    rel_gap: float


def kernel_variance_empirical(
    q_i,
    k_j,
    m: int,
    trials: int,
    rng: RngSpec,
    orthogonal: bool = False,
) -> VarianceReport:
    """Sample variance (unbiased, trials-1 denominator) of the estimator
    across independent projections, paired with the iid closed form.

    With orthogonal=True the empirical side measures the orthogonalized
    construction while `theoretical` stays the iid reference it is
    compared against.
    """
    if trials < 2:
        raise ValueError(f"variance needs trials >= 2, got {trials}")
    estimates = kernel_estimates(q_i, k_j, m, trials, rng, orthogonal)
    empirical = float(estimates.var(ddof=1))
    theoretical = kernel_variance_theory(q_i, k_j, m)
    rel_gap = abs(empirical - theoretical) / max(theoretical, _REL_GAP_FLOOR)
    return VarianceReport(
        theoretical=theoretical,
        empirical=empirical,
        trials=trials,
        m=m,
        rel_gap=rel_gap,
    )
