"""Positive random features for the exponential kernel.

The feature map phi(u) = m^-1/2 * exp(-|u|^2 / 2) * exp(F u) with Gaussian
F makes phi(q) . phi(k) an unbiased estimator of exp(q . k); its variance
has the closed form K^2(q,k) * (exp(|q+k|^2) - 1) / m. Both facts, plus the
variance reduction from orthogonalized projection rows, are exercised by
the Monte-Carlo helpers here.

All exponentials are max-shifted before evaluation; phi reports the shift
so exact values can be recovered, and ratio-style consumers can ignore it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import NumericError, RngSpec, ShapeError, as_matrix, as_vector

__all__ = [
    "PhiFeatures",
    "ProjectionMatrix",
    "VarianceReport",
    "kernel_estimate",
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
    rng: RngSpec

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


def _orthogonalize_rows(block: np.ndarray) -> np.ndarray:
    """Gram-Schmidt orthonormalization of the rows, run twice per row to
    keep orthogonality at machine precision."""
    q = np.empty_like(block)
    for i in range(block.shape[0]):
        v = block[i].copy()
        for _ in range(2):
            v -= q[:i].T @ (q[:i] @ v)
        norm = np.linalg.norm(v)
        if norm < 1e-150:
            raise NumericError(f"degenerate Gaussian block: row {i} is linearly dependent")
        q[i] = v / norm
    return q


def sample_projection(rng: RngSpec, m: int, c: int, orthogonal: bool = False) -> ProjectionMatrix:
    """Draw an m x c projection with iid N(0,1) entries.

    With orthogonal=True the rows are orthogonalized block-wise (blocks of
    up to c rows) and each row keeps its original norm, which is chi_c
    distributed and independent of all row directions; every row is still
    marginally N(0, I_c), so estimators built on the projection stay
    unbiased while their variance drops.
    """
    if m < 1 or c < 1:
        raise ShapeError(f"projection shape must be positive, got ({m}, {c})")
    gen = rng.generator()
    if not orthogonal:
        return ProjectionMatrix(f=gen.standard_normal((m, c)), orthogonal=False, rng=rng)
    blocks = []
    remaining = m
    while remaining > 0:
        b = min(remaining, c)
        block = gen.standard_normal((b, c))
        directions = _orthogonalize_rows(block)
        norms = np.linalg.norm(block, axis=1)
        blocks.append(directions * norms[:, None])
        remaining -= b
    return ProjectionMatrix(f=np.vstack(blocks), orthogonal=True, rng=rng)


def phi(f: ProjectionMatrix, u_cols) -> PhiFeatures:
    """Apply the positive feature map to every column of u_cols (c x N).

    A single shift, the max entry of F @ U, is subtracted inside the
    exponential so the call cannot overflow; the exact feature matrix is
    values * exp(log_shift). Any consumer that divides one phi product by
    another (the attention forward) can use `values` directly because the
    shifts cancel.
    """
    u = as_matrix(u_cols, "phi input")
    if u.shape[0] != f.c:
        raise ShapeError(f"phi input has {u.shape[0]} channels, projection expects {f.c}")
    return _phi_values(f, u)


def _phi_values(f: ProjectionMatrix, u: np.ndarray) -> PhiFeatures:
    """phi for a u that is already a validated c x N matrix.

    F @ U is the only m x N array made: the shift, |u|^2 / 2 and the
    1/sqrt(m) scale are folded into one N-vector that is subtracted in
    place before an in-place exp. Every exponent is then <= -log(m) / 2,
    so a finite shift is the only check needed. An |u|^2 / 2 that
    overflows sends its column's exponents to -inf, whose exp is the
    correctly rounded 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = f.f @ u
        shift = float(values.max())
        half_sq = 0.5 * np.einsum("ij,ij->j", u, u)
    if not math.isfinite(shift):
        col = int(np.flatnonzero(~np.isfinite(values).all(axis=0))[0])
        raise NumericError(f"phi overflowed after stabilization at column {col}")
    values -= half_sq + (shift + 0.5 * math.log(f.m))
    np.exp(values, out=values)
    return PhiFeatures(values=values, log_shift=shift)


def kernel_exact(q_i, k_j) -> float:
    """exp(q . k), the exponential (softmax) kernel."""
    q = as_vector(q_i, "q")
    k = as_vector(k_j, "k")
    if q.shape != k.shape:
        raise ShapeError(f"kernel operands need equal length, got {q.size} vs {k.size}")
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
    q = as_vector(q_i, "q")
    k = as_vector(k_j, "k")
    if q.shape != k.shape:
        raise ShapeError(f"kernel operands need equal length, got {q.size} vs {k.size}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    z = q + k
    with np.errstate(over="ignore"):
        k2 = np.exp(2.0 * float(q @ k))
        growth = np.expm1(float(z @ z))
    return float(k2 * growth) / m


def kernel_estimate(f: ProjectionMatrix, q_i, k_j) -> float:
    """One draw of the estimator phi(q) . phi(k), with the stabilization
    shifts folded back in."""
    q = as_vector(q_i, "q")
    k = as_vector(k_j, "k")
    pq = phi(f, q[:, None])
    pk = phi(f, k[:, None])
    dot = float(pq.values[:, 0] @ pk.values[:, 0])
    try:
        value = dot * math.exp(pq.log_shift + pk.log_shift)
    except OverflowError:
        raise NumericError("kernel estimate overflowed") from None
    if not math.isfinite(value):
        raise NumericError("kernel estimate overflowed")
    return value


def _estimate_from_stream(fmat: np.ndarray, z: np.ndarray, log_const: float) -> float:
    # phi(q) . phi(k) collapses to exp(-(|q|^2+|k|^2)/2) * mean_l exp(f_l . z)
    # for z = q + k; evaluated max-shifted.
    g = fmat @ z
    s = float(g.max())
    try:
        scale = math.exp(s + log_const)
    except OverflowError:
        return math.inf
    return scale * float(np.exp(g - s).mean())


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
    order-independent and can be reproduced individually.
    """
    q = as_vector(q_i, "q")
    k = as_vector(k_j, "k")
    if q.shape != k.shape:
        raise ShapeError(f"kernel operands need equal length, got {q.size} vs {k.size}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    z = q + k
    log_const = -0.5 * (float(q @ q) + float(k @ k))
    out = np.empty(trials, dtype=np.float64)
    for t in range(trials):
        f = sample_projection(rng.stream(1 + t), m, q.size, orthogonal)
        value = _estimate_from_stream(f.f, z, log_const)
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
