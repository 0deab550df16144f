"""Positive random features for the exponential kernel.

The feature map phi(u) = m^-1/2 * exp(-|u|^2 / 2) * exp(F u) with Gaussian
F makes phi(q) . phi(k) an unbiased estimator of exp(q . k); its variance
has the closed form K^2(q,k) * (exp(|q+k|^2) - 1) / m. Both facts, plus the
variance reduction from orthogonalized projection rows, are exercised by
the Monte-Carlo helpers here.

phi and the attention forward share two kernels: `_projected` forms F u
in the caller's buffer and returns its column or row maxima, and
`_exp_features` runs exp on it in place, raw or shifted by those maxima.

Projections come from one private sampler, `_projection_blocks`, which
serves `sample_projection` and, _TRIAL_BLOCK at a time, the Monte-Carlo
trials of `kernel_estimates`. It re-keys one Philox to each projection's
stream; every draw is bit-identical to one drawn alone by a fresh
generator on its stream. One helper, `_orthogonal_rows`, owns the
orthogonal construction: it reads F_orth z off the R factor of a single
Householder QR of [B^T | z] per block B of rows, so the trials never form
Q or F_orth, and `sample_projection` forms F_orth as the case z = I_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import _U64_MAX, NumericError, RngSpec, ShapeError, as_matrix, as_vector, check_settings

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

# Monte-Carlo trials per block: one stacked R-factor QR per block of c
# rows (orthogonal only) and one vectorized estimator pass each. Larger
# blocks are no faster and hold more memory.
_TRIAL_BLOCK = 32


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
    which makes them the Gram-Schmidt directions of the block's rows;
    `_orthogonal_rows` reads them off the R factor of [B^T | I_c].
    """
    f = next(_projection_blocks(rng, range(1), m, c))
    if orthogonal:
        f = _orthogonal_rows(f, np.eye(c))
    return ProjectionMatrix(f=f[0], orthogonal=orthogonal)


def _projection_blocks(rng: RngSpec, offsets: range, m: int, c: int):
    """Yield the raw m x c draws of rng.stream(o) for o in offsets, as
    (count, m, c) stacks of up to _TRIAL_BLOCK. For each projection the one
    Philox gets key (seed, stream_id + o mod 2^64) and a zero counter
    through the public state setter: the draw of a fresh generator on that
    stream, at a tenth of the cost of building one."""
    check_settings(m=m, c=c)
    gen = rng.generator()
    fresh = gen.bit_generator.state
    for first in range(0, len(offsets), _TRIAL_BLOCK):
        block = offsets[first:first + _TRIAL_BLOCK]
        f = np.empty((len(block), m, c))
        for j, offset in enumerate(block):
            fresh["state"]["key"][1] = (rng.stream_id + offset) & _U64_MAX
            gen.bit_generator.state = fresh
            gen.standard_normal(out=f[j])
        yield f


def _orthogonal_rows(f: np.ndarray, rhs: np.ndarray, first_trial: int | None = None) -> np.ndarray:
    """F_orth @ rhs for every raw draw F in a (count, m, c) stack, where
    F_orth orthogonalizes each block B of up to c rows: its rows are the
    directions Q * sign(diag R) of B^T = Q R, scaled by B's row norms.

    rhs is a c-vector or a c x p matrix; the result is (count, m) or
    (count, m, p). Q is never formed: one Householder QR (LAPACK geqrf) of
    the c x (b + p) matrix [B^T | rhs] leaves Q[:, :b]^T rhs in R[:b, b:],
    because its first b reflectors see only B^T. numpy's raw mode returns
    R transposed: R[i, j] is h[..., j, i]. A row with |R[i, i]| < 1e-150
    is linearly dependent on the rows before it and raises NumericError
    naming the projection row and, given first_trial, the trial of the
    draw (the stack's first draw is trial first_trial).
    """
    count, m, c = f.shape
    z = np.broadcast_to(rhs.reshape(c, -1), (count, c, rhs.size // c))
    out = np.empty((count, m, z.shape[2]))
    for start in range(0, m, c):
        block = f[:, start:start + c]
        b = block.shape[1]
        h, _ = np.linalg.qr(np.concatenate((block.transpose(0, 2, 1), z), axis=2), mode="raw")
        diag = np.diagonal(h, axis1=1, axis2=2)[:, :b]
        degenerate = np.argwhere(np.abs(diag) < 1e-150)
        if degenerate.size:
            draw, row = (int(i) for i in degenerate[0])
            where = "" if first_trial is None else f" at trial {first_trial + draw}"
            raise NumericError(f"degenerate Gaussian block: row {start + row} is linearly dependent{where}")
        scale = np.sign(diag) * np.sqrt(np.einsum("tij,tij->ti", block, block))
        out[:, start:start + b] = h[:, b:, :b].transpose(0, 2, 1) * scale[:, :, None]
    return out.reshape(f.shape[:2] + rhs.shape[1:])


def phi(f: ProjectionMatrix, u_cols) -> PhiFeatures:
    """Apply the positive feature map to every column of u_cols (c x N).

    A single shift S, the max of the real exponent F u - |u|^2 / 2 over
    the whole matrix, is taken out so the call cannot overflow; the exact
    feature matrix is values * exp(log_shift), and a ratio of phi products
    can use `values` as they are. Each column is shifted by its maximum
    and then weighted by the rest of its shift, with the 1/sqrt(m) scale,
    as `_exp_features` describes.
    """
    u = as_matrix(u_cols, "phi input")
    if u.shape[0] != f.c:
        raise ShapeError(f"phi input has {u.shape[0]} channels, projection expects {f.c}")
    values = np.empty((f.m, u.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # the helpers take none
        half_sq = _half_sq_norms(u)
        top = _projected(f.f, u, 0, values)
        log_shift = float(np.max(top - half_sq))
        lead = _exp_features(values, top, raw=False)
        values *= np.exp((lead - half_sq - _finite_or_zero(log_shift)) - 0.5 * math.log(f.m))
    return PhiFeatures(values=values, log_shift=log_shift)


def _half_sq_norms(u: np.ndarray) -> np.ndarray:
    """|u_j|^2 / 2 per column; an overflow gives inf, whose features are 0.
    The caller holds np.errstate(over="ignore")."""
    return 0.5 * np.einsum("ij,ij->j", u, u)


def _finite_or_zero(shift):
    """The shift, a scalar or one entry per column, with each -inf set to
    0. A shift of -inf means every exponent it covers is -inf; any finite
    shift then gives the correct 0 features, where -inf would give NaN."""
    return np.where(np.isfinite(shift), shift, 0.0)


def _projected(f: np.ndarray, u: np.ndarray, offset: int, out: np.ndarray, axis: int = 0) -> np.ndarray:
    """Form F u in out for u, the columns from `offset` on of a validated
    matrix, and return the maxima of out along axis: its column maxima, or
    its row maxima for axis=1. The caller runs `_exp_features` on
    out, so the features allocate nothing of size m x N. A projection that
    overflows (an entry of +inf or NaN) cannot be repaired by any shift and
    raises NumericError naming the column of the whole matrix. The caller
    holds np.errstate(over="ignore", invalid="ignore"), once per pass and not
    once per chunk.
    """
    np.matmul(f, u, out=out)
    top = out.max(axis=axis)
    if not (top < math.inf).all():
        col = offset + int(np.flatnonzero(~(out < math.inf).all(axis=0))[0])
        raise NumericError(f"phi overflowed after stabilization at column {col}")
    return top


def _exp_features(block: np.ndarray, top: np.ndarray, raw: bool):
    """exp in place on a projected block with maxima top, one per column
    (an N-vector) or one per row (an m x 1 column), as top's shape says;
    return the lead taken out of each: 0 for a raw block, else its maximum
    (-inf read as 0), which leaves every entry at most 1.

    The one shifted form of `phi`: a column whose real exponent
    F u_j - |u_j|^2 / 2 shares a shift S >= its max is then weighted by
    exp((lead_j - |u_j|^2 / 2) - S) <= 1. F u_j - lead_j keeps the bits of
    F u_j that |u_j|^2 / 2 + S, as one subtrahend, loses once |u_j|^2 / 2
    dwarfs it.
    """
    lead = 0.0 if raw else _finite_or_zero(top)
    if not raw:
        block -= lead
    np.exp(block, out=block)
    return lead


def _kernel_operands(q_i, k_j) -> tuple[np.ndarray, np.ndarray]:
    q = as_vector(q_i, "q")
    k = as_vector(k_j, "k")
    if q.shape != k.shape:
        raise ShapeError(f"kernel operands need equal length, got {q.size} vs {k.size}")
    return q, k


def kernel_exact(q_i, k_j) -> float:
    """exp(q . k), the exponential (softmax) kernel."""
    q, k = _kernel_operands(q_i, k_j)
    with np.errstate(over="ignore"):  # an inf inner product is named below
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
    exp(q . k), K^2 (exp(|z|^2) - 1) / m with z = q + k, as exp(2 q.k +
    |z|^2 + log(1 - exp(-|z|^2))) / m: factors beyond float range cancel.
    With q, k divided by s = max(1, max|q|, max|k|), each exponent is s^2
    times a bracket of inner products, and a bracket of 0 stays 0."""
    q, k = _kernel_operands(q_i, k_j)
    check_settings(m=m)
    s = max(1.0, float(np.abs(q).max()), float(np.abs(k).max()))
    q, k = q / s, k / s
    sq = float((q + k) @ (q + k))
    growth, exponent = (s * s * b if b else 0.0 for b in (sq, 2.0 * float(q @ k) + sq))
    with np.errstate(over="ignore", divide="ignore"):
        return float(np.exp(exponent + np.log(-np.expm1(-growth)))) / m


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

    Trials run _TRIAL_BLOCK at a time: one re-keyed Philox draws the
    block and one vectorized pass forms F z, its row maxima and the
    shifted means. With orthogonal=True, _orthogonal_rows gives F_orth z,
    which matches sample_projection's F_orth times z to rounding, not
    bitwise. Each estimate is bit-identical to its trial
    evaluated alone, kernel_estimates(q, k, m, 1, rng.stream(t),
    orthogonal)[0]; only the prefactor exp(max + log_const) stays a
    per-trial math.exp, because np.exp may round it differently. A q or k
    whose squared norm is past float range gives estimates of 0 unsampled.
    """
    q, k = _kernel_operands(q_i, k_j)
    check_settings(trials=trials, m=m)
    with np.errstate(over="ignore"):
        log_const = -0.5 * (float(q @ q) + float(k @ k))
    if log_const == -math.inf:  # F z could overflow; every estimate rounds to 0
        return np.zeros(trials)
    z = q + k
    out = np.empty(trials, dtype=np.float64)
    t = 0
    for f in _projection_blocks(rng, range(1, 1 + trials), m, q.size):
        g = _orthogonal_rows(f, z, t) if orthogonal else np.matmul(f, z)
        s = g.max(axis=1)
        means = np.exp(g - s[:, None]).mean(axis=1)
        for top, mean in zip(s.tolist(), means.tolist()):
            try:
                value = math.exp(top + log_const) * mean
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise NumericError(f"kernel estimate overflowed at trial {t}")
            out[t] = value
            t += 1
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
    compared against. A closed form beyond float range raises
    NumericError before any trial is drawn.
    """
    if trials < 2:
        raise ValueError(f"variance needs trials >= 2, got {trials}")
    theoretical = kernel_variance_theory(q_i, k_j, m)
    if not math.isfinite(theoretical):
        raise NumericError("closed-form variance overflowed")
    estimates = kernel_estimates(q_i, k_j, m, trials, rng, orthogonal)
    empirical = float(estimates.var(ddof=1))
    rel_gap = abs(empirical - theoretical) / max(theoretical, _REL_GAP_FLOOR)
    return VarianceReport(
        theoretical=theoretical,
        empirical=empirical,
        trials=trials,
        m=m,
        rel_gap=rel_gap,
    )
