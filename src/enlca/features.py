"""Positive random features for the exponential kernel.

The feature map phi(u) = m^-1/2 * exp(-|u|^2 / 2) * exp(F u) with Gaussian
F makes phi(q) . phi(k) an unbiased estimator of exp(q . k); its variance
has the closed form K^2(q,k) * (exp(|q+k|^2) - 1) / m, and orthogonalized
projection rows lower it. The Monte-Carlo helpers here exercise all three.

phi and the attention forward share three kernels: `_projected`,
`_overflow_check` and `_exp_features`. `_projection_blocks` draws every
projection (`sample_projection`'s, the Monte-Carlo trials' and
`analysis.approximation_error_sweep`'s), and `_orthogonal_rows` owns the
orthogonal construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import (
    _U64_MAX, NumericError, RngSpec, ShapeError, _aligned_empty, as_matrix, as_vector, check_settings,
)

__all__ = [
    "PhiFeatures",
    "ProjectionMatrix",
    "VarianceReport",
    "kernel_estimates",
    "kernel_variance_empirical",
    "kernel_variance_theory",
    "phi",
    "sample_projection",
]

_REL_GAP_FLOOR = 1e-30

# Monte-Carlo trials per block, each block one draw buffer, one stacked QR
# (orthogonal only) and one vectorized estimator pass. Blocks of 16, 32 and
# 64 trials ran within 3 % of each other, and larger ones hold more memory
# (`BENCH_mc_floor.json` `trial_block_grid`).
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
    """Stabilized feature values: the exact map is values * exp(log_shift).
    Kept, like `phi` and `enla.phi`, only for the benchmark harness."""

    values: np.ndarray
    log_shift: float


def sample_projection(rng: RngSpec, m: int, c: int, orthogonal: bool = False) -> ProjectionMatrix:
    """Draw an m x c projection with iid N(0,1) entries.

    With orthogonal=True each block of up to c rows is replaced by its
    Gram-Schmidt directions (`_orthogonal_rows`), each row keeping its own
    norm, which is chi_c distributed and independent of all directions:
    every row is still marginally N(0, I_c), so estimators built on the
    projection stay unbiased while their variance drops.
    """
    blocks = _projection_blocks(rng, range(1), m, c)
    if orthogonal:
        blocks = _orthogonal_rows(blocks, np.eye(c))
    return ProjectionMatrix(f=next(blocks)[0], orthogonal=orthogonal)


def _projection_blocks(rng: RngSpec, offsets: range, m: int, c: int):
    """Yield the raw m x c draws of rng.stream(o) for o in offsets, as
    (count, m, c) stacks of up to _TRIAL_BLOCK, each a view of one draw
    buffer that the next stack overwrites. Each draw re-keys one Philox to
    (seed, stream_id + o mod 2^64) with a zero counter, through the state
    setter given a plain-int copy of the fresh state: bit-identical to a
    fresh generator on that stream, and cheaper than building one or
    setting uint64 arrays (`BENCH_mc_floor.json` `inproc`)."""
    check_settings(m=m, c=c)
    gen = rng.generator()
    bits = gen.bit_generator
    fresh = bits.state
    state = {**fresh, "state": {name: v.tolist() for name, v in fresh["state"].items()},
             "buffer": fresh["buffer"].tolist()}
    key = state["state"]["key"]
    f = np.empty((min(len(offsets), _TRIAL_BLOCK), m, c))
    for first in range(0, len(offsets), _TRIAL_BLOCK):
        block = offsets[first:first + _TRIAL_BLOCK]
        for draw, offset in zip(f, block):
            key[1] = (rng.stream_id + offset) & _U64_MAX
            bits.state = state
            gen.standard_normal(out=draw)
        yield f[:len(block)]


def _orthogonal_rows(blocks, rhs: np.ndarray, first_trial: int | None = None):
    """F_orth @ rhs for every raw draw F of each (count, m, c) stack in
    blocks, yielded per stack, where F_orth replaces each block B of up to
    c rows by the directions Q * sign(diag R) of B^T = Q R, scaled by B's
    row norms. rhs is a c-vector or a c x p matrix; each result is
    (count, m) or (count, m, p), a view of one output buffer that the next
    stack overwrites.

    Q is never formed: one Householder QR (geqrf) of [B^T | rhs] leaves
    Q[:, :b]^T rhs in R[:b, b:], because its first b reflectors see only
    B^T. The matrices live row-wise, as [B | rhs^T], in one stack kept for
    the call, so each reaches LAPACK as a Fortran-ordered view; numpy's raw
    mode returns R transposed. Forming Q, and a stack per block, cost more
    (`BENCH_qless.json` `in_process`; `BENCH_mc_floor.json` `faults`). A
    row with |R[i, i]| < 1e-150 depends linearly on the rows before it and
    raises NumericError naming the projection row and, given first_trial,
    the trial of the draw (the first stack's first draw is that trial).
    """
    rows = rhs.reshape(rhs.shape[0], -1).T
    stack = None
    for f in blocks:
        count, m, c = f.shape
        if stack is None:
            width = min(m, c)
            stack = np.empty((count, width + len(rows), c))
            stack[:, width:] = rows
            out = np.empty((count, m, len(rows)))
        for start in range(0, m, c):
            block = f[:, start:start + c]
            b = block.shape[1]
            stack[:count, width - b:width] = block
            h, _ = np.linalg.qr(stack[:count, width - b:].transpose(0, 2, 1), mode="raw")
            diag = np.diagonal(h, axis1=1, axis2=2)[:, :b]
            degenerate = np.argwhere(np.abs(diag) < 1e-150)
            if degenerate.size:
                draw, row = (int(i) for i in degenerate[0])
                where = "" if first_trial is None else f" at trial {first_trial + draw}"
                raise NumericError(f"degenerate Gaussian block: row {start + row} is linearly dependent{where}")
            scale = np.sign(diag) * np.sqrt(np.einsum("tij,tij->ti", block, block))
            np.multiply(h[:, b:, :b].transpose(0, 2, 1), scale[:, :, None], out=out[:count, start:start + b])
        yield out[:count].reshape((count, m) + rhs.shape[1:])
        if first_trial is not None:
            first_trial += count


def phi(f: ProjectionMatrix, u_cols) -> PhiFeatures:
    """Apply the positive feature map to every column of u_cols (c x N).

    A single shift S, the max of the real exponent F u - |u|^2 / 2 over
    the whole matrix, is taken out so the call cannot overflow; the exact
    feature matrix is values * exp(log_shift), and a ratio of phi products
    can use `values` as they are. Each column is shifted by its maximum
    and then weighted by the rest of its shift, with the 1/sqrt(m) scale,
    as `_exp_features` describes. Kept only for the benchmark harness.
    """
    u = as_matrix(u_cols, "phi input")
    if u.shape[0] != f.c:
        raise ShapeError(f"phi input has {u.shape[0]} channels, projection expects {f.c}")
    values = _aligned_empty((f.m, u.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # the helpers take none
        half_sq = _half_sq_norms(u)
        top = _projected(f.f, u, values)
        _overflow_check(top, values, 0)
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


def _projected(f: np.ndarray, u: np.ndarray, out: np.ndarray, axis: int = 0) -> np.ndarray:
    """Form F u in out for u, columns of a validated matrix, and return the
    maxima of out along axis: its column maxima, or its row maxima for
    axis=1. The caller runs `_exp_features` on out, so the features
    allocate nothing of size m x N, and `_overflow_check` on any maxima
    it has not shown to be finite. The caller ignores over and invalid in
    one np.errstate per pass, not per chunk.
    """
    np.matmul(f, u, out=out)
    return out.max(axis=axis)


def _overflow_check(top: np.ndarray, out: np.ndarray, offset: int, column: str = "column"):
    """Raise NumericError if a projection in out overflowed (+inf or NaN),
    which no shift can repair, naming its `column` of the whole matrix
    ("key column" or "query column" in the forward), out's first column
    being `offset`; top holds out's maxima, as `_projected` returned them.
    phi runs it on every block; the forward only on a block whose maxima
    fail its range test, since maxima within a finite range are finite.
    """
    if not (top < math.inf).all():
        col = offset + int(np.flatnonzero(~(out < math.inf).all(axis=0))[0])
        raise NumericError(f"phi overflowed after stabilization at {column} {col}")


def _exp_features(block: np.ndarray, top: np.ndarray, raw: bool):
    """exp in place on a projected block with maxima top, one per column
    (an N-vector) or one per row (an m x 1 column), as top's shape says;
    return the lead taken out of each: 0 for a raw block, else its maximum
    (-inf read as 0), which leaves every entry at most 1.

    The one shifted form of `phi`, the forward and `kernel_estimates`: a
    column whose real exponent F u_j - |u_j|^2 / 2 shares a shift S >= its
    max is then weighted by exp((lead_j - |u_j|^2 / 2) - S) <= 1.
    F u_j - lead_j keeps the bits of F u_j that |u_j|^2 / 2 + S, as one
    subtrahend, loses once |u_j|^2 / 2 dwarfs it.
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
    order-independent and can be reproduced individually: each estimate is
    bit-identical to kernel_estimates(q, k, m, 1, rng.stream(t),
    orthogonal)[0]. A trial's phi(q) . phi(k) collapses to
    exp(-(|q|^2 + |k|^2) / 2) * mean_l exp(f_l . z) for z = q + k,
    evaluated max-shifted (`_exp_features`) one block of _TRIAL_BLOCK trials
    at a time; each trial's prefactor goes through math.exp, since np.exp
    over the block may round it differently. With orthogonal=True, F_orth z
    comes from `_orthogonal_rows` and matches sample_projection's to
    rounding, not bitwise. NumericError names the first trial whose
    estimate overflowed; a q or k whose squared norm is past float range
    gives estimates of 0 unsampled.
    """
    q, k = _kernel_operands(q_i, k_j)
    check_settings(trials=trials, m=m)
    with np.errstate(over="ignore"):
        log_const = -0.5 * (float(q @ q) + float(k @ k))
    if log_const == -math.inf:  # F z could overflow; every estimate rounds to 0
        return np.zeros(trials)
    z = q + k
    out = np.empty(trials, dtype=np.float64)
    blocks = _projection_blocks(rng, range(1, 1 + trials), m, q.size)
    products = _orthogonal_rows(blocks, z, 0) if orthogonal else (np.matmul(f, z) for f in blocks)
    t = 0
    for g in products:
        top = g.max(axis=1)
        _exp_features(g, top[:, None], raw=False)
        exponents = (top + log_const).tolist()
        try:
            prefactors = list(map(math.exp, exponents))
        except OverflowError:  # the finiteness test below names the trial
            prefactors = list(map(_exp_or_inf, exponents))
        values = np.multiply(prefactors, g.sum(axis=1) / m, out=out[t:t + len(g)])
        finite = np.isfinite(values)
        if not finite.all():
            raise NumericError(f"kernel estimate overflowed at trial {t + int(np.argmin(finite))}")
        t += len(g)
    return out


def _exp_or_inf(x: float) -> float:
    """math.exp(x), or inf where the result is past float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


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
    check_settings(trials=trials)
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
