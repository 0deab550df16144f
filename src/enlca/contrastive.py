"""Contrastive separation of relevant from irrelevant features.

Relevance between positions is the amplified cosine of their query/key
features. Per query, the scores are sorted descending; the loss compares
the average exponentiated score of the top group (size floor(n1*N))
against an equally sized group starting at rank floor(n2*N), plus a
margin. Driving the loss down pushes the two groups apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import _validated_qkv
from .matrices import NumericError, ShapeError, _matrix_pair, _real, as_matrix, check_settings, normalize_columns

__all__ = [
    "ContrastiveConfig",
    "contrastive_loss",
    "reconstruction_loss",
    "relevance_scores",
    "total_loss",
]


@dataclass(frozen=True)
class ContrastiveConfig:
    """Loss hyperparameters: group fraction n1, irrelevant-window start
    fraction n2 and margin b."""

    n1: float = 0.02
    n2: float = 0.08
    b: float = 1.0

    def __post_init__(self):
        for name in ("n1", "n2", "b"):
            value = _real(name, getattr(self, name))
            if name != "b" and not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if self.n1 + self.n2 > 1.0:
            raise ValueError(
                f"the irrelevant window must fit: n1 + n2 <= 1, got {self.n1} + {self.n2}"
            )
        if not np.isfinite(self.b):
            raise ValueError(f"b must be finite, got {self.b}")


def relevance_scores(q, k, k_amp: float) -> np.ndarray:
    """N_q x N_k matrix of amplified cosines for q (c x N_q) and k (c x N_k),
    the oracle's contract (`exact._validated_qkv`): entry (i, j) is k_amp
    times the cosine between query column i and key column j. Invariant to
    positive rescaling of any input column. A cosine that rounds past +-1
    is clipped to it, so every score lies in [-k_amp, k_amp]."""
    q, k = _validated_qkv(q, k)
    check_settings(k_amp=k_amp)
    cosines = normalize_columns(q).T @ normalize_columns(k)
    return k_amp * np.clip(cosines, -1.0, 1.0, out=cosines)


def contrastive_loss(t, cfg: ContrastiveConfig) -> float:
    """Mean over rows of -log(top-group mean exp / window mean exp) + b.

    Both groups hold exactly P = floor(n1 * N) entries; the window starts
    at 0-based rank floor(n2 * N) of the descending sort, and ends by rank
    N, since ContrastiveConfig keeps n1 + n2 <= 1. The loss is not
    clamped, so values below b (or below zero) are legal and indicate the
    top group already dominates. Each group's log-mean-exp is shifted by
    the group's largest entry, so it stays finite however large the scores
    are; a row whose two groups lie past float range apart raises
    NumericError naming the row.
    """
    t = as_matrix(t, "relevance matrix")
    n = t.shape[1]
    p = int(np.floor(cfg.n1 * n))
    start = int(np.floor(cfg.n2 * n))
    if p < 1:
        raise ShapeError(f"top group is empty: floor(n1*N) = 0 for N={n}, n1={cfg.n1}")
    ordered = np.sort(t, axis=1)[:, ::-1]
    with np.errstate(over="ignore"):  # a row past float range is named below
        per_row = _log_mean_exp(ordered[:, start:start + p]) - _log_mean_exp(ordered[:, :p]) + cfg.b
    if not np.isfinite(per_row).all():
        raise NumericError(f"contrastive loss overflowed at row {int(np.argmin(np.isfinite(per_row)))}")
    return _unit_scale_mean(per_row)


def _unit_scale_mean(x: np.ndarray) -> float:
    """The mean of finite x at unit scale, exact by a power of two: no overflow."""
    e = np.frexp(np.abs(x).max())[1]
    return float(np.ldexp(np.ldexp(x, -e).mean(), e))


def _log_mean_exp(group: np.ndarray) -> np.ndarray:
    """Row-wise log(mean(exp(group))) for rows sorted descending, shifted
    by each row's first (largest) entry."""
    first = group[:, :1]
    return first[:, 0] + np.log(np.exp(group - first).mean(axis=1))


def reconstruction_loss(sr, hr) -> float:
    """Mean absolute elementwise difference between two images/feature maps,
    taken from the halved maps (exact above the subnormals), so that no
    difference overflows. A mean past float range raises NumericError."""
    sr, hr = _matrix_pair(sr, hr, "sr", "hr")
    loss = 2.0 * _unit_scale_mean(np.abs(0.5 * hr - 0.5 * sr))
    if np.isinf(loss):
        raise NumericError("reconstruction loss overflowed")
    return loss


def total_loss(rec: float, cl: float, lambda_cl: float) -> float:
    """Composite training objective: rec + lambda_cl * cl. A term that is
    not a real number, or is a bool, raises ValueError naming it; a term
    that is not finite raises ValueError too, and a sum past float range
    NumericError."""
    values = tuple(map(_real, ("rec", "cl", "lambda_cl"), (rec, cl, lambda_cl)))
    if not all(np.isfinite(v) for v in values):
        raise ValueError(f"loss terms must be finite, got {values}")
    loss = float(rec) + float(lambda_cl) * float(cl)
    if math.isinf(loss):
        raise NumericError("total loss overflowed")
    return loss
