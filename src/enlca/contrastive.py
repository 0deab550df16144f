"""Contrastive separation of relevant from irrelevant features.

Relevance between positions is the amplified cosine of their query/key
features. Per query, the scores are sorted descending; the loss compares
the average exponentiated score of the top group (size floor(n1*N))
against an equally sized group starting at rank floor(n2*N), plus a
margin. Driving the loss down pushes the two groups apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import ShapeError, _matrix_pair, as_matrix, check_settings, normalize_columns

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
        for name in ("n1", "n2"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if self.n1 + self.n2 > 1.0:
            raise ValueError(
                f"the irrelevant window must fit: n1 + n2 <= 1, got {self.n1} + {self.n2}"
            )
        if not np.isfinite(self.b):
            raise ValueError(f"b must be finite, got {self.b}")


def relevance_scores(q, k, k_amp: float) -> np.ndarray:
    """N x N matrix of amplified cosines: entry (i, j) is k_amp times the
    cosine between query column i and key column j. Invariant to positive
    rescaling of any input column."""
    q, k = _matrix_pair(q, k, "q", "k")
    check_settings(k_amp=k_amp)
    return k_amp * (normalize_columns(q).T @ normalize_columns(k))


def contrastive_loss(t, cfg: ContrastiveConfig) -> float:
    """Mean over rows of -log(top-group mean exp / window mean exp) + b.

    Both groups hold exactly P = floor(n1 * N) entries; the window starts
    at 0-based rank floor(n2 * N) of the descending sort, and ends by rank
    N, since ContrastiveConfig keeps n1 + n2 <= 1. The loss is not
    clamped, so values below b (or below zero) are legal and indicate the
    top group already dominates. Each group's log-mean-exp is shifted by
    the group's largest entry, so the loss stays finite however large the
    scores are.
    """
    t = as_matrix(t, "relevance matrix")
    n = t.shape[1]
    p = int(np.floor(cfg.n1 * n))
    start = int(np.floor(cfg.n2 * n))
    if p < 1:
        raise ShapeError(f"top group is empty: floor(n1*N) = 0 for N={n}, n1={cfg.n1}")
    ordered = np.sort(t, axis=1)[:, ::-1]
    per_row = _log_mean_exp(ordered[:, start:start + p]) - _log_mean_exp(ordered[:, :p]) + cfg.b
    # taken at unit scale, exactly by a power of two, so its sum cannot overflow
    e = np.frexp(np.abs(per_row).max())[1]
    return float(np.ldexp(np.ldexp(per_row, -e).mean(), e))


def _log_mean_exp(group: np.ndarray) -> np.ndarray:
    """Row-wise log(mean(exp(group))) for rows sorted descending, shifted
    by each row's first (largest) entry."""
    first = group[:, :1]
    return first[:, 0] + np.log(np.exp(group - first).mean(axis=1))


def reconstruction_loss(sr, hr) -> float:
    """Mean absolute elementwise difference between two images/feature maps."""
    sr, hr = _matrix_pair(sr, hr, "sr", "hr")
    return float(np.abs(hr - sr).mean())


def total_loss(rec: float, cl: float, lambda_cl: float) -> float:
    """Composite training objective: rec + lambda_cl * cl."""
    values = (rec, cl, lambda_cl)
    if not all(np.isfinite(v) for v in values):
        raise ValueError(f"loss terms must be finite, got {values}")
    return rec + lambda_cl * cl
