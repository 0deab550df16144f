"""Cost model and validation sweeps.

The FLOP model counts multiply-accumulates (1 MAC = 2 FLOPs) for the
quadratic attention baseline, the randomized linear forward and a 3x3
convolution of matching width. The sweeps measure how the randomized
forward converges to the exact oracle with the sample count, how the
estimator variance grows with amplification, and how wall-clock time
scales with the input size. Every sweep axis follows one rule, `_axis`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Optional, Union

import numpy as np

from .enla import EnlaConfig, _Forwards, enla_forward, normalize_and_scale
from .exact import exact_attention
from .features import _projection_blocks, kernel_variance_empirical
from .matrices import NumericError, RngSpec, _open_for, check_settings, gaussian_sample

__all__ = [
    "FlopModel",
    "SweepTable",
    "approximation_error_sweep",
    "consecutive_ratios",
    "flop_count",
    "flop_table",
    "runtime_scaling",
    "variance_sweep_k",
    "write_sweep_csv",
]

FLOPS_PER_MAC = 2

_METHODS = ("nla", "enlca", "conv3x3")
_TABLE_SAMPLE_COUNTS = (2, 4, 8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class FlopModel:
    """Exact operation counts for one method at one problem size."""

    method: str
    n: int
    c: int
    c_out: int
    m: Optional[int]
    macs: int
    flops: int

    @property
    def gflops(self) -> float:
        return self.flops / 1e9


def flop_count(method: str, n: int, c: int, c_out: int, m: Optional[int] = None) -> FlopModel:
    """MAC/FLOP counts: quadratic attention needs N^2 (c + c_out) MACs,
    the randomized forward 2mNc + 2mN c_out, a 3x3 convolution
    9 N c c_out.

    Normalization work is excluded from every method by convention: the
    quadratic count drops the softmax exponentials and divisions, and the
    randomized count drops the 2mN normalizer multiply-adds (1/(c + c_out)
    of the total, under 0.8% at c = c_out = 64); only this convention
    reproduces the published comparison table on both paths at two
    decimals.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    check_settings(n=n, c=c, c_out=c_out, m=m)
    if method == "nla":
        macs = n * n * (c + c_out)
        m = None
    elif method == "conv3x3":
        macs = 9 * n * c * c_out
        m = None
    elif m is None:
        raise ValueError("the enlca count needs a sample count m")
    else:
        macs = 2 * m * n * c + 2 * m * n * c_out
    return FlopModel(method=method, n=n, c=c, c_out=c_out, m=m, macs=macs, flops=FLOPS_PER_MAC * macs)


def flop_table(n: int = 10_000, c: int = 64, c_out: int = 64) -> list[FlopModel]:
    """The standard comparison table: quadratic attention, one 3x3
    convolution, and the randomized forward across sample counts."""
    rows = [flop_count("nla", n, c, c_out), flop_count("conv3x3", n, c, c_out)]
    rows.extend(flop_count("enlca", n, c, c_out, m) for m in _TABLE_SAMPLE_COUNTS)
    return rows


@dataclass(frozen=True)
class SweepTable:
    """Metric columns over an ascending axis.

    Each row of `points` follows `columns`; column 0 ("x") is the axis
    value. `skipped` holds the axis values left out because a measurement
    overflowed.
    """

    axis: str
    metric_kind: str
    columns: tuple[str, ...]
    points: tuple[tuple[float, ...], ...]
    skipped: tuple[float, ...] = ()

    def column(self, name: str) -> list[float]:
        i = self.columns.index(name)
        return [row[i] for row in self.points]


def _axis(values: Iterable, name: str, setting: str) -> list:
    """The one rule of a sweep axis: the axis must be flat, every value
    passes check_settings as `setting` (m, n or k_amp), then the axis must
    be non-empty and strictly ascending. Returns floats for k_amp and ints
    otherwise."""
    values = list(values)
    for value in values:
        if np.ndim(value):
            raise ValueError(f"{name} must be flat, got the entry {value}")
        check_settings(**{setting: value})
    values = [float(value) if setting == "k_amp" else int(value) for value in values]
    if not values:
        raise ValueError(f"{name} must be non-empty")
    if any(later <= earlier for earlier, later in zip(values, values[1:])):
        raise ValueError(f"{name} must be ascending, got {values}")
    return values


def _instance(rng: RngSpec, n: int, c: int, c_out: int,
              k_amp: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A sweep's (q, k, v): theta, delta and v from rng.stream(1), (2) and (3)."""
    theta = gaussian_sample(rng.stream(1), c, n)
    delta = gaussian_sample(rng.stream(2), c, n)
    v = gaussian_sample(rng.stream(3), c_out, n)
    return (*normalize_and_scale(theta, delta, k_amp), v)


def approximation_error_sweep(n: int, c: int, c_out: int, m_list: Iterable[int], k_amp: float, trials: int,
                              rng: RngSpec) -> SweepTable:
    """Median relative Frobenius error of the randomized forward against
    the exact oracle, per sample count.

    The instance (q, k, v) is fixed by `rng`, and the forward is set up for
    it once (`enla._Forwards`). Trial t draws one projection of the largest
    m rows from rng.stream(16 + t) (`features._projection_blocks`), and each
    m uses its first m rows, so sample counts are compared on common random
    numbers. An iid draw fills rows in order, so each trial's first error
    is bit for bit that of enla_forward(q, k, v, EnlaConfig(rng.stream(16 +
    t), m=m_1)). Each trial's outputs are its own and are scored in place.
    """
    check_settings(n=n, c=c, c_out=c_out, trials=trials)
    if n > 4096:
        raise ValueError(f"the exact oracle is only run up to n=4096, got {n}")
    ms = _axis(m_list, "m_list", "m")
    q, k, v = _instance(rng, n, c, c_out, k_amp)
    reference = exact_attention(q, k, v)
    ref_norm = float(np.linalg.norm(reference))
    forwards = _Forwards(q, k, v, ms)
    draws = (f for block in _projection_blocks(rng, range(16, 16 + trials), ms[-1], c) for f in block)
    errors = np.empty((len(ms), trials))
    for t, f in enumerate(draws):
        errors[:, t] = [float(np.linalg.norm(np.subtract(approx, reference, out=approx))) / ref_norm
                        for approx in forwards.project(f)]
    points = [(float(m), float(np.median(row))) for m, row in zip(ms, errors)]
    return SweepTable(axis="m", metric_kind="rel_error", columns=("x", "value"), points=tuple(points))


def _aligned_vector(c: int, k_amp: float) -> np.ndarray:
    """The c-vector sqrt(k_amp) e_1: a unit direction amplified by k_amp."""
    check_settings(c=c, k_amp=k_amp)
    u = np.zeros(c)
    u[0] = np.sqrt(k_amp)
    return u


def variance_sweep_k(k_list: Iterable[float], c: int, m: int, trials: int, rng: RngSpec) -> SweepTable:
    """Estimator variance on amplified aligned unit vectors, theory next
    to measurement, per amplification factor.

    Point i draws its trials under rng.stream(i * (trials + 1)). Points
    where either side overflows float range are skipped and reported in
    `skipped`; the sweep continues.
    """
    check_settings(c=c, m=m, trials=trials)
    k_values = _axis(k_list, "k_list", "k_amp")
    points, overflowed = [], []
    for i, k_amp in enumerate(k_values):
        u = _aligned_vector(c, k_amp)
        try:
            report = kernel_variance_empirical(u, u, m, trials, rng.stream(i * (trials + 1)))
        except NumericError:
            overflowed.append(k_amp)
            continue
        points.append((k_amp, report.theoretical, report.empirical))
    return SweepTable(
        axis="k_amp",
        metric_kind="variance_theory,variance_empirical",
        columns=("x", "theory", "empirical"),
        points=tuple(points),
        skipped=tuple(overflowed),
    )


def runtime_scaling(n_list: Iterable[int], c: int, c_out: int, m: int, repeats: int,
                    rng: RngSpec = RngSpec(0)) -> SweepTable:
    """Fastest wall-clock seconds of each forward per input size.

    Every repeat times each size in turn, the exact oracle and then the
    forward, and the minimum over repeats is kept: a phase of load from
    other processes then slows one repeat of every size, not every repeat
    of one, and the minimum is the run it disturbed least. Timed sections
    run back to back on one thread of control.
    """
    check_settings(repeats=repeats, c=c, c_out=c_out)
    if repeats < 3:
        raise ValueError(f"repeats must be >= 3 for a stable minimum, got {repeats}")
    sizes = _axis(n_list, "n_list", "n")
    cases = [(*_instance(rng.stream(3 * i), n, c, c_out, 1.0), EnlaConfig(rng=rng.stream(10_000 + i), m=m))
             for i, n in enumerate(sizes)]
    exact_times = [math.inf] * len(sizes)
    enla_times = [math.inf] * len(sizes)
    for _ in range(repeats):
        for i, (q, k, v, config) in enumerate(cases):
            start = time.perf_counter()
            exact_attention(q, k, v)
            exact_times[i] = min(exact_times[i], time.perf_counter() - start)
            start = time.perf_counter()
            enla_forward(q, k, v, config)
            enla_times[i] = min(enla_times[i], time.perf_counter() - start)
    points = tuple((float(n), exact_times[i], enla_times[i]) for i, n in enumerate(sizes))
    return SweepTable(axis="n", metric_kind="seconds", columns=("x", "exact", "enla"), points=points)


def consecutive_ratios(table: SweepTable, column: str) -> list[tuple[float, float, float]]:
    """(x_i, x_{i+1}, value_{i+1} / value_i) of one column over consecutive rows."""
    xs, values = table.column("x"), table.column(column)
    return [(x0, x1, v1 / v0) for x0, x1, v0, v1 in zip(xs, xs[1:], values, values[1:])]


# ---------------------------------------------------------------------------
# Sweep CSV: a comment header naming the axis, the metric kind(s) and the
# columns, then one ascending-x row per point.
# ---------------------------------------------------------------------------


def write_sweep_csv(table: SweepTable, dest: Union[str, Path, IO[str]]) -> None:
    """Serialize a sweep table to CSV."""
    with _open_for(dest, "w") as fp:
        fp.write(f"# axis={table.axis} metric_kind={table.metric_kind} columns={','.join(table.columns)}\n")
        for row in table.points:
            fp.write(",".join(repr(float(v)) for v in row) + "\n")
