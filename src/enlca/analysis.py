"""Cost model and validation sweeps.

The FLOP model counts multiply-accumulates (1 MAC = 2 FLOPs) for the
quadratic attention baseline, the randomized linear forward and a 3x3
convolution of matching width. The sweeps measure how the randomized
forward converges to the exact oracle with the sample count, how the
estimator variance grows with amplification, and how wall-clock time
scales with the input size.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional, Sequence, Union

import numpy as np

from .enla import EnlaConfig, enla_forward, normalize_and_scale
from .exact import exact_attention
from .features import kernel_variance_empirical, kernel_variance_theory
from .matrices import FormatError, NumericError, RngSpec, gaussian_sample

__all__ = [
    "FlopModel",
    "ScalingMeasurement",
    "SweepResult",
    "VarianceSweep",
    "approximation_error_sweep",
    "consecutive_ratios",
    "flop_count",
    "flop_table",
    "read_sweep_csv",
    "runtime_scaling",
    "variance_sweep_k",
    "write_sweep_csv",
]

FLOPS_PER_MAC = 2

_METHODS = ("nla", "enlca", "conv3x3")


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
    if min(n, c, c_out) < 1:
        raise ValueError(f"dimensions must be positive, got n={n}, c={c}, c_out={c_out}")
    if method == "nla":
        macs = n * n * (c + c_out)
        m = None
    elif method == "conv3x3":
        macs = 9 * n * c * c_out
        m = None
    else:
        if m is None or m < 1:
            raise ValueError(f"the enlca count needs a positive sample count m, got {m}")
        macs = 2 * m * n * c + 2 * m * n * c_out
    return FlopModel(method=method, n=n, c=c, c_out=c_out, m=m, macs=macs, flops=FLOPS_PER_MAC * macs)


def flop_table(
    n: int = 10_000,
    c: int = 64,
    c_out: int = 64,
    m_values: Sequence[int] = (2, 4, 8, 16, 32, 64, 128, 256),
) -> list[FlopModel]:
    """The standard comparison table: quadratic attention, one 3x3
    convolution, and the randomized forward across sample counts."""
    rows = [flop_count("nla", n, c, c_out), flop_count("conv3x3", n, c, c_out)]
    rows.extend(flop_count("enlca", n, c, c_out, m) for m in m_values)
    return rows


@dataclass(frozen=True)
class SweepResult:
    """One metric series over an ascending axis."""

    axis: str
    metric_kind: str
    points: tuple[tuple[float, float], ...]

    def xs(self) -> list[float]:
        return [x for x, _ in self.points]

    def values(self) -> list[float]:
        return [v for _, v in self.points]


@dataclass(frozen=True)
class VarianceSweep:
    """Theory and measurement side by side, plus any amplification values
    skipped because either side overflowed."""

    theory: SweepResult
    empirical: SweepResult
    overflowed: tuple[float, ...]


@dataclass(frozen=True)
class ScalingMeasurement:
    """Median wall-clock seconds per input size for both forwards."""

    exact: SweepResult
    enla: SweepResult


def approximation_error_sweep(
    n: int,
    c: int,
    c_out: int,
    m_list: Sequence[int],
    k_amp: float,
    trials: int,
    rng: RngSpec,
) -> SweepResult:
    """Median relative Frobenius error of the randomized forward against
    the exact oracle, per sample count.

    The instance (q, k, v) is fixed by `rng` and shared across all m;
    trial t of every m draws its projection from rng.stream(16 + t), so
    sample counts are compared on common random numbers.
    """
    if n > 4096:
        raise ValueError(f"the exact oracle is only run up to n=4096, got {n}")
    if not m_list:
        raise ValueError("m_list must be non-empty")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    theta = gaussian_sample(rng.stream(1), c, n)
    delta = gaussian_sample(rng.stream(2), c, n)
    v = gaussian_sample(rng.stream(3), c_out, n)
    q, k = normalize_and_scale(theta, delta, k_amp)
    reference = exact_attention(q, k, v).y
    ref_norm = float(np.linalg.norm(reference))
    points = []
    for m in sorted(set(int(m) for m in m_list)):
        errors = np.empty(trials)
        for t in range(trials):
            config = EnlaConfig(rng=rng.stream(16 + t), m=m, k_amp=max(k_amp, 1.0))
            approx = enla_forward(q, k, v, config)
            errors[t] = float(np.linalg.norm(approx - reference)) / ref_norm
        points.append((float(m), float(np.median(errors))))
    return SweepResult(axis="m", metric_kind="rel_error", points=tuple(points))


def variance_sweep_k(
    k_list: Sequence[float],
    c: int,
    m: int,
    trials: int,
    rng: RngSpec,
    orthogonal: bool = False,
) -> VarianceSweep:
    """Estimator variance on amplified aligned unit vectors, theory next
    to measurement, per amplification factor.

    Point i draws its trials under rng.stream(i * (trials + 1)). Points
    where either side overflows float range are skipped with a warning
    and reported in `overflowed`; the sweep continues.
    """
    k_values = [float(k) for k in k_list]
    if any(k < 1.0 for k in k_values):
        raise ValueError(f"amplification factors must be >= 1, got {k_values}")
    if sorted(k_values) != k_values:
        raise ValueError(f"k_list must be ascending, got {k_values}")
    theory_points = []
    empirical_points = []
    overflowed = []
    for i, k_amp in enumerate(k_values):
        u = np.zeros(c)
        u[0] = math.sqrt(k_amp)
        theory = kernel_variance_theory(u, u, m)
        if not math.isfinite(theory):
            overflowed.append(k_amp)
            warnings.warn(f"variance theory overflowed at k_amp={k_amp}", RuntimeWarning)
            continue
        try:
            report = kernel_variance_empirical(u, u, m, trials, rng.stream(i * (trials + 1)))
        except NumericError as exc:
            overflowed.append(k_amp)
            warnings.warn(f"variance measurement overflowed at k_amp={k_amp}: {exc}", RuntimeWarning)
            continue
        theory_points.append((k_amp, theory))
        empirical_points.append((k_amp, report.empirical))
    return VarianceSweep(
        theory=SweepResult(axis="k_amp", metric_kind="variance_theory", points=tuple(theory_points)),
        empirical=SweepResult(
            axis="k_amp", metric_kind="variance_empirical", points=tuple(empirical_points)
        ),
        overflowed=tuple(overflowed),
    )


def runtime_scaling(
    n_list: Sequence[int],
    c: int,
    c_out: int,
    m: int,
    repeats: int,
    rng: RngSpec = RngSpec(0),
) -> ScalingMeasurement:
    """Median wall-clock seconds of each forward per input size.

    Timed sections run back to back on one thread of control; nothing
    else competes for the interpreter while a section is measured.
    """
    if repeats < 3:
        raise ValueError(f"repeats must be >= 3 for a stable median, got {repeats}")
    sizes = [int(n) for n in n_list]
    if sorted(sizes) != sizes or any(n < 1 for n in sizes):
        raise ValueError(f"n_list must be ascending and positive, got {sizes}")
    exact_points = []
    enla_points = []
    for i, n in enumerate(sizes):
        theta = gaussian_sample(rng.stream(3 * i + 1), c, n)
        delta = gaussian_sample(rng.stream(3 * i + 2), c, n)
        v = gaussian_sample(rng.stream(3 * i + 3), c_out, n)
        q, k = normalize_and_scale(theta, delta, 1.0)
        config = EnlaConfig(rng=rng.stream(10_000 + i), m=m, k_amp=1.0)
        exact_times = []
        enla_times = []
        for _ in range(repeats):
            start = time.perf_counter()
            exact_attention(q, k, v)
            exact_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            enla_forward(q, k, v, config)
            enla_times.append(time.perf_counter() - start)
        exact_points.append((float(n), float(np.median(exact_times))))
        enla_points.append((float(n), float(np.median(enla_times))))
    return ScalingMeasurement(
        exact=SweepResult(axis="n", metric_kind="seconds", points=tuple(exact_points)),
        enla=SweepResult(axis="n", metric_kind="seconds", points=tuple(enla_points)),
    )


def consecutive_ratios(result: SweepResult) -> list[tuple[float, float, float]]:
    """(x_i, x_{i+1}, value_{i+1} / value_i) for consecutive points."""
    out = []
    for (x0, v0), (x1, v1) in zip(result.points, result.points[1:]):
        out.append((x0, x1, v1 / v0))
    return out


# ---------------------------------------------------------------------------
# Sweep CSV: a comment header naming the axis and metric kind(s) and the
# column layout, then one ascending-x row per point. Variance sweeps carry
# theory and measurement side by side; scaling measurements carry both
# forwards.
# ---------------------------------------------------------------------------


def _series_table(result) -> tuple[str, list[str], list[tuple[float, ...]]]:
    if isinstance(result, SweepResult):
        return (
            f"# axis={result.axis} metric_kind={result.metric_kind} columns=x,value",
            ["x", "value"],
            [(x, v) for x, v in result.points],
        )
    if isinstance(result, VarianceSweep):
        header = (
            f"# axis={result.theory.axis} "
            "metric_kind=variance_theory,variance_empirical columns=x,theory,empirical"
        )
        rows = [
            (x, t, e)
            for (x, t), (_, e) in zip(result.theory.points, result.empirical.points)
        ]
        return header, ["x", "theory", "empirical"], rows
    if isinstance(result, ScalingMeasurement):
        header = "# axis=n metric_kind=seconds columns=x,exact,enla"
        rows = [
            (x, te, tl)
            for (x, te), (_, tl) in zip(result.exact.points, result.enla.points)
        ]
        return header, ["x", "exact", "enla"], rows
    raise TypeError(f"cannot serialize {type(result).__name__}")


def write_sweep_csv(result, dest: Union[str, Path, IO[str]]) -> None:
    """Serialize a sweep (or paired sweeps) to CSV."""
    header, _, rows = _series_table(result)
    owned = isinstance(dest, (str, Path))
    fp = open(dest, "w") if owned else dest
    try:
        fp.write(header + "\n")
        for row in rows:
            fp.write(",".join(repr(float(v)) for v in row) + "\n")
    finally:
        if owned:
            fp.close()


def read_sweep_csv(src: Union[str, Path, IO[str]]) -> tuple[dict, list[tuple[float, ...]]]:
    """Parse a sweep CSV into its header fields and data rows."""
    owned = isinstance(src, (str, Path))
    fp = open(src, "r") if owned else src
    try:
        lines = [line for line in fp.read().splitlines() if line]
    finally:
        if owned:
            fp.close()
    if not lines or not lines[0].startswith("# "):
        raise FormatError("sweep CSV must start with a '# ' header line")
    meta = {}
    for token in lines[0][2:].split():
        key, _, value = token.partition("=")
        meta[key] = value
    try:
        rows = [tuple(float(f) for f in line.split(",")) for line in lines[1:]]
    except ValueError as exc:
        raise FormatError(f"bad sweep row: {exc}") from None
    return meta, rows
