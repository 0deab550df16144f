"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line with its measured numbers.

Monte-Carlo criteria run on pinned seeds; the expected margins were
established by scanning seeds up front, so every assertion here is
deterministic. Run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines; `pytest -m "not acceptance"` runs every other
module without them.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from enlca.analysis import (
    approximation_error_sweep,
    consecutive_ratios,
    flop_count,
    runtime_scaling,
    variance_sweep_k,
)
from enlca.cli import main as cli_main
from enlca.contrastive import ContrastiveConfig, contrastive_loss, relevance_scores
from enlca.enla import EnlaConfig, enla_forward, normalize_and_scale
from enlca.exact import attention_row_entropies, attention_weights, exact_attention
from enlca.features import kernel_estimates, kernel_variance_empirical
from enlca.matrices import (
    RngSpec,
    gaussian_sample,
    read_matrix_csv,
    write_matrix_csv,
)

from oracles import naive_contrastive

pytestmark = pytest.mark.acceptance


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {number} {name}{suffix}"


def _unit(c: int, scale: float) -> np.ndarray:
    u = np.zeros(c)
    u[0] = scale
    return u


def test_criterion_1_flop_table():
    start = time.perf_counter()
    checks = []
    checks.append(f"{flop_count('nla', 10_000, 64, 64).gflops:.2f}" == "25.60")
    checks.append(f"{flop_count('conv3x3', 10_000, 64, 64).gflops:.2f}" == "0.74")
    expected = {2: 0.01, 4: 0.02, 8: 0.04, 16: 0.08, 32: 0.16, 64: 0.33, 128: 0.66, 256: 1.31}
    for m, gf in expected.items():
        checks.append(abs(flop_count("enlca", 10_000, 64, 64, m).gflops - gf) <= 0.005)
    elapsed = time.perf_counter() - start
    checks.append(elapsed < 1.0)
    _report(1, "table-4 FLOP reproduction", all(checks), f"{elapsed:.3f}s")


def test_criterion_2_unbiasedness():
    start = time.perf_counter()
    scale = math.sqrt(6.0)
    deviations = []
    for pair in range(3):
        base = RngSpec(0, pair * 200_000)
        gen = base.generator()
        q = gen.standard_normal(16)
        q *= scale / np.linalg.norm(q)
        k = gen.standard_normal(16)
        k *= scale / np.linalg.norm(k)
        estimates = kernel_estimates(q, k, m=8, trials=100_000, rng=base)
        se = estimates.std(ddof=1) / math.sqrt(estimates.size)
        deviations.append(abs(estimates.mean() - math.exp(float(q @ k))) / se)
    elapsed = time.perf_counter() - start
    ok = all(d <= 3.0 for d in deviations) and elapsed < 120.0
    detail = "|dev|/se = " + ", ".join(f"{d:.2f}" for d in deviations) + f"; {elapsed:.0f}s"
    _report(2, "unbiased kernel estimates at sqrt(6) scale", ok, detail)


def test_criterion_3_variance_law():
    start = time.perf_counter()
    half = _unit(8, 0.5)
    report = kernel_variance_empirical(half, half, m=32, trials=100_000,
                                       rng=RngSpec(5, 3_000_000))
    sweep = variance_sweep_k([1.0, 2.0], c=8, m=128, trials=100_000, rng=RngSpec(5))
    ratios = [e / t for _, t, e in sweep.points]
    elapsed = time.perf_counter() - start
    ok = (
        report.rel_gap < 0.05
        and all(0.5 <= r <= 2.0 for r in ratios)
        and elapsed < 120.0
    )
    detail = (
        f"rel_gap={report.rel_gap:.4f}; ratios at k<=2: "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + f"; {elapsed:.0f}s"
    )
    _report(3, "closed-form variance law", ok, detail)


def test_criterion_4_orthogonality_helps():
    start = time.perf_counter()
    u = _unit(64, 0.5)
    trials = 3200
    wins = 0
    for pair in range(100):
        pair_rng = RngSpec(11).stream(pair * (trials + 1))
        iid = kernel_variance_empirical(u, u, 16, trials, pair_rng, orthogonal=False)
        ortho = kernel_variance_empirical(u, u, 16, trials, pair_rng, orthogonal=True)
        wins += ortho.empirical <= iid.empirical
    elapsed = time.perf_counter() - start
    _report(4, "orthogonal features reduce variance", wins >= 95,
            f"{wins}/100 paired wins; {elapsed:.0f}s")


def test_criterion_5_oracle_convergence():
    start = time.perf_counter()
    sweep = approximation_error_sweep(
        n=64, c=8, c_out=8, m_list=[16, 64, 256, 1024, 4096], k_amp=1.0,
        trials=32, rng=RngSpec(0),
    )
    errors = dict(sweep.points)
    ladder = [errors[float(m)] for m in (16, 64, 256, 1024)]
    strictly_decreasing = all(b < a for a, b in zip(ladder, ladder[1:]))
    final = errors[4096.0]
    elapsed = time.perf_counter() - start
    ok = strictly_decreasing and final < 0.05 and elapsed < 60.0
    detail = (
        "medians: " + ", ".join(f"{errors[float(m)]:.4f}" for m in (16, 64, 256, 1024, 4096))
        + f"; {elapsed:.0f}s"
    )
    _report(5, "converges to the exact oracle in m", ok, detail)


def test_criterion_6_linear_vs_quadratic_scaling():
    start = time.perf_counter()
    result = runtime_scaling([2500, 10_000], c=16, c_out=16, m=128, repeats=3, rng=RngSpec(0))
    exact_ratio = consecutive_ratios(result, "exact")[0][2]
    enla_ratio = consecutive_ratios(result, "enla")[0][2]
    elapsed = time.perf_counter() - start
    ok = exact_ratio >= 8.0 and enla_ratio <= 8.0 and enla_ratio <= exact_ratio / 2.0
    _report(6, "linear vs quadratic wall-clock scaling", ok and elapsed < 300.0,
            f"exact x{exact_ratio:.1f}, randomized x{enla_ratio:.1f}; {elapsed:.0f}s")


def test_criterion_7_contrastive_loss_correctness():
    cfg = ContrastiveConfig()
    k_amp = 6.0
    checks = []
    # matches the scalar oracle on seeded instances
    worst = 0.0
    for seed in (8, 9, 10, 11, 12):
        scores = relevance_scores(
            gaussian_sample(RngSpec(seed), 8, 50),
            gaussian_sample(RngSpec(seed, 1), 8, 50),
            k_amp,
        )
        expected = naive_contrastive(scores.tolist(), cfg.n1, cfg.n2, cfg.b)
        worst = max(worst, abs(contrastive_loss(scores, cfg) - expected))
    checks.append(worst < 1e-10)
    # constant features return exactly the margin
    checks.append(contrastive_loss(np.full((50, 50), k_amp), cfg) == 1.0)
    # raising the top group strictly lowers the loss
    scores = relevance_scores(
        gaussian_sample(RngSpec(13), 8, 50), gaussian_sample(RngSpec(14), 8, 50), k_amp
    )
    base = contrastive_loss(scores, cfg)
    bumped = scores.copy()
    top = np.argsort(bumped[0])[::-1][:1]
    bumped[0, top] = np.minimum(bumped[0, top] + 0.1, k_amp)
    checks.append(contrastive_loss(bumped, cfg) < base)
    _report(7, "contrastive loss correctness", all(checks), f"max oracle gap {worst:.2e}")


def test_criterion_8_amplification_sharpens(tmp_path):
    base = RngSpec(24)
    theta = gaussian_sample(base.stream(1), 6, 40)
    delta = gaussian_sample(base.stream(2), 6, 40)
    q1, k1 = normalize_and_scale(theta, delta, 1.0)
    q6, k6 = normalize_and_scale(theta, delta, 6.0)
    rows_ok = bool((attention_row_entropies(q6, k6) <= attention_row_entropies(q1, k1) + 1e-12).all())

    features = gaussian_sample(RngSpec(25), 10, 36)
    fpath = tmp_path / "x.csv"
    write_matrix_csv(features, fpath)
    entropies = {}
    for k_amp in ("1", "6"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main([
                "corr-map", "--features", str(fpath), "--c-embed", "6",
                "--k-amp", k_amp, "--seed", "13", "--query-index", "3",
            ])
        assert code == 0
        entropies[k_amp] = float(buf.getvalue().split()[1])
    cli_ok = entropies["6"] < entropies["1"]
    _report(8, "amplification sharpens attention", rows_ok and cli_ok,
            f"corr-map entropy {entropies['1']:.4f} -> {entropies['6']:.4f}")


def test_criterion_9_property_suites(tmp_path):
    failures = []
    for seed in range(20):
        base = RngSpec(seed)
        theta = gaussian_sample(base.stream(1), 4, 20)
        delta = gaussian_sample(base.stream(2), 4, 20)
        q, k = normalize_and_scale(theta, delta, 1.0)
        v = gaussian_sample(base.stream(3), 5, 20)

        weights = attention_weights(q, k)
        if not (np.abs(weights.sum(axis=1) - 1.0).max() < 1e-9
                and (weights >= 0).all() and (weights <= 1).all()):
            failures.append((seed, "row stochasticity"))

        perm = base.stream(4).generator().permutation(20)
        if np.abs(exact_attention(q[:, perm], k, v)
                  - exact_attention(q, k, v)[:, perm]).max() >= 1e-12:
            failures.append((seed, "query permutation equivariance"))
        if np.abs(exact_attention(q, k[:, perm], v[:, perm])
                  - exact_attention(q, k, v)).max() >= 1e-12:
            failures.append((seed, "key/value permutation invariance"))

        config = EnlaConfig(rng=base.stream(5), m=32, k_amp=1.0)
        v2 = gaussian_sample(base.stream(6), 5, 20)
        combined = enla_forward(q, k, 1.5 * v - 2.0 * v2, config)
        separate = 1.5 * enla_forward(q, k, v, config) - 2.0 * enla_forward(q, k, v2, config)
        if np.abs(combined - separate).max() >= 1e-9:
            failures.append((seed, "linearity in V"))

        out = enla_forward(q, k, v, config)
        lo = v.min(axis=1, keepdims=True) - 1e-9
        hi = v.max(axis=1, keepdims=True) + 1e-9
        if not ((out >= lo).all() and (out <= hi).all()):
            failures.append((seed, "convex combination bound"))

        sample = gaussian_sample(base.stream(7), 3, 4) * 10.0 ** seed if seed < 15 else \
            gaussian_sample(base.stream(7), 3, 4) * 1e-200
        path = tmp_path / f"roundtrip_{seed}.csv"
        write_matrix_csv(sample, path)
        if not np.array_equal(read_matrix_csv(path), sample):
            failures.append((seed, "CSV round trip"))
    _report(9, "property suites over 20 seeds", not failures,
            "all green" if not failures else f"failures: {failures}")
