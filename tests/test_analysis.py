import io
import math

import numpy as np
import pytest

from enlca.analysis import (
    approximation_error_sweep,
    consecutive_ratios,
    flop_count,
    flop_table,
    runtime_scaling,
    variance_sweep_k,
    write_sweep_csv,
)
from enlca.matrices import RngSpec
from oracles import read_sweep_csv


class TestFlopCount:
    def test_quadratic_attention_reference_point(self):
        model = flop_count("nla", 10_000, 64, 64)
        assert f"{model.gflops:.2f}" == "25.60"
        assert model.flops == 2 * model.macs

    def test_convolution_reference_point(self):
        assert f"{flop_count('conv3x3', 10_000, 64, 64).gflops:.2f}" == "0.74"

    @pytest.mark.parametrize(
        "m,expected",
        [(2, 0.01), (4, 0.02), (8, 0.04), (16, 0.08),
         (32, 0.16), (64, 0.33), (128, 0.66), (256, 1.31)],
    )
    def test_randomized_forward_reference_points(self, m, expected):
        assert abs(flop_count("enlca", 10_000, 64, 64, m).gflops - expected) <= 0.005

    def test_exact_linearity_in_n_and_m(self):
        base = flop_count("enlca", 5_000, 32, 48, 64).macs
        assert flop_count("enlca", 10_000, 32, 48, 64).macs == 2 * base
        assert flop_count("enlca", 5_000, 32, 48, 128).macs == 2 * base

    def test_exact_quadratic_in_n(self):
        base = flop_count("nla", 3_000, 32, 48).macs
        assert flop_count("nla", 6_000, 32, 48).macs == 4 * base

    def test_enlca_requires_m(self):
        with pytest.raises(ValueError):
            flop_count("enlca", 100, 8, 8)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            flop_count("fft", 100, 8, 8)

    def test_table_layout(self):
        rows = flop_table()
        assert [r.method for r in rows[:2]] == ["nla", "conv3x3"]
        assert [r.m for r in rows[2:]] == [2, 4, 8, 16, 32, 64, 128, 256]


class TestApproximationErrorSweep:
    def test_errors_strictly_decrease(self):
        sweep = approximation_error_sweep(
            n=64, c=8, c_out=8, m_list=[16, 64, 256, 1024], k_amp=1.0,
            trials=16, rng=RngSpec(50),
        )
        errs = sweep.column("value")
        assert all(hi > lo for hi, lo in zip(errs, errs[1:]))

    def test_amplification_increases_error(self):
        shared = dict(n=32, c=4, c_out=4, m_list=[64], trials=32, rng=RngSpec(51))
        flat = approximation_error_sweep(k_amp=1.0, **shared).column("value")[0]
        sharp = approximation_error_sweep(k_amp=6.0, **shared).column("value")[0]
        assert sharp >= flat

    def test_single_position_is_error_free(self):
        sweep = approximation_error_sweep(
            n=1, c=3, c_out=3, m_list=[4, 16], k_amp=1.0, trials=4, rng=RngSpec(52)
        )
        assert max(sweep.column("value")) < 1e-12

    def test_deterministic(self):
        kwargs = dict(n=16, c=3, c_out=3, m_list=[8, 32], k_amp=1.0, trials=4, rng=RngSpec(53))
        assert approximation_error_sweep(**kwargs) == approximation_error_sweep(**kwargs)

    def test_oracle_size_guard(self):
        with pytest.raises(ValueError):
            approximation_error_sweep(5000, 4, 4, [8], 1.0, 2, RngSpec(0))


class TestVarianceSweep:
    def test_theory_strictly_increases_over_amplification(self):
        sweep = variance_sweep_k([1, 2, 4, 6, 8], c=8, m=128, trials=16, rng=RngSpec(54))
        theory = sweep.column("theory")
        assert all(later > earlier for earlier, later in zip(theory, theory[1:]))

    def test_theory_point_at_default_amplification(self):
        sweep = variance_sweep_k([6], c=8, m=128, trials=4, rng=RngSpec(55))
        expected = math.exp(12.0) * (math.exp(24.0) - 1.0) / 128.0
        assert abs(sweep.column("theory")[0] - expected) / expected < 1e-12

    def test_empirical_tracks_theory_at_low_amplification(self):
        sweep = variance_sweep_k([1], c=8, m=128, trials=30_000, rng=RngSpec(5))
        ratio = sweep.column("empirical")[0] / sweep.column("theory")[0]
        assert 0.5 <= ratio <= 2.0

    def test_overflow_is_reported_and_skipped(self):
        with pytest.warns(RuntimeWarning, match="overflowed"):
            sweep = variance_sweep_k([1, 200], c=4, m=8, trials=8, rng=RngSpec(56))
        assert sweep.skipped == (200.0,)
        assert sweep.column("x") == [1.0]

    def test_ascending_required(self):
        with pytest.raises(ValueError):
            variance_sweep_k([4, 2], c=4, m=8, trials=4, rng=RngSpec(0))


class TestRuntimeScaling:
    def test_smoke_and_ordering(self):
        result = runtime_scaling([256, 512], c=8, c_out=8, m=16, repeats=3, rng=RngSpec(57))
        assert result.column("x") == [256.0, 512.0]
        assert all(v > 0 for v in result.column("exact") + result.column("enla"))
        ratios = consecutive_ratios(result, "exact")
        assert len(ratios) == 1 and ratios[0][:2] == (256.0, 512.0)

    def test_more_samples_cost_more_time(self):
        small = runtime_scaling([2048], c=8, c_out=8, m=16, repeats=3, rng=RngSpec(58))
        large = runtime_scaling([2048], c=8, c_out=8, m=128, repeats=3, rng=RngSpec(58))
        assert small.column("enla")[0] < large.column("enla")[0]

    def test_repeats_guard(self):
        with pytest.raises(ValueError):
            runtime_scaling([64], 4, 4, 8, repeats=2)


class TestSweepCsv:
    def test_single_series_round_trip(self):
        sweep = approximation_error_sweep(
            n=16, c=3, c_out=3, m_list=[8, 32], k_amp=1.0, trials=4, rng=RngSpec(59)
        )
        buf = io.StringIO()
        write_sweep_csv(sweep, buf)
        meta, rows = read_sweep_csv(io.StringIO(buf.getvalue()))
        assert meta["axis"] == "m" and meta["metric_kind"] == "rel_error"
        assert rows == [tuple(p) for p in sweep.points]

    def test_variance_series_has_three_columns(self):
        sweep = variance_sweep_k([1, 2], c=4, m=16, trials=64, rng=RngSpec(60))
        buf = io.StringIO()
        write_sweep_csv(sweep, buf)
        text = buf.getvalue()
        assert text.splitlines()[0].startswith("# axis=k_amp")
        meta, rows = read_sweep_csv(io.StringIO(text))
        assert meta["columns"] == "x,theory,empirical"
        assert len(rows) == 2 and len(rows[0]) == 3

    def test_scaling_series_round_trip(self):
        result = runtime_scaling([64, 128], c=4, c_out=4, m=8, repeats=3, rng=RngSpec(61))
        buf = io.StringIO()
        write_sweep_csv(result, buf)
        meta, rows = read_sweep_csv(io.StringIO(buf.getvalue()))
        assert meta["columns"] == "x,exact,enla"
        assert [r[0] for r in rows] == [64.0, 128.0]
