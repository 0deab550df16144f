import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

from enlca import analysis, enla
from enlca.analysis import (
    approximation_error_sweep,
    consecutive_ratios,
    flop_count,
    flop_table,
    runtime_scaling,
    variance_sweep_k,
    write_sweep_csv,
)
from enlca.enla import EnlaConfig, enla_forward
from enlca.exact import exact_attention
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

    def test_each_trial_is_the_forward_on_its_stream(self, monkeypatch):
        # 34 trials take two blocks of the sampler, n = 4096 two chunks, and
        # every stream id 16 + t past the base wraps past 2^64
        n, ms, trials, rng = 4096, [16, 48], 34, RngSpec(57, 2**64 - 9)
        firsts = []
        project = enla._Forwards.project

        def recorded(self, f):
            outputs = project(self, f)
            firsts.append(outputs[0].copy())
            return outputs
        monkeypatch.setattr(enla._Forwards, "project", recorded)
        sweep = approximation_error_sweep(n, 4, 3, ms, 1.0, trials, rng)
        monkeypatch.undo()
        assert len(firsts) == trials
        q, k, v = analysis._instance(rng, n, 4, 3, 1.0)
        reference = exact_attention(q, k, v)
        ref_norm = float(np.linalg.norm(reference))
        errors = []
        for t, first in enumerate(firsts):
            expected = enla_forward(q, k, v, EnlaConfig(rng.stream(16 + t), m=ms[0]))
            assert np.array_equal(first, expected)
            errors.append(float(np.linalg.norm(expected - reference)) / ref_norm)
        assert sweep.points[0] == (16.0, float(np.median(errors)))

    def test_oracle_size_guard(self):
        with pytest.raises(ValueError):
            approximation_error_sweep(5000, 4, 4, [8], 1.0, 2, RngSpec(0))

    def test_empty_m_list_rejected(self):
        with pytest.raises(ValueError, match="^m_list must be non-empty$"):
            approximation_error_sweep(16, 4, 4, [], 1.0, 2, RngSpec(0))

    @pytest.mark.parametrize("axis", [(2, 4), np.array([2, 4])], ids=["tuple", "array"])
    def test_any_iterable_axis_matches_list(self, axis):
        assert (approximation_error_sweep(16, 4, 4, axis, 1.0, 2, RngSpec(0))
                == approximation_error_sweep(16, 4, 4, [2, 4], 1.0, 2, RngSpec(0)))

    @pytest.mark.parametrize("n, shown", [(5000.5, "5000.5"), ("x", "x")], ids=["float", "string"])
    def test_n_named_before_oracle_size_guard(self, n, shown):
        # n is checked as a count before it is compared with the size limit
        with pytest.raises(ValueError, match=f"^n must be an integer, got {shown}$"):
            approximation_error_sweep(n, 4, 4, [8], 1.0, 2, RngSpec(0))

    @pytest.mark.parametrize("m_list", [[[16, 32]], np.array([[16.0, 32.0]])], ids=["nested", "2-D"])
    def test_nested_m_list_rejected(self, m_list):
        with pytest.raises(ValueError, match=r"^m_list must be flat, got the entry \[16\.?,? 32\.?\]$"):
            approximation_error_sweep(16, 4, 4, m_list, 1.0, 2, RngSpec(0))

    @pytest.mark.parametrize("m_list", [[64, 16], [4, 4]], ids=["descending", "repeated"])
    def test_unsorted_or_repeated_m_list_rejected(self, m_list):
        # a sample count is never reordered or dropped: the table rows follow the axis as given
        with pytest.raises(ValueError, match=rf"^m_list must be ascending, got \[{m_list[0]}, {m_list[1]}\]$"):
            approximation_error_sweep(16, 4, 4, m_list, 1.0, 2, RngSpec(0))


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
        sweep = variance_sweep_k([1, 200], c=4, m=8, trials=8, rng=RngSpec(56))
        assert sweep.skipped == (200.0,)
        assert sweep.column("x") == [1.0]

    def test_ascending_required(self):
        with pytest.raises(ValueError):
            variance_sweep_k([4, 2], c=4, m=8, trials=4, rng=RngSpec(0))

    def test_array_axis_matches_list(self):
        assert (variance_sweep_k(np.array([1.0, 2.0]), c=4, m=8, trials=8, rng=RngSpec(0))
                == variance_sweep_k([1.0, 2.0], c=4, m=8, trials=8, rng=RngSpec(0)))

    @pytest.mark.parametrize("k_list,message", [
        ([2, 2], r"k_list must be ascending, got \[2.0, 2.0\]"),
        ([], "k_list must be non-empty"),
    ], ids=["repeated", "empty"])
    def test_repeated_or_empty_k_list_rejected(self, k_list, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            variance_sweep_k(k_list, c=4, m=8, trials=4, rng=RngSpec(0))

    @pytest.mark.parametrize("k_list", [[[1.0, 2.0]], np.array([[1.0, 2.0]])], ids=["nested", "2-D"])
    def test_nested_k_list_rejected(self, k_list):
        with pytest.raises(ValueError, match=r"^k_list must be flat, got the entry \[1\.0?,? 2\.0?\]$"):
            variance_sweep_k(k_list, c=4, m=8, trials=4, rng=RngSpec(0))

    def test_fractional_trials_named(self):
        # the trial count is checked before any point forms its stream from it
        with pytest.raises(ValueError, match=r"^trials must be an integer, got 2.5$"):
            variance_sweep_k([1.0], c=4, m=8, trials=2.5, rng=RngSpec(0))

    def test_numpy_integer_trials_match_int(self):
        # each point's stream offset i * (trials + 1) is then a numpy integer
        assert (variance_sweep_k([1.0, 2.0], c=4, m=4, trials=np.int64(10), rng=RngSpec(0))
                == variance_sweep_k([1.0, 2.0], c=4, m=4, trials=10, rng=RngSpec(0)))


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
        with pytest.raises(ValueError, match=r"^repeats must be >= 3 for a stable minimum, got 2$"):
            runtime_scaling([64], 4, 4, 8, repeats=2)

    def test_interleaves_sizes_and_keeps_minimum(self, monkeypatch):
        # every repeat times each size in turn, and each size reports its
        # fastest repeat: a slow repeat (exact at n=16 takes 5, then 1, 2)
        # does not reach the table, where a median would report 2
        calls, clock = [], [0.0]
        durations = iter([5.0, 1.0, 4.0, 2.0, 1.0, 3.0, 9.0, 2.0, 2.0, 1.0, 4.0, 7.0])

        def timed(kind):
            def call(q, k, v, config=None):
                calls.append((kind, q.shape[1]))
                clock[0] += next(durations)
            return call
        monkeypatch.setattr(analysis, "exact_attention", timed("exact"))
        monkeypatch.setattr(analysis, "enla_forward", timed("enla"))
        monkeypatch.setattr(analysis, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        result = runtime_scaling([16, 32], 4, 4, 8, repeats=3)
        assert calls == [("exact", 16), ("enla", 16), ("exact", 32), ("enla", 32)] * 3
        assert result.points == ((16.0, 1.0, 1.0), (32.0, 4.0, 2.0))

    def test_ascending_required(self):
        with pytest.raises(ValueError, match=r"^n_list must be ascending, got \[64, 32\]$"):
            runtime_scaling([64, 32], 4, 4, 8, repeats=3)

    def test_empty_n_list_rejected(self):
        with pytest.raises(ValueError, match="^n_list must be non-empty$"):
            runtime_scaling([], 4, 4, 8, repeats=3)

    def test_nested_n_list_rejected(self):
        with pytest.raises(ValueError, match=r"^n_list must be flat, got the entry \[32, 64\]$"):
            runtime_scaling([[32, 64]], 4, 4, 8, repeats=3)

    @staticmethod
    def _recorded(monkeypatch, n_list):
        """The table and the (q, k, v) the oracle saw, under a clock that
        ticks once per reading."""
        seen, clock = [], [0.0]

        def tick():
            clock[0] += 1.0
            return clock[0]
        monkeypatch.setattr(analysis, "exact_attention", lambda q, k, v: seen.append((q, k, v)))
        monkeypatch.setattr(analysis, "enla_forward", lambda q, k, v, config: None)
        monkeypatch.setattr(analysis, "time", SimpleNamespace(perf_counter=tick))
        return runtime_scaling(n_list, 4, 4, 8, repeats=3, rng=RngSpec(62)), seen

    def test_array_axis_matches_list(self, monkeypatch):
        table, seen = self._recorded(monkeypatch, np.array([16, 32]))
        expected_table, expected = self._recorded(monkeypatch, [16, 32])
        assert table == expected_table and table.column("x") == [16.0, 32.0]
        assert len(seen) == len(expected) == 6
        for got, want in zip(seen, expected):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_size_i_draws_its_instance_from_streams_3i_plus_1_to_3(self, monkeypatch):
        _, seen = self._recorded(monkeypatch, [16, 32])
        rng = RngSpec(62)
        for i, (n, (q, k, v)) in enumerate(zip([16, 32], seen)):
            want_q, want_k = analysis.normalize_and_scale(analysis.gaussian_sample(rng.stream(3 * i + 1), 4, n),
                                                          analysis.gaussian_sample(rng.stream(3 * i + 2), 4, n), 1.0)
            assert np.array_equal(q, want_q) and np.array_equal(k, want_k)
            assert np.array_equal(v, analysis.gaussian_sample(rng.stream(3 * i + 3), 4, n))


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
