import argparse
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import enlca
from enlca.cli import UsageError, build_parser, main
from enlca.contrastive import ContrastiveConfig, contrastive_loss, relevance_scores
from enlca.enla import EnlaConfig, enla_forward
from enlca.exact import attention_weights, exact_attention
from enlca.features import sample_projection
from enlca.matrices import (
    RngSpec,
    gaussian_sample,
    read_matrix_csv,
    write_matrix_csv,
)
from oracles import entropy, read_pgm, read_sweep_csv


@pytest.fixture
def matrices(tmp_path):
    base = RngSpec(900)
    paths = {}
    for name, stream, shape in (("q", 1, (4, 32)), ("k", 2, (4, 32)), ("v", 3, (4, 32))):
        a = gaussian_sample(base.stream(stream), *shape) * 0.4
        path = tmp_path / f"{name}.csv"
        write_matrix_csv(a, path)
        paths[name] = str(path)
    features = gaussian_sample(base.stream(4), 12, 36)
    fpath = tmp_path / "x.csv"
    write_matrix_csv(features, fpath)
    paths["features"] = str(fpath)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFlopsCommand:
    def test_quadratic_reference(self, capsys):
        code, out, _ = run(capsys, "flops", "--method", "nla", "--n", "10000",
                           "--c", "64", "--cout", "64")
        assert code == 0
        assert out == "25.60 GFLOPs\n"

    def test_randomized_reference(self, capsys):
        code, out, _ = run(capsys, "flops", "--method", "enlca", "--n", "10000",
                           "--c", "64", "--cout", "64", "--m", "128")
        assert code == 0 and out == "0.66 GFLOPs\n"

    def test_table_without_method(self, capsys):
        code, out, _ = run(capsys, "flops")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 11
        assert lines[0].split() == ["method", "MACs", "GFLOPs"]
        assert lines[1].split() == ["nla", "12,800,000,000", "25.60"]
        assert lines[-1].split() == ["enlca-m256", "655,360,000", "1.31"]

    @pytest.mark.parametrize("method", [[], ["--method", "nla"], ["--method", "conv3x3"]],
                             ids=["table", "nla", "conv3x3"])
    def test_m_needs_method_enlca(self, capsys, method):
        code, out, err = run(capsys, "flops", *method, "--m", "8")
        assert (code, out, err) == (1, "", "error: --m needs --method enlca\n")

    def test_missing_m_is_usage_error(self, capsys):
        code, _, err = run(capsys, "flops", "--method", "enlca", "--n", "100",
                           "--c", "8", "--cout", "8")
        assert code == 1 and "error:" in err


class TestExactCommand:
    def test_zero_features_average_values(self, tmp_path, capsys):
        z = tmp_path / "z.csv"
        write_matrix_csv(np.zeros((4, 9)), z)
        v = gaussian_sample(RngSpec(31), 4, 9)
        vpath = tmp_path / "v.csv"
        write_matrix_csv(v, vpath)
        out_path = tmp_path / "y.csv"
        code, _, _ = run(capsys, "exact", "--q", str(z), "--k", str(z),
                         "--v", str(vpath), "--out", str(out_path))
        assert code == 0
        y = read_matrix_csv(out_path)
        expected = np.repeat(v.mean(axis=1, keepdims=True), 9, axis=1)
        assert np.abs(y - expected).max() < 1e-12

    def test_stdout_matrix_round_trips(self, matrices, capsys):
        code, out, _ = run(capsys, "exact", "--q", matrices["q"], "--k", matrices["k"],
                           "--v", matrices["v"])
        assert code == 0
        import io

        y = read_matrix_csv(io.StringIO(out))
        assert y.shape == (4, 32)

    def test_weights_out(self, matrices, tmp_path, capsys):
        wpath = tmp_path / "w.csv"
        code, _, _ = run(capsys, "exact", "--q", matrices["q"], "--k", matrices["k"],
                         "--v", matrices["v"], "--out", str(tmp_path / "y.csv"),
                         "--weights-out", str(wpath))
        assert code == 0
        w = read_matrix_csv(wpath)
        assert w.shape == (32, 32)
        assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-9

    def test_queries_with_their_own_column_count(self, tmp_path, capsys):
        base = RngSpec(905)
        q = gaussian_sample(base.stream(1), 4, 3)
        k, v = (gaussian_sample(base.stream(i), 4, 5) for i in (2, 3))
        for name, a in (("q", q), ("k", k), ("v", v)):
            write_matrix_csv(a, tmp_path / f"{name}.csv")
        inputs = [arg for name in "qkv" for arg in (f"--{name}", str(tmp_path / f"{name}.csv"))]
        y_path, w_path = tmp_path / "y.csv", tmp_path / "w.csv"
        code, _, _ = run(capsys, "exact", *inputs, "--out", str(y_path), "--weights-out", str(w_path))
        assert code == 0
        assert np.array_equal(read_matrix_csv(y_path), exact_attention(q, k, v))
        assert np.array_equal(read_matrix_csv(w_path), attention_weights(q, k))
        assert read_matrix_csv(w_path).shape == (3, 5)
        # enla takes the same files: one output column per query
        enla_path = tmp_path / "enla.csv"
        code, _, _ = run(capsys, "enla", *inputs, "--seed", "4", "--out", str(enla_path))
        assert code == 0
        config = EnlaConfig(rng=RngSpec(4).stream(2), m=128)
        assert np.array_equal(read_matrix_csv(enla_path), enla_forward(q, k, v, config))
        # and contrastive scores the 3 queries against the 5 keys
        code, out, _ = run(capsys, "contrastive", *inputs[:4], "--n1", "0.2", "--n2", "0.4")
        assert code == 0
        expected = contrastive_loss(relevance_scores(q, k, 6.0), ContrastiveConfig(n1=0.2, n2=0.4))
        assert out == f"contrastive_loss {expected:.10g}\n"


class TestEnlaCommand:
    def test_tracks_exact_oracle(self, matrices, tmp_path, capsys):
        exact_path = tmp_path / "exact.csv"
        enla_path = tmp_path / "enla.csv"
        code1, _, _ = run(capsys, "exact", "--q", matrices["q"], "--k", matrices["k"],
                          "--v", matrices["v"], "--out", str(exact_path))
        code2, _, _ = run(capsys, "enla", "--q", matrices["q"], "--k", matrices["k"],
                          "--v", matrices["v"], "--m", "4096", "--seed", "7",
                          "--out", str(enla_path))
        assert code1 == 0 and code2 == 0
        exact = read_matrix_csv(exact_path)
        approx = read_matrix_csv(enla_path)
        assert np.linalg.norm(approx - exact) / np.linalg.norm(exact) < 0.05

    def test_identical_invocations_are_bitwise_identical(self, matrices, tmp_path, capsys):
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a_path, b_path):
            code, _, _ = run(capsys, "enla", "--q", matrices["q"], "--k", matrices["k"],
                             "--v", matrices["v"], "--m", "64", "--seed", "3",
                             "--out", str(path))
            assert code == 0
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_derived_features_path(self, matrices, tmp_path, capsys):
        out = tmp_path / "y.csv"
        code, _, _ = run(capsys, "enla", "--features", matrices["features"],
                         "--c-embed", "6", "--m", "32", "--seed", "5", "--out", str(out))
        assert code == 0
        assert read_matrix_csv(out).shape == (12, 36)

    def test_derived_features_past_square_range(self, matrices, tmp_path, capsys):
        # q and k keep only the directions of the embedded map, so scaling
        # it by 1e200, whose squares overflow, scales the output alike
        big = tmp_path / "big.csv"
        write_matrix_csv(1e200 * read_matrix_csv(matrices["features"]), big)
        outputs = []
        for name, features in (("y", matrices["features"]), ("y_big", str(big))):
            out = tmp_path / f"{name}.csv"
            assert run(capsys, "enla", "--features", features, "--c-embed", "6", "--m", "32",
                       "--k-amp", "1", "--out", str(out))[0] == 0
            outputs.append(read_matrix_csv(out))
        assert np.allclose(outputs[1], 1e200 * outputs[0], rtol=1e-9, atol=0)


    def test_overflowing_key_norms_are_numeric_failure(self, matrices, tmp_path, capsys):
        keys = tmp_path / "keys.csv"
        write_matrix_csv(np.full((4, 32), 1e155), keys)
        code, out, err = run(capsys, "enla", "--q", matrices["q"], "--k", str(keys), "--v", matrices["v"])
        assert code == 2 and out == ""
        assert err == "error: every key's squared norm overflowed\n"

    def test_query_projecting_to_minus_inf_is_numeric_failure(self, matrices, tmp_path, capsys):
        # the CLI draws its projection from stream 2 of the seed: at m = 1,
        # query column 5 points against its one row and overflows to -inf
        f = sample_projection(RngSpec(0).stream(2), 1, 4).f[0]
        assert np.abs(f).sum() > 2.0
        q = read_matrix_csv(matrices["q"])
        q[:, 5] = -1e308 * np.sign(f)
        queries = tmp_path / "queries.csv"
        write_matrix_csv(q, queries)
        code, out, err = run(capsys, "enla", "--q", str(queries), "--k", matrices["k"], "--v", matrices["v"],
                             "--m", "1")
        assert code == 2 and out == ""
        assert err == "error: every projection of query column 5 is -inf\n"


class TestBlockCommand:
    def test_shape_preserved(self, matrices, tmp_path, capsys):
        out = tmp_path / "y.csv"
        code, _, _ = run(capsys, "block", "--features", matrices["features"],
                         "--c-embed", "6", "--m", "64", "--seed", "4", "--out", str(out))
        assert code == 0
        assert read_matrix_csv(out).shape == (12, 36)

    def test_is_x_plus_derived_enla(self, matrices, tmp_path, capsys):
        flags = ["--features", matrices["features"], "--c-embed", "6", "--m", "32",
                 "--k-amp", "3", "--orthogonal", "--seed", "8"]
        block_path, enla_path = tmp_path / "block.csv", tmp_path / "enla.csv"
        assert run(capsys, "block", *flags, "--out", str(block_path))[0] == 0
        assert run(capsys, "enla", *flags, "--out", str(enla_path))[0] == 0
        x = read_matrix_csv(matrices["features"])
        assert np.array_equal(read_matrix_csv(block_path), x + read_matrix_csv(enla_path))

    def test_residual_overflow_is_named(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        x.write_text("1,2\n1e308,1e308\n")
        code, out, err = run(capsys, "block", "--features", str(x), "--m", "4", "--k-amp", "1",
                             "--seed", "19")
        assert code == 2 and out == ""
        assert err == "error: block output has a non-finite entry at (0, 0)\n"

    def test_requires_features(self, matrices, capsys):
        code, _, err = run(capsys, "block", "--q", matrices["q"], "--k", matrices["k"],
                           "--v", matrices["v"])
        assert code == 1 and "features" in err


class TestVarianceCommand:
    def test_reports_three_numbers(self, capsys):
        code, out, _ = run(capsys, "variance", "--m", "32", "--k-amp", "1",
                           "--trials", "2000", "--seed", "9", "--c", "6")
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[0] for line in lines] == ["theory", "empirical", "rel_gap"]
        theory = float(lines[0].split()[1])
        empirical = float(lines[1].split()[1])
        assert theory > 0 and empirical > 0

    def test_overflowing_theory_is_numeric_failure(self, capsys):
        code, out, err = run(capsys, "variance", "--k-amp", "150", "--m", "4", "--trials", "20")
        assert code == 2 and out == ""
        assert err == "error: closed-form variance overflowed\n"


class TestApproxSweepCommand:
    def test_writes_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "approx-sweep", "--n", "24", "--c", "4", "--cout", "4",
                         "--m-list", "8,32,128", "--trials", "4", "--seed", "11",
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# axis=m")
        assert len(lines) == 4


class TestVarianceSweepCommand:
    def test_writes_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "variance.csv"
        code, _, _ = run(capsys, "variance-sweep", "--k-list", "1,2", "--c", "4", "--m", "16",
                         "--trials", "64", "--seed", "60", "--out", str(out))
        assert code == 0
        meta, rows = read_sweep_csv(out)
        assert meta["axis"] == "k_amp" and meta["columns"] == "x,theory,empirical"
        assert [r[0] for r in rows] == [1.0, 2.0]

    def test_skipped_point_is_one_warning_line(self, capsys):
        code, out, err = run(capsys, "variance-sweep", "--k-list", "1,1e308", "--trials", "2")
        assert code == 0 and len(out.splitlines()) == 2
        assert err == "warning: skipped k_amp=1e+308: variance beyond float range\n"

    def test_bad_k_list_is_usage_error(self, capsys):
        code, _, err = run(capsys, "variance-sweep", "--k-list", "1,x")
        assert code == 1 and "--k-list" in err


class TestContrastiveCommand:
    def test_from_query_key(self, matrices, capsys):
        code, out, _ = run(capsys, "contrastive", "--q", matrices["q"], "--k", matrices["k"],
                           "--n1", "0.1", "--n2", "0.3")
        assert code == 0
        assert out.startswith("contrastive_loss ")

    def test_total_loss_lines(self, matrices, tmp_path, capsys):
        sr = gaussian_sample(RngSpec(77), 3, 5)
        sr_path, hr_path = tmp_path / "sr.csv", tmp_path / "hr.csv"
        write_matrix_csv(sr, sr_path)
        write_matrix_csv(sr + 0.5, hr_path)
        code, out, _ = run(capsys, "contrastive", "--q", matrices["q"], "--k", matrices["k"],
                           "--n1", "0.1", "--n2", "0.3",
                           "--sr", str(sr_path), "--hr", str(hr_path))
        assert code == 0
        lines = dict(line.split() for line in out.splitlines())
        assert abs(float(lines["reconstruction_loss"]) - 0.5) < 1e-12
        expected_total = 0.5 + 1e-3 * float(lines["contrastive_loss"])
        # stdout carries 10 significant digits
        assert abs(float(lines["total_loss"]) - expected_total) < 1e-9

    def test_large_amplification_gives_finite_loss(self, matrices, capsys):
        code, out, _ = run(capsys, "contrastive", "--q", matrices["q"], "--k", matrices["k"],
                           "--k-amp", "1000", "--n1", "0.1", "--n2", "0.3")
        assert code == 0
        assert math.isfinite(float(out.split()[1]))

    def test_group_too_small_is_numeric_failure(self, tmp_path, capsys):
        t = tmp_path / "t.csv"
        write_matrix_csv(np.zeros((10, 10)), t)
        code, _, err = run(capsys, "contrastive", "--t", str(t))
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("t, hr, message", [
        # with n1 = n2 = 0.5 the two groups of a row lie 2e308 apart
        ([[1e308, -1e308]], [[0.0, 0.0]], "contrastive loss overflowed at row 0"),
        # the mean absolute difference from sr = [[1e308, 1e308]] is 2e308
        ([[0.0, 0.0]], [[-1e308, -1e308]], "reconstruction loss overflowed"),
    ])
    def test_loss_past_float_range_is_numeric_failure(self, tmp_path, capsys, t, hr, message):
        paths = {name: tmp_path / f"{name}.csv" for name in ("t", "sr", "hr")}
        for name, a in (("t", t), ("sr", [[1e308, 1e308]]), ("hr", hr)):
            write_matrix_csv(np.array(a), paths[name])
        code, out, err = run(capsys, "contrastive", "--t", str(paths["t"]), "--n1", "0.5", "--n2", "0.5",
                             "--sr", str(paths["sr"]), "--hr", str(paths["hr"]))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_total_loss_past_float_range_is_numeric_failure(self, tmp_path, capsys):
        # a reconstruction loss of 1.7e308 plus 1e308 times a contrastive loss of 1
        paths = {name: tmp_path / f"{name}.csv" for name in ("t", "sr", "hr")}
        for name, a in (("t", np.zeros((1, 2))), ("sr", np.zeros((2, 2))), ("hr", np.full((2, 2), 1.7e308))):
            write_matrix_csv(a, paths[name])
        code, out, err = run(capsys, "contrastive", "--t", str(paths["t"]), "--n1", "0.5", "--n2", "0.5",
                             "--sr", str(paths["sr"]), "--hr", str(paths["hr"]), "--lambda-cl", "1e308")
        assert (code, out, err) == (2, "", "error: total loss overflowed\n")


class TestCorrMapCommand:
    def test_amplification_reduces_entropy(self, matrices, capsys):
        entropies = {}
        for k_amp in ("1", "6"):
            code, out, _ = run(capsys, "corr-map", "--features", matrices["features"],
                               "--c-embed", "6", "--k-amp", k_amp, "--seed", "13",
                               "--query-index", "3")
            assert code == 0
            entropies[k_amp] = float(out.split()[1])
        assert entropies["6"] < entropies["1"]

    def test_pgm_export(self, matrices, tmp_path, capsys):
        out = tmp_path / "map.pgm"
        code, _, _ = run(capsys, "corr-map", "--features", matrices["features"],
                         "--c-embed", "6", "--seed", "13", "--height", "6",
                         "--width", "6", "--out", str(out))
        assert code == 0
        image = read_pgm(out)
        assert image.shape == (6, 6)
        assert image.max() == 255

    def test_csv_out_matches_entropy(self, matrices, tmp_path, capsys):
        out = tmp_path / "map.csv"
        code, stdout, _ = run(capsys, "corr-map", "--features", matrices["features"],
                              "--c-embed", "6", "--seed", "13", "--csv-out", str(out))
        assert code == 0
        cmap = read_matrix_csv(out)[0]
        assert abs(entropy(cmap) - float(stdout.split()[1])) < 1e-9

    def test_one_hot_map_has_entropy_zero(self, tmp_path, capsys):
        q, k = tmp_path / "q.csv", tmp_path / "k.csv"
        write_matrix_csv([[30.0, 0.0]], q)
        write_matrix_csv([[30.0, -30.0]], k)  # logits 900 and -900: a one-hot map
        code, out, _ = run(capsys, "corr-map", "--q", str(q), "--k", str(k))
        assert code == 0 and out == "entropy 0\n"

    @pytest.mark.parametrize("argv, column", [
        (["exact"], 0), (["corr-map"], 0), (["corr-map", "--query-index", "1"], 1),
    ], ids=["exact", "corr-map", "corr-map --query-index 1"])
    def test_overflowing_logits_are_numeric_failure(self, tmp_path, capsys, argv, column):
        # query `column` meets the keys at +inf and -inf, the other stays finite;
        # corr-map names the query it was asked for, not its one-column sample's 0
        q, k = tmp_path / "q.csv", tmp_path / "k.csv"
        write_matrix_csv(np.roll([[1e300, 1.0]], column), q)
        write_matrix_csv([[1e300, -1e300]], k)
        inputs = ["--q", str(q), "--k", str(k)] + (["--v", str(q)] if argv[0] == "exact" else [])
        code, out, err = run(capsys, *argv, *inputs)
        assert code == 2 and out == ""
        assert err == f"error: attention logits overflowed at query column {column}\n"

    def test_pgm_needs_shape(self, matrices, tmp_path, capsys):
        code, _, err = run(capsys, "corr-map", "--features", matrices["features"],
                           "--out", str(tmp_path / "m.pgm"))
        assert code == 1 and "height" in err


class TestBenchCommand:
    def test_smoke(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, stdout, _ = run(capsys, "bench", "--n-list", "128,256", "--c", "4",
                              "--cout", "4", "--m", "8", "--repeats", "3",
                              "--out", str(out))
        assert code == 0
        assert "exact ratio 128->256" in stdout
        assert out.read_text().splitlines()[0].startswith("# axis=n")


class TestErrorPaths:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "transmogrify")
        assert code == 1 and "error:" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "flops", "--method", "nla", "--n", "1",
                           "--c", "1", "--cout", "1", "--frobnicate")
        assert code == 1 and "frobnicate" in err

    def test_unreadable_file_names_offender(self, capsys):
        code, _, err = run(capsys, "exact", "--q", "missing.csv", "--k", "missing.csv",
                           "--v", "missing.csv")
        assert code == 1 and "missing.csv" in err

    def test_malformed_csv_names_offender(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("2,2\n1.0\n")
        code, _, err = run(capsys, "exact", "--q", str(bad), "--k", str(bad), "--v", str(bad))
        assert code == 1 and "bad.csv" in err

    def test_malformed_csv_names_file_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("3,2\n1.0,2.0\n\n3.0\n5.0,6.0\n")
        code, _, err = run(capsys, "exact", "--q", str(bad), "--k", str(bad), "--v", str(bad))
        assert code == 1
        assert err.strip() == f"error: malformed CSV '{bad}': line 4: expected 2 values, got 1"

    def test_undecodable_csv_names_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1,2\n1.0,\xff2.0\n")
        code, _, err = run(capsys, "enla", "--q", str(bad), "--k", str(bad), "--v", str(bad))
        assert code == 1
        assert "bad.csv" in err and "not UTF-8" in err

    def test_memory_error_is_usage_error(self, matrices, capsys, monkeypatch):
        # a size past what the machine holds, as `--m 10000000000` asks for
        def forward(*args):
            raise MemoryError("Unable to allocate 298. GiB for an array with shape (10000000000, 4)")
        monkeypatch.setattr(enlca.cli, "enla_forward", forward)
        code, out, err = run(capsys, "enla", "--q", matrices["q"], "--k", matrices["k"], "--v", matrices["v"])
        assert code == 1 and out == ""
        assert err == "error: Unable to allocate 298. GiB for an array with shape (10000000000, 4)\n"

    def test_shape_mismatch_is_numeric_failure(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_matrix_csv(np.zeros((3, 4)), a)
        write_matrix_csv(np.zeros((2, 4)), b)
        code, _, err = run(capsys, "exact", "--q", str(a), "--k", str(b), "--v", str(a))
        assert code == 2 and "error:" in err

    def test_non_finite_csv_is_numeric_failure(self, matrices, tmp_path, capsys):
        # the message names which of the three files is at fault
        bad = tmp_path / "nan.csv"
        bad.write_text("1,2\nnan,1.0\n")
        code, _, err = run(capsys, "exact", "--q", matrices["q"], "--k", str(bad), "--v", matrices["v"])
        assert code == 2
        assert err.strip() == f"error: '{bad}': CSV matrix has a non-finite entry at (0, 0)"

    def test_closed_stdout_exits_quietly(self):
        # a reader that quits early: the pipe's read end is closed before
        # the command writes its table
        env = dict(os.environ, PYTHONPATH=str(Path(enlca.__file__).resolve().parents[1]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "enlca", "flops"], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""

    @pytest.mark.parametrize("argv,message", [
        (["corr-map", "--features", "X", "--query-index", "999"], "query_index 999 out of range"),
        (["corr-map", "--q", "Q", "--k", "K", "--query-index", "-1"], "query_index -1 out of range"),
        (["variance", "--c", "0", "--trials", "10"], "c must be >= 1"),
        (["variance-sweep", "--c", "0", "--trials", "10"], "c must be >= 1"),
        (["corr-map", "--features", "X", "--k-amp", "0.5"], "k_amp must be >= 1"),
        (["variance", "--m", "0", "--trials", "10"], "m must be >= 1, got 0"),
        (["variance", "--k-amp", "0.5", "--trials", "10"], "k_amp must be >= 1, got 0.5"),
        (["variance", "--k-amp", "-1", "--trials", "10"], "k_amp must be >= 1, got -1.0"),
        (["variance-sweep", "--k-list", "nan", "--trials", "10"], "k_amp must be >= 1, got nan"),
        (["variance", "--k-amp", "inf", "--trials", "10"], "k_amp must be finite, got inf"),
        (["variance-sweep", "--k-list", "1,inf", "--trials", "10"], "k_amp must be finite, got inf"),
        (["corr-map", "--features", "X", "--k-amp", "inf"], "k_amp must be finite, got inf"),
        (["flops", "--n", "0"], "n must be >= 1, got 0"),
        (["flops", "--method", "nla", "--m", "0"], "m must be >= 1, got 0"),
        (["flops", "--m", "0"], "m must be >= 1, got 0"),
        (["flops", "--m", "-5"], "m must be >= 1, got -5"),
        (["approx-sweep", "--n", "0", "--m-list", "8"], "n must be >= 1, got 0"),
        (["approx-sweep", "--n", "16", "--c", "0", "--m-list", "8"], "c must be >= 1, got 0"),
        (["approx-sweep", "--n", "16", "--cout", "0", "--m-list", "8"], "c_out must be >= 1, got 0"),
        (["approx-sweep", "--n", "16", "--m-list", ","], "--m-list must name at least one value"),
        (["approx-sweep", "--n", "16", "--m-list", "64,16"], "m_list must be ascending, got [64, 16]"),
        (["approx-sweep", "--n", "16", "--m-list", "4,,8"], "--m-list must be comma-separated ints, got '4,,8'"),
        (["approx-sweep", "--n", "16", "--m-list", ",4"], "--m-list must be comma-separated ints, got ',4'"),
        (["approx-sweep", "--n", "16", "--m-list", "4,"], "--m-list must be comma-separated ints, got '4,'"),
        (["bench", "--n-list", "8,,16"], "--n-list must be comma-separated ints, got '8,,16'"),
        (["variance-sweep", "--k-list", "1,,2", "--trials", "10"],
         "--k-list must be comma-separated floats, got '1,,2'"),
        (["bench", "--n-list", "16", "--c", "0"], "c must be >= 1, got 0"),
        (["block", "--features", "X", "--c-embed", "0"], "c_embed must be >= 1, got 0"),
        (["enla", "--features", "X", "--c-embed", "0"], "c_embed must be >= 1, got 0"),
        (["exact", "--features", "X", "--c-embed", "0"], "c_embed must be >= 1, got 0"),
        (["corr-map", "--features", "X", "--c-embed", "0"], "c_embed must be >= 1, got 0"),
        (["corr-map", "--features", "X", "--height", "-6", "--width", "-6", "--out", "OUT"],
         "height must be >= 1, got -6"),
    ], ids=["corr-map --query-index", "corr-map --query-index -1", "variance --c", "variance-sweep --c",
            "corr-map --k-amp below 1",
            "variance --m", "variance --k-amp below 1", "variance --k-amp negative",
            "variance-sweep --k-list nan", "variance --k-amp inf", "variance-sweep --k-list inf",
            "corr-map --k-amp inf", "flops --n", "flops --method nla --m", "flops --m 0",
            "flops --m negative", "approx-sweep --n",
            "approx-sweep --c", "approx-sweep --cout", "approx-sweep --m-list empty",
            "approx-sweep --m-list descending", "approx-sweep --m-list inner empty entry",
            "approx-sweep --m-list leading empty entry", "approx-sweep --m-list trailing empty entry",
            "bench --n-list empty entry", "variance-sweep --k-list empty entry", "bench --c",
            "block --c-embed",
            "enla --c-embed", "exact --c-embed", "corr-map --c-embed", "corr-map --height"])
    def test_out_of_range_value_is_usage_error(self, matrices, tmp_path, capsys, argv, message):
        names = {"Q": matrices["q"], "K": matrices["k"], "X": matrices["features"],
                 "OUT": str(tmp_path / "out.csv")}
        code, out, err = run(capsys, *[names.get(a, a) for a in argv])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["contrastive", "--q", "Q", "--k", "K", "--n1", "0.1", "--n2", "0.3", "--sr", "Q"],
        ["contrastive", "--q", "Q", "--k", "K", "--n1", "0.1", "--n2", "0.3", "--lambda-cl", "0.5"],
        ["corr-map", "--features", "X", "--out", "map.pgm"],
        ["corr-map", "--features", "X", "--height", "6", "--width", "6"],
        ["flops", "--m", "8"],
        ["flops", "--method", "nla", "--m", "8"],
        ["flops", "--method", "conv3x3", "--m", "8"],
    ], ids=["contrastive --sr", "contrastive --lambda-cl", "corr-map --out", "corr-map --height --width",
            "flops --m", "flops --method nla --m", "flops --method conv3x3 --m"])
    def test_unpaired_flag_prints_nothing(self, matrices, tmp_path, capsys, argv):
        names = {"Q": matrices["q"], "K": matrices["k"], "X": matrices["features"],
                 "map.pgm": str(tmp_path / "map.pgm")}
        code, out, err = run(capsys, *[names.get(a, a) for a in argv])
        assert code == 1 and out == "" and err.startswith("error: ")
        assert not (tmp_path / "map.pgm").exists()

    @pytest.mark.parametrize("argv,message", [
        (["exact", "--q", "Q", "--k", "K", "--v", "V", "--k-amp", "2"],
         "--k-amp does not apply with explicit --q/--k/--v"),
        (["enla", "--q", "Q", "--k", "K", "--v", "V", "--k-amp", "6"],
         "--k-amp does not apply with explicit --q/--k/--v"),
        (["corr-map", "--q", "Q", "--k", "K", "--c-embed", "3"],
         "--c-embed does not apply with explicit --q/--k"),
        (["exact", "--q", "Q", "--k", "K", "--v", "V", "--seed", "5"],
         "--seed does not apply with explicit --q/--k/--v"),
        (["corr-map", "--q", "Q", "--k", "K", "--seed", "5"], "--seed does not apply with explicit --q/--k"),
        (["enla", "--features", "X", "--q", "Q"], "--q does not apply with --features"),
        (["exact", "--features", "X", "--v", "V"], "--v does not apply with --features"),
        (["corr-map", "--features", "X", "--k", "K"], "--k does not apply with --features"),
        (["contrastive", "--t", "T", "--q", "Q", "--k", "K"], "--q does not apply with --t"),
        (["contrastive", "--t", "T", "--k-amp", "2"], "--k-amp does not apply with --t"),
        (["exact", "--q", "Q", "--k", "K"], "give --features or all of --q/--k/--v (missing --v)"),
        (["contrastive", "--q", "Q"], "give --t, or both --q and --k"),
    ], ids=["exact --k-amp", "enla --k-amp", "corr-map --c-embed", "exact --seed", "corr-map --seed",
            "enla --features --q",
            "exact --features --v", "corr-map --features --k", "contrastive --t --q", "contrastive --t --k-amp",
            "exact missing --v", "contrastive missing --k"])
    def test_input_mode_takes_only_its_flags(self, matrices, capsys, argv, message):
        names = {"Q": matrices["q"], "K": matrices["k"], "V": matrices["v"], "X": matrices["features"],
                 "T": matrices["v"]}
        code, out, err = run(capsys, *[names.get(a, a) for a in argv])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv,code,message", [
        (["corr-map", "--features", "X", "--height", "3", "--width", "5", "--out", "map.pgm"], 2,
         "does not reshape to 3x5"),
        (["contrastive", "--q", "Q", "--k", "K", "--n1", "0.1", "--n2", "0.3", "--sr", "Q", "--hr", "X"], 2,
         "sr and hr need equal shapes"),
        (["exact", "--q", "Q", "--k", "K", "--v", "Q", "--weights-out", "NODIR"], 1, "No such file"),
        (["bench", "--n-list", "16", "--c", "2", "--cout", "2", "--m", "4", "--out", "NODIR"], 1,
         "No such file"),
        (["block", "--features", "X", "--c-embed", "13"], 2, "embedding width 13 exceeds input channels 12"),
        (["enla", "--features", "X", "--c-embed", "13"], 2, "embedding width 13 exceeds input channels 12"),
    ], ids=["corr-map --out of the wrong size", "contrastive --sr/--hr mismatch",
            "exact --weights-out unwritable", "bench --out unwritable", "block --c-embed above c_in",
            "enla --c-embed above c_in"])
    def test_failed_call_prints_nothing(self, matrices, tmp_path, capsys, argv, code, message):
        names = {"Q": matrices["q"], "K": matrices["k"], "X": matrices["features"],
                 "map.pgm": str(tmp_path / "map.pgm"), "NODIR": str(tmp_path / "missing" / "out.csv")}
        got, out, err = run(capsys, *[names.get(a, a) for a in argv])
        assert got == code and out == ""
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "map.pgm").exists()


# Each subcommand takes only the flags it reads.
REMOVED_FLAGS = [
    ("exact", ["--m", "8"]),
    ("exact", ["--orthogonal"]),
    ("corr-map", ["--v", "V"]),
    ("corr-map", ["--m", "8"]),
    ("corr-map", ["--orthogonal"]),
    ("variance", ["--epsilon", "1e-9"]),
    ("block", ["--q", "Q"]),
    ("block", ["--k", "K"]),
    ("block", ["--v", "V"]),
    ("exact", ["--epsilon", "1e-9"]),
    ("corr-map", ["--epsilon", "1e-9"]),
    # the normalizer floor is a constant of the forward
    ("enla", ["--epsilon", "1e-9"]),
    ("block", ["--epsilon", "1e-9"]),
    # a prefix of a longer flag is no flag
    ("approx-sweep", ["--k", "2"]),
    ("variance", ["--k", "2"]),
    ("variance-sweep", ["--k", "2"]),
]


@pytest.mark.parametrize("command,extra", REMOVED_FLAGS,
                         ids=[f"{command} {extra[0]}" for command, extra in REMOVED_FLAGS])
def test_removed_flag_is_usage_error(matrices, tmp_path, capsys, command, extra):
    q, k, v, x = matrices["q"], matrices["k"], matrices["v"], matrices["features"]
    valid = {
        "exact": ["--q", q, "--k", k, "--v", v],
        "enla": ["--q", q, "--k", k, "--v", v],
        "corr-map": ["--q", q, "--k", k],
        "variance": ["--trials", "10"],
        "block": ["--features", x],
        "approx-sweep": ["--n", "16", "--m-list", "8"],
        "variance-sweep": ["--trials", "10"],
    }[command]
    extra = [{"Q": q, "K": k, "V": v}.get(a, a) for a in extra]
    code, out, err = run(capsys, command, *valid, *extra)
    assert code == 1 and out == ""
    assert f"unrecognized arguments: {extra[0]}" in err


def test_no_parser_takes_abbreviations():
    parser = build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert parser.allow_abbrev is False
    for name, subparser in subparsers.choices.items():
        assert subparser.allow_abbrev is False, name


class TestSeed:
    def test_default_seed_is_zero(self, matrices, tmp_path, capsys):
        default_path, zero_path = tmp_path / "d.csv", tmp_path / "z.csv"
        argv = ["enla", "--q", matrices["q"], "--k", matrices["k"], "--v", matrices["v"],
                "--m", "16"]
        run(capsys, *argv, "--out", str(default_path))
        run(capsys, *argv, "--seed", "0", "--out", str(zero_path))
        assert default_path.read_bytes() == zero_path.read_bytes()

    def test_environment_does_not_set_seed(self, matrices, tmp_path, capsys, monkeypatch):
        plain_path, env_path = tmp_path / "p.csv", tmp_path / "e.csv"
        argv = ["enla", "--q", matrices["q"], "--k", matrices["k"], "--v", matrices["v"],
                "--m", "16"]
        run(capsys, *argv, "--out", str(plain_path))
        monkeypatch.setenv("ENLCA_SEED", "12345")
        run(capsys, *argv, "--out", str(env_path))
        assert plain_path.read_bytes() == env_path.read_bytes()


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def readme_commands():
    """Every `enlca ...` line in README's shell blocks as argv, backslash
    continuations joined."""
    return [
        shlex.split(line, comments=True)
        for block in re.findall(r"```sh\n(.*?)```", README, flags=re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("enlca ")
    ]


def test_readme_commands_parse():
    """README shows every subcommand and no other, and every README
    command parses with the CLI's own parser."""
    commands = readme_commands()
    parser = build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {a[1] for a in commands} == set(subparsers.choices)
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except UsageError as exc:
            pytest.fail(f"{shlex.join(argv)}: {exc}")


@pytest.mark.parametrize("k_amp, quoted", [
    (["--k-amp", "1"], r"writes median errors (.*?)\s+for m"),
    ([], r"the same call\s+writes (.*?):"),
], ids=["k-amp-1", "default-k-amp"])
def test_readme_approx_sweep_medians(tmp_path, k_amp, quoted):
    """README's `approx-sweep ... --out sweep.csv` line, at --k-amp 1 and at
    the default, writes the medians README quotes, to the digits quoted."""
    argv = next(a for a in readme_commands() if a[1] == "approx-sweep" and a[-1] == "sweep.csv")
    assert argv[-4:-2] == ["--k-amp", "1"]
    out = tmp_path / "sweep.csv"
    assert main(argv[1:-4] + k_amp + ["--out", str(out)]) == 0
    values = [row[1] for row in read_sweep_csv(out)[1]]
    medians = re.findall(r"\d+\.\d+", re.search(quoted, README, flags=re.S).group(1))
    assert len(medians) == len(values) == 4
    for value, median in zip(values, medians):
        assert abs(value - float(median)) <= 0.5 * 10.0 ** -len(median.split(".")[1]), (value, median)
