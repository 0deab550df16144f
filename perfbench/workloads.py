"""The four benchmark workloads.

Each workload builds its inputs from the run seed in `setup`, runs one
operation per `op(i)` call (the only timed part) and checks that
operation's output in `check`, which returns (ok, oracle_rel_err). All
randomness comes from `RngSpec(seed)` streams, so a seed fixes the inputs.
The checks work in chunks, so that the benchmark's own arrays stay smaller
than the operation's and the process's peak RSS is the operation's.

`make_probe(workdir)` returns the workload's speed probe: a fixed piece of
plain numpy and Python work of 30 to 60 ms (about 290 ms for the CLI),
independent of the seed and of the library, shaped like the operation
(large GEMM plus exp; per-trial small-array calls; interpreter start,
numpy import and float text conversion in a child process; small
in-cache forwards). A probe returns the CPU seconds of its child
processes, or None. run.py times it next to every operation and set-up
and scales their CPU times by PROBE_REF_MS / probe time, which cancels the
host's changes of core speed. PROBE_REF_MS is the probe's median CPU time
on the machine the baseline was recorded on, so the scaled times read in
that machine's milliseconds. Probes write into buffers they own, so their
speed does not depend on how the library left the allocator; the one
exception, forward_large's 41 MB arrays, is above glibc's largest mmap
threshold (32 MiB), so each is mapped afresh whatever that state.

Why these four (see WORKLOADS.md for sizes against the caches):

- forward_large: the linear forward at a size where the m x N phi
  temporaries overflow the L2 cache; the phi stabilizer, in-place phi and
  single-GEMM normalizer work (ROADMAP 1, 3a, 3b) act here.
- mc_trials: per-trial Python cost of the Monte-Carlo estimator with no
  large GEMM (ROADMAP 2); forward work should leave it unchanged.
- cli_enla: one `python -m enlca enla` process on CSV files, where
  start-up and CSV I/O dominate; the CSV side of ROADMAP 3c, which a
  binary-I/O change should leave unchanged.
- approx_sweep: many small in-cache forwards plus the exact oracle, so a
  forward change that adds per-call cost shows, and `exact` and
  `analysis` are measured.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

_CLI_TIMEOUT_S = 120
# Block sizes of the checks: small against the op's own m x N temporaries,
# large enough that the numpy calls are not per-element.
_ORACLE_COLUMNS = 16
_KEY_BLOCK = 4096
_TRIAL_BLOCK = 64
# Float rounding only: stabilizer shifts, GEMM order and a fused normalizer
# move the forward by ~1e-14 relative; a changed formula moves it by ~1e-2.
SAME_RTOL = 1e-9


def _oracle_columns(q_cols, k, v) -> np.ndarray:
    """Exact softmax attention for a few query columns, in plain numpy,
    _ORACLE_COLUMNS columns at a time."""
    out = np.empty((v.shape[0], q_cols.shape[1]))
    for s in range(0, q_cols.shape[1], _ORACLE_COLUMNS):
        logits = q_cols[:, s:s + _ORACLE_COLUMNS].T @ k
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=1, keepdims=True)
        out[:, s:s + _ORACLE_COLUMNS] = v @ logits.T
    return out


class _Workload:
    """Holds the library modules, the run seed and the scratch directory.
    `child_cpu_s` is the CPU time of the child processes of the last op."""

    child_cpu_s = 0.0

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        pass


class _Attention(_Workload):
    """Shared inputs of the two forward workloads: normalized q/k, values,
    a fixed sample of query columns and, built at the first check rather
    than in the timed set-up, the exact oracle on them.

    The oracle error is the Frobenius error on the sampled columns divided
    by the norm of the values there. Dividing by the reference's own norm
    instead would make the metric a property of the instance: at k_amp=1
    the reference is close to the mean of zero-mean values, whose norm is
    about 1/sqrt(N) and varies by half between seeds.
    """

    SAMPLE = 1024

    def setup(self) -> None:
        lib = self.lib
        rng = lib.matrices.RngSpec(self.seed)
        gaussian = lib.matrices.gaussian_sample
        theta = gaussian(rng.stream(1), self.C, self.N)
        delta = gaussian(rng.stream(2), self.C, self.N)
        self.v = gaussian(rng.stream(3), self.C_OUT, self.N)
        self.q, self.k = lib.enla.normalize_and_scale(theta, delta, self.K_AMP)
        cols = rng.stream(4).generator().choice(self.N, self.SAMPLE, replace=False)
        self.cols = np.sort(cols)
        self.value_norm = float(np.linalg.norm(self.v[:, self.cols]))
        self.v_lo = self.v.min(axis=1)
        self.v_hi = self.v.max(axis=1)

    @functools.cached_property
    def reference(self) -> np.ndarray:
        return _oracle_columns(self.q[:, self.cols], self.k, self.v)

    def _same_projection(self, rng) -> np.ndarray:
        """The forward on the sampled columns with the projection the
        library must draw for `rng` (iid Philox normals, m x c), in plain
        numpy, over key positions in chunks. Unstabilized exp is safe:
        |q| = |k| = 1 at k_amp = 1, and the 1/sqrt(m) and exp(-|u|^2/2)
        factors cancel in the ratio."""
        key = np.array([rng.seed, rng.stream_id], dtype=np.uint64)
        f = np.random.Generator(np.random.Philox(key=key)).standard_normal((self.M, self.C))
        kv = np.zeros((self.C_OUT, self.M))
        k_sum = np.zeros(self.M)
        for s in range(0, self.N, _KEY_BLOCK):
            pk = np.exp(f @ self.k[:, s:s + _KEY_BLOCK])
            kv += self.v[:, s:s + _KEY_BLOCK] @ pk.T
            k_sum += pk.sum(axis=1)
        pq = np.exp(f @ self.q[:, self.cols])
        return kv @ pq / (k_sum @ pq)

    def _check_output(self, y, rng) -> tuple[bool, float]:
        """Finite, inside the value range, equal to the same-projection
        re-derivation to SAME_RTOL, and within ERR_BOUND of the oracle."""
        if y.shape != self.v.shape or not np.isfinite(y).all():
            return False, math.nan
        # Every output is a positive-weight average of value columns.
        slack = 1e-9 * (self.v_hi - self.v_lo)[:, None]
        inside = (y >= self.v_lo[:, None] - slack).all() and (y <= self.v_hi[:, None] + slack).all()
        sampled = y[:, self.cols]
        rederived = self._same_projection(rng)
        same = np.linalg.norm(sampled - rederived) <= SAME_RTOL * np.linalg.norm(rederived)
        err = float(np.linalg.norm(sampled - self.reference)) / self.value_norm
        return bool(inside and same) and err < self.ERR_BOUND, err


class ForwardLarge(_Attention):
    name = "forward_large"
    work_unit = "positions"
    N, C, C_OUT, M, K_AMP = 40_000, 16, 16, 128, 1.0
    work_per_op = N
    # The largest per-op error seen over seeds 11-18, 12 ops each, at the
    # first benchmarked commit was 0.0016; three times that flags a broken
    # forward without tripping on Monte-Carlo spread.
    ERR_BOUND = 0.005

    def params(self) -> dict:
        return {"n": self.N, "c": self.C, "c_out": self.C_OUT, "m": self.M, "k_amp": self.K_AMP,
                "orthogonal": False, "sampled_query_columns": self.SAMPLE,
                "phi_temporary_bytes": 8 * self.M * self.N,
                "input_bytes": 8 * self.N * (2 * self.C + self.C_OUT)}

    # Each PROBE_REF_MS is the median of make_probe() over 20 s on a 2-core
    # Intel Xeon VM with one BLAS thread (the baseline machine).
    PROBE_REF_MS = 57.9

    @classmethod
    def make_probe(cls, workdir):
        """phi's work without the library, twice (for q and k): a new m x N
        array, F @ U into it and exp in place. Like the forward's arrays it
        is faulted in afresh on every call, so the probe also tracks the
        host's page-fault cost, which at times is half the forward's."""
        rng = np.random.default_rng(0)
        f = rng.standard_normal((cls.M, cls.C))
        u = 0.25 * rng.standard_normal((cls.C, cls.N))

        def probe():
            for _ in range(2):
                out = np.empty((cls.M, cls.N))
                np.matmul(f, u, out=out)
                np.exp(out, out=out)
        return probe

    def _rng(self, i: int):
        return self.lib.matrices.RngSpec(self.seed).stream(100 + i)

    def op(self, i: int):
        config = self.lib.enla.EnlaConfig(rng=self._rng(i), m=self.M, k_amp=self.K_AMP)
        return self.lib.enla.enla_forward(self.q, self.k, self.v, config)

    def check(self, i: int, y) -> tuple[bool, float]:
        return self._check_output(y, self._rng(i))


class McTrials(_Workload):
    name = "mc_trials"
    work_unit = "trials"
    C, M, TRIALS, U0 = 64, 16, 3200, 0.5
    work_per_op = 2 * TRIALS
    SPOT_TRIALS = 4
    ORTHO_RTOL = 1e-12

    def params(self) -> dict:
        return {"c": self.C, "m": self.M, "trials": self.TRIALS, "u": f"({self.U0}, 0, ..., 0)",
                "modes": ["iid", "orthogonal"], "projection_bytes": 8 * self.M * self.C}

    PROBE_REF_MS = 31.9
    PROBE_TRIALS = 256

    @classmethod
    def make_probe(cls, workdir):
        """PROBE_TRIALS trials of a Philox block, its QR and a mean of exp."""
        z = np.full(cls.C, 0.1)

        def probe():
            for t in range(cls.PROBE_TRIALS):
                key = np.array([0, t], dtype=np.uint64)
                g = np.random.Generator(np.random.Philox(key=key)).standard_normal((cls.M, cls.C))
                q_factor, _ = np.linalg.qr(g.T)
                np.exp(q_factor.T @ z).mean()
        return probe

    def _rng(self, i: int):
        # kernel_estimates uses stream(1 + t) for t < TRIALS, so ops are
        # spaced further apart than that.
        return self.lib.matrices.RngSpec(self.seed).stream(10_000 * (i + 2))

    def setup(self) -> None:
        self.u = np.zeros(self.C)
        self.u[0] = self.U0
        self.kernel = math.exp(float(self.u @ self.u))
        z = self.u + self.u
        self.theory = self.kernel ** 2 * math.expm1(float(z @ z)) / self.M

    def op(self, i: int):
        rng = self._rng(i)
        empirical = self.lib.features.kernel_variance_empirical
        iid = empirical(self.u, self.u, self.M, self.TRIALS, rng, False)
        orthogonal = empirical(self.u, self.u, self.M, self.TRIALS, rng, True)
        return iid, orthogonal

    def _rederive(self, rng, trials: int) -> tuple[np.ndarray, np.ndarray]:
        """Estimator samples per the stream contract: trial t draws an
        M x C Gaussian block from the Philox key (seed, stream_id + 1 + t)
        and returns exp(-(|q|^2+|k|^2)/2) * mean exp(F z), evaluated
        max-shifted. The orthogonal projection keeps each row's norm and
        takes its direction from a sign-fixed QR (M <= C: one block).
        Trials are re-derived _TRIAL_BLOCK at a time."""
        z = self.u + self.u
        log_const = -float(self.u @ self.u)
        out = np.empty((2, trials))
        for first in range(0, trials, _TRIAL_BLOCK):
            count = min(_TRIAL_BLOCK, trials - first)
            blocks = np.empty((count, self.M, self.C))
            for j in range(count):
                key = np.array([rng.seed, (rng.stream_id + 1 + first + j) % 2**64], dtype=np.uint64)
                blocks[j] = np.random.Generator(np.random.Philox(key=key)).standard_normal((self.M, self.C))
            q_factor, r_factor = np.linalg.qr(blocks.transpose(0, 2, 1))
            signs = np.sign(np.diagonal(r_factor, axis1=1, axis2=2))
            directions = (q_factor * signs[:, None, :]).transpose(0, 2, 1)
            ortho = directions * np.linalg.norm(blocks, axis=2)[:, :, None]
            for row, fmats in enumerate((blocks, ortho)):
                for j, fmat in enumerate(fmats):
                    g = fmat @ z
                    s = float(g.max())
                    out[row, first + j] = math.exp(s + log_const) * float(np.exp(g - s).mean())
        return out[0], out[1]

    def check(self, i: int, reports) -> tuple[bool, float]:
        iid, orthogonal = reports
        rng = self._rng(i)
        est_iid, est_orth = self._rederive(rng, self.TRIALS)
        ok = iid.empirical == float(est_iid.var(ddof=1))
        ok &= _close(orthogonal.empirical, float(est_orth.var(ddof=1)), self.ORTHO_RTOL)
        ok &= _close(iid.theoretical, self.theory, 1e-12) and iid.trials == self.TRIALS
        estimates = self.lib.features.kernel_estimates
        # Spot trials come from a stream no trial of this op uses.
        spot = rng.stream(self.TRIALS + 1).generator().integers(0, self.TRIALS, self.SPOT_TRIALS)
        for t in spot:
            ok &= estimates(self.u, self.u, self.M, 1, rng.stream(int(t)), False)[0] == est_iid[t]
            orth_t = estimates(self.u, self.u, self.M, 1, rng.stream(int(t)), True)[0]
            ok &= _close(orth_t, est_orth[t], self.ORTHO_RTOL)
        # RMS relative error of one iid estimate against the exact kernel.
        err = math.sqrt(iid.empirical) / self.kernel
        return bool(ok) and math.isfinite(err), err


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


class CliEnla(_Attention):
    name = "cli_enla"
    work_unit = "calls"
    N, C, C_OUT, M, K_AMP = 10_000, 16, 16, 128, 1.0
    work_per_op = 1
    # Largest per-op error over the same seeds and ops: 0.0030.
    ERR_BOUND = 0.01
    PROBE_REF_MS = 290.9
    PROBE_ROWS = 1000

    @classmethod
    def make_probe(cls, workdir):
        """A child interpreter that imports numpy, formats PROBE_ROWS x C
        floats as CSV text and parses them back: the CLI call's start-up
        and CSV work without the library."""
        code = ("import numpy as np\n"
                f"rows = np.random.default_rng(0).standard_normal(({cls.PROBE_ROWS}, {cls.C})).tolist()\n"
                "text = '\\n'.join(','.join(repr(x) for x in row) for row in rows)\n"
                "for line in text.splitlines():\n"
                "    [float(f) for f in line.split(',')]\n")
        cmd = [sys.executable, "-c", code]

        def probe():
            status, stderr, usage = _run_child(cmd, dict(os.environ), workdir)
            if status != 0:
                raise RuntimeError(f"CLI probe failed: {stderr.decode(errors='replace')}")
            return usage.ru_utime + usage.ru_stime
        return probe

    def __init__(self, lib, seed: int, workdir: Path):
        super().__init__(lib, seed, workdir)
        self.traced = False
        self.call_peaks_mb = []
        src = Path(lib.matrices.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.paths = {name: workdir / f"{name}.csv" for name in ("q", "k", "v")}

    def params(self) -> dict:
        return {"n": self.N, "c": self.C, "c_out": self.C_OUT, "m": self.M, "k_amp_inputs": self.K_AMP,
                "input_csv_bytes": self.input_bytes, "sampled_query_columns": self.SAMPLE,
                "phi_temporary_bytes": 8 * self.M * self.N,
                "command": "python -m enlca enla --q --k --v --out --m 128 --seed S"}

    def setup(self) -> None:
        super().setup()
        for name, matrix in (("q", self.q), ("k", self.k), ("v", self.v)):
            self.lib.matrices.write_matrix_csv(matrix, self.paths[name])
        self.input_bytes = sum(p.stat().st_size for p in self.paths.values())

    def _cli_seed(self, i: int) -> int:
        return (self.seed * 1_000_003 + 1_000 + i) % 2**63

    def _argv(self, i: int, out: Path) -> list[str]:
        args = ["enla"]
        for name in ("q", "k", "v"):
            args += [f"--{name}", str(self.paths[name])]
        return args + ["--out", str(out), "--m", str(self.M), "--seed", str(self._cli_seed(i))]

    def op(self, i: int):
        out = self.workdir / f"y{i}.csv"
        if self.traced:
            spans_path = self.workdir / f"spans{i}.json"
            child = Path(__file__).resolve().parent / "cli_child.py"
            cmd = [sys.executable, str(child), str(spans_path)] + self._argv(i, out)
        else:
            spans_path = None
            cmd = [sys.executable, "-m", "enlca"] + self._argv(i, out)
        status, stderr, usage = _run_child(cmd, self.env, self.workdir)
        self.call_peaks_mb.append(usage.ru_maxrss / 1024.0)
        self.child_cpu_s = usage.ru_utime + usage.ru_stime
        return status, stderr, out, spans_path

    def child_summary(self, result) -> dict:
        spans_path = result[-1]
        with open(spans_path) as fp:
            summary = json.load(fp)
        spans_path.unlink()
        return summary

    def check(self, i: int, result) -> tuple[bool, float]:
        status, stderr, out, _ = result
        if status != 0:
            sys.stderr.write(stderr.decode(errors="replace"))
            return False, math.nan
        try:
            y = _parse_csv(out)
        finally:
            out.unlink(missing_ok=True)
        if y is None:
            return False, math.nan
        rng = self.lib.matrices.RngSpec(self._cli_seed(i)).stream(2)
        expected = self.lib.enla.enla_forward(self.q, self.k, self.v, self.lib.enla.EnlaConfig(rng=rng, m=self.M))
        ok, err = self._check_output(y, rng)
        return ok and np.array_equal(y, expected), err


def _run_child(cmd: list, env: dict, cwd: Path):
    """Run one process to completion: (exit status, stderr, its own
    resource usage from os.wait4). A timer kills a child that outlives
    _CLI_TIMEOUT_S."""
    with open(cwd / "stderr.txt", "w+b") as err:
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(_CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        err.seek(0)
        return proc.returncode, err.read(), usage


def _parse_csv(path: Path):
    """Independent reader of the CSV interchange format (header rows,cols)."""
    with open(path) as fp:
        header = fp.readline().split(",")
        body = np.loadtxt(fp, delimiter=",", ndmin=2)
    if len(header) != 2 or body.shape != (int(header[0]), int(header[1])):
        return None
    return body


class ApproxSweep(_Workload):
    name = "approx_sweep"
    work_unit = "sweeps"
    N, C, C_OUT, M_LIST, K_AMP, TRIALS = 2048, 8, 8, (16, 32, 64, 128), 1.0, 32
    work_per_op = 1

    def params(self) -> dict:
        return {"n": self.N, "c": self.C, "c_out": self.C_OUT, "m_list": list(self.M_LIST),
                "k_amp": self.K_AMP, "trials": self.TRIALS,
                "phi_temporary_bytes_at_max_m": 8 * max(self.M_LIST) * self.N,
                "exact_chunk_bytes": 8 * 256 * self.N}

    PROBE_REF_MS = 32.9

    @classmethod
    def make_probe(cls, workdir):
        """Eight plain-numpy forwards per m, on the sweep's shapes."""
        rng = np.random.default_rng(0)
        q, k = 0.35 * rng.standard_normal((2, cls.C, cls.N))
        v = rng.standard_normal((cls.C_OUT, cls.N))
        fs = [rng.standard_normal((m, cls.C)) for m in cls.M_LIST]
        m_max = max(cls.M_LIST)
        pq_buf, pk_buf = np.empty((2, m_max, cls.N))
        kv_buf, s_buf = np.empty((cls.C_OUT, m_max)), np.empty(m_max)
        y, d = np.empty((cls.C_OUT, cls.N)), np.empty(cls.N)

        def probe():
            for f in fs * 8:
                m = f.shape[0]
                pq, pk, kv, s = pq_buf[:m], pk_buf[:m], kv_buf[:, :m], s_buf[:m]
                np.exp(np.matmul(f, q, out=pq), out=pq)
                np.exp(np.matmul(f, k, out=pk), out=pk)
                np.matmul(v, pk.T, out=kv)
                np.matmul(kv, pq, out=y)
                np.matmul(np.sum(pk, axis=1, out=s), pq, out=d)
                np.divide(y, d, out=y)
        return probe

    def _rng(self, i: int):
        return self.lib.matrices.RngSpec(self.seed).stream(1_000 * (i + 2))

    def op(self, i: int):
        return self.lib.analysis.approximation_error_sweep(
            self.N, self.C, self.C_OUT, list(self.M_LIST), self.K_AMP, self.TRIALS, self._rng(i))

    def _reference_over_values(self, i: int) -> float:
        """|exact reference| / |v| on op i's instance, rebuilt the way the
        sweep documents it (q, k, v from rng.stream(1..3)) with a plain
        numpy oracle. The sweep divides by the reference's norm, which at
        k_amp=1 varies by half between instances; this factor turns its
        error into the value-relative error forward_large reports."""
        rng, gaussian = self._rng(i), self.lib.matrices.gaussian_sample
        theta, delta = gaussian(rng.stream(1), self.C, self.N), gaussian(rng.stream(2), self.C, self.N)
        v = gaussian(rng.stream(3), self.C_OUT, self.N)
        q, k = self.lib.enla.normalize_and_scale(theta, delta, self.K_AMP)
        return float(np.linalg.norm(_oracle_columns(q, k, v))) / float(np.linalg.norm(v))

    def check(self, i: int, result) -> tuple[bool, float]:
        errors = dict(result.points)
        values = list(errors.values())
        ok = sorted(errors) == [float(m) for m in self.M_LIST] and all(map(math.isfinite, values))
        low, high = errors.get(float(min(self.M_LIST))), errors.get(float(max(self.M_LIST)))
        ok = ok and high < low
        return ok, high * self._reference_over_values(i) if ok else math.nan


WORKLOADS = {w.name: w for w in (ForwardLarge, McTrials, CliEnla, ApproxSweep)}
