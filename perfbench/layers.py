"""The traced run: per-layer metrics from spans, next to essential costs.

A traced run sets up once with spans on (to catch set-up work such as
normalize_and_scale), spends TRACE_UNTRACED_SHARE of its time on untraced
operations, then wraps the library and traces the rest. After every
traced operation it times the essential floor of each stage shape the
operation used (best of FLOOR_REPEATS): a bare F@U GEMM plus in-place exp
for phi, and the kv GEMM, output GEMM and normalizer for the rest of the
forward. Each `over_essential` ratio divides a stage's median time by
that floor's median, so both come from the same run on the same machine.

Per-layer values are medians over traced operations of per-operation
sums, unless the metric says per call. A layer an operation never
reaches reports 0.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
import warnings
from collections import defaultdict

import numpy as np

import spans
from spans import median

TRACE_UNTRACED_SHARE = 0.3
FLOOR_REPEATS = 3

PER_LAYER = {
    "features.phi.calls": "count",
    "features.phi.ms": "ms",
    "features.phi.essential_ms": "ms",
    "features.phi.over_essential": "ratio",
    "enla.enla_forward.calls": "count",
    "enla.enla_forward.ms": "ms",
    "enla.enla_forward.self_ms": "ms",
    "enla.enla_forward.self_essential_ms": "ms",
    "enla.enla_forward.self_over_essential": "ratio",
    "enla.enla_forward.gflops_per_s": "GFLOP/s",
    "enla.enla_forward.computed_mb": "MB",
    "enla.normalize_and_scale.ms": "ms",
    "enla.normalizer_floored.count": "count",
    "features.sample_projection.calls": "count",
    "features.sample_projection.iid_us": "us",
    "features.sample_projection.orthogonal_us": "us",
    "features.kernel_estimates.us_per_trial": "us",
    "matrices.RngSpec.generator.calls": "count",
    "matrices.RngSpec.generator.us": "us",
    "matrices.read_matrix_csv.calls": "count",
    "matrices.read_matrix_csv.ms": "ms",
    "matrices.read_matrix_csv.mb_per_s": "MB/s",
    "matrices.write_matrix_csv.calls": "count",
    "matrices.write_matrix_csv.ms": "ms",
    "matrices.write_matrix_csv.mb_per_s": "MB/s",
    "matrices.as_matrix.calls": "count",
    "matrices.as_matrix.ms": "ms",
    "exact.exact_attention.ms": "ms",
    "exact.exact_attention.gflops_per_s": "GFLOP/s",
    "analysis.approximation_error_sweep.self_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.self_ms": "ms",
    "trace.ops": "count",
    "trace.untraced_op_ms": "ms",
    "trace.op_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


class Floors:
    """Essential cost of each stage shape, sampled once per traced op."""

    def __init__(self):
        self.samples = defaultdict(list)
        self._arrays = {}

    def _time(self, key, make, kernel) -> None:
        """Best of FLOOR_REPEATS back-to-back runs: a floor is a best case."""
        if key not in self._arrays:
            self._arrays[key] = make()
        best = math.inf
        for _ in range(FLOOR_REPEATS):
            start = time.perf_counter()
            kernel(*self._arrays[key])
            best = min(best, time.perf_counter() - start)
        self.samples[key].append(best)

    def cost(self, key) -> float:
        return median(self.samples.get(key, []), 0.0)

    @staticmethod
    def phi_key(info):
        return ("phi", info["m"], info["c"], info["n"])

    @staticmethod
    def forward_key(info):
        return ("forward_self", info["m"], info["n"], info["c_out"])

    def sample(self, summary: dict) -> None:
        for key in {self.phi_key(i) for i in _infos(summary, "features.phi")}:
            self._time(key, lambda k=key: _phi_arrays(*k[1:]), _phi_kernel)
        for key in {self.forward_key(i) for i in _infos(summary, "enla.enla_forward")}:
            self._time(key, lambda k=key: _forward_arrays(*k[1:]), _forward_kernel)


def _phi_arrays(m, c, n):
    rng = np.random.default_rng(0)
    return rng.standard_normal((m, c)), 0.25 * rng.standard_normal((c, n)), np.empty((m, n))


def _phi_kernel(f, u, out):
    np.matmul(f, u, out=out)
    np.exp(out, out=out)


def _forward_arrays(m, n, c_out):
    rng = np.random.default_rng(0)
    pk, pq = rng.random((m, n)) + 0.5, rng.random((m, n)) + 0.5
    v = rng.standard_normal((c_out, n))
    return pk, pq, v, np.empty((m, c_out)), np.empty((n, c_out)), np.empty(m), np.empty(n)


def _forward_kernel(pk, pq, v, kv, numerator, s, d):
    np.matmul(pk, v.T, out=kv)
    np.matmul(pq.T, kv, out=numerator)
    np.sum(pk, axis=1, out=s)
    np.matmul(pq.T, s, out=d)
    np.divide(numerator, d[:, None], out=numerator)


def _infos(summary: dict, name: str) -> list:
    return summary.get(name, {}).get("infos", [])


def _get(summary: dict, name: str, key: str) -> float:
    return summary.get(name, {}).get(key, 0)


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def _call_mean_us(summaries, name, keep) -> float:
    durations = [i["s"] for s in summaries for i in _infos(s, name) if keep(i)]
    return 1e6 * sum(durations) / len(durations) if durations else 0.0


def _rate(summaries, name, per_call) -> float:
    amount = sum(per_call(i) for s in summaries for i in _infos(s, name))
    seconds = sum(_get(s, name, "total_s") for s in summaries)
    return _ratio(amount, seconds)


class _TracedOps:
    """Adapter the measurement loop drives in the traced phase: spans on
    and NormalizerUnderflowWarnings collected around each op only."""

    def __init__(self, w, tracer, warning_cls):
        self.w = w
        self.tracer = tracer
        self.warning_cls = warning_cls

    def op(self, i):
        self.tracer.take()  # drop spans an earlier failed op left behind
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", self.warning_cls)
            self.tracer.active = True
            try:
                result = self.w.op(i)
            finally:
                self.tracer.active = False
        floored = sum(issubclass(c.category, self.warning_cls) for c in caught)
        return result, floored

    def check(self, i, traced_result):
        return self.w.check(i, traced_result[0])

    @property
    def child_cpu_s(self) -> float:
        return self.w.child_cpu_s


def _interpreter_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def traced(run, seconds: float) -> dict:
    lib = run.lib
    is_cli = run.workload_cls.name == "cli_enla"
    tracer = spans.Tracer()
    spans.install(tracer, lib)
    tracer.active = True
    w = run.new_workload()
    tracer.active = False
    setup_summary = spans.summarize(tracer.take())
    tracer.uninstall()
    run.record(w, -1, w.op(-1))

    untraced = run.loop(w, seconds * TRACE_UNTRACED_SHARE, first=0)
    untraced_times = untraced.times

    spans.install(tracer, lib)
    if is_cli:
        w.traced = True
    floors = Floors()
    ops = []

    def after_op(_, i, traced_result, elapsed):
        result, floored = traced_result
        record = {"elapsed": elapsed, "floored": floored, "import_s": 0.0, "interpreter_s": 0.0}
        if is_cli:
            try:
                child = w.child_summary(result)
            except (OSError, ValueError) as exc:  # the op's check reports the failure
                print(f"op {i}: no span record from the CLI child ({exc})", file=sys.stderr)
                return
            record.update(spans=child["spans"], import_s=child["import_s"],
                          floored=floored + child["floored"], interpreter_s=_interpreter_s())
        else:
            record["spans"] = spans.summarize(tracer.take())
        floors.sample(record["spans"])
        ops.append(record)

    traced_times = run.loop(_TracedOps(w, tracer, lib.enla.NormalizerUnderflowWarning),
                            seconds * (1 - TRACE_UNTRACED_SHARE), untraced.next, after_op).times
    tracer.uninstall()
    metrics, breakdown = _per_layer(lib, ops, setup_summary, floors, untraced_times, is_cli)
    detail = {
        "untraced_op_ms": [round(1e3 * t, 4) for t in untraced_times],
        "traced_op_ms": [round(1e3 * t, 4) for t in traced_times],
        "self_time_breakdown": breakdown,
        "essential_floor_ms": {"/".join(map(str, k)): 1e3 * floors.cost(k) for k in floors.samples},
        "params": w.params(),
        "work_unit": f"{w.work_unit}/s",
        "samples": {k: len(ops) for k in metrics},
    }
    return {"metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items()},
            "detail": detail}


def _per_layer(lib, ops, setup_summary, floors, untraced_times, is_cli):
    flop_count = lib.analysis.flop_count
    summaries = [op["spans"] for op in ops]
    elapsed = [op["elapsed"] for op in ops]

    def per_op(fn) -> float:
        return median([fn(s) for s in summaries], 0.0)

    def ms(name, key="total_s"):
        return per_op(lambda s: 1e3 * _get(s, name, key))

    def calls(name):
        return per_op(lambda s: _get(s, name, "calls"))

    phi_ms = ms("features.phi")
    phi_essential = per_op(lambda s: 1e3 * sum(floors.cost(Floors.phi_key(i)) for i in _infos(s, "features.phi")))
    fwd = "enla.enla_forward"
    fwd_self = ms(fwd, "self_s")
    fwd_essential = per_op(lambda s: 1e3 * sum(floors.cost(Floors.forward_key(i)) for i in _infos(s, fwd)))
    nas = [setup_summary] + summaries
    nas_calls = sum(_get(s, "enla.normalize_and_scale", "calls") for s in nas)
    trials = sum(i["trials"] for s in summaries for i in _infos(s, "features.kernel_estimates"))
    ke_self = sum(_get(s, "features.kernel_estimates", "self_s") for s in summaries)
    gen_calls = sum(_get(s, "matrices.RngSpec.generator", "calls") for s in summaries)
    gen_s = sum(_get(s, "matrices.RngSpec.generator", "total_s") for s in summaries)

    if is_cli:
        interpreter = median([op["interpreter_s"] for op in ops], 0.0)
        imports = [op["import_s"] for op in ops]
        covered = [interpreter + op["import_s"] + _get(s, "cli.main", "total_s")
                   for op, s in zip(ops, summaries)]
    else:
        interpreter, imports = 0.0, []
        covered = [sum(e["top_s"] for e in s.values()) for s in summaries]
    traced_ms = 1e3 * median(elapsed, 0.0)
    untraced_ms = 1e3 * median(untraced_times, 0.0)

    metrics = {
        "features.phi.calls": calls("features.phi"),
        "features.phi.ms": phi_ms,
        "features.phi.essential_ms": phi_essential,
        "features.phi.over_essential": _ratio(phi_ms, phi_essential),
        "enla.enla_forward.calls": calls(fwd),
        "enla.enla_forward.ms": ms(fwd),
        "enla.enla_forward.self_ms": fwd_self,
        "enla.enla_forward.self_essential_ms": fwd_essential,
        "enla.enla_forward.self_over_essential": _ratio(fwd_self, fwd_essential),
        "enla.enla_forward.gflops_per_s": 1e-9 * _rate(
            summaries, fwd, lambda i: flop_count("enlca", i["n"], i["c"], i["c_out"], i["m"]).flops),
        "enla.enla_forward.computed_mb": per_op(lambda s: 1e-6 * sum(
            8 * (i["n"] * (2 * i["c"] + 2 * i["c_out"]) + 4 * i["m"] * i["n"]) for i in _infos(s, fwd))),
        "enla.normalize_and_scale.ms": 1e3 * _ratio(
            sum(_get(s, "enla.normalize_and_scale", "total_s") for s in nas), nas_calls),
        "enla.normalizer_floored.count": float(sum(op["floored"] for op in ops)),
        "features.sample_projection.calls": calls("features.sample_projection"),
        "features.sample_projection.iid_us": _call_mean_us(
            summaries, "features.sample_projection", lambda i: not i["orthogonal"]),
        "features.sample_projection.orthogonal_us": _call_mean_us(
            summaries, "features.sample_projection", lambda i: i["orthogonal"]),
        "features.kernel_estimates.us_per_trial": 1e6 * _ratio(ke_self, trials),
        "matrices.RngSpec.generator.calls": calls("matrices.RngSpec.generator"),
        "matrices.RngSpec.generator.us": 1e6 * _ratio(gen_s, gen_calls),
        "matrices.read_matrix_csv.calls": calls("matrices.read_matrix_csv"),
        "matrices.read_matrix_csv.ms": ms("matrices.read_matrix_csv"),
        "matrices.read_matrix_csv.mb_per_s": 1e-6 * _rate(
            summaries, "matrices.read_matrix_csv", lambda i: i["bytes"]),
        "matrices.write_matrix_csv.calls": calls("matrices.write_matrix_csv"),
        "matrices.write_matrix_csv.ms": ms("matrices.write_matrix_csv"),
        "matrices.write_matrix_csv.mb_per_s": 1e-6 * _rate(
            summaries, "matrices.write_matrix_csv", lambda i: i["bytes"]),
        "matrices.as_matrix.calls": calls("matrices.as_matrix"),
        "matrices.as_matrix.ms": ms("matrices.as_matrix"),
        "exact.exact_attention.ms": ms("exact.exact_attention"),
        "exact.exact_attention.gflops_per_s": 1e-9 * _rate(
            summaries, "exact.exact_attention", lambda i: flop_count("nla", i["n"], i["c"], i["c_out"]).flops),
        "analysis.approximation_error_sweep.self_ms": ms("analysis.approximation_error_sweep", "self_s"),
        "cli.interpreter_ms": 1e3 * interpreter,
        "cli.import_ms": 1e3 * median(imports, 0.0),
        "cli.main.self_ms": ms("cli.main", "self_s"),
        "trace.ops": float(len(ops)),
        "trace.untraced_op_ms": untraced_ms,
        "trace.op_ms": traced_ms,
        "trace.overhead_ratio": _ratio(traced_ms, untraced_ms),
        "trace.coverage": median([c / e for c, e in zip(covered, elapsed)], 0.0),
    }
    names = sorted({n for s in summaries for n in s})
    breakdown = {n: {"calls": calls(n), "total_ms": ms(n), "self_ms": ms(n, "self_s")} for n in names}
    if is_cli:
        breakdown["cli.interpreter"] = {"calls": 1, "total_ms": 1e3 * interpreter, "self_ms": 1e3 * interpreter}
        breakdown["cli.import"] = {"calls": 1, "total_ms": 1e3 * median(imports, 0.0),
                                   "self_ms": 1e3 * median(imports, 0.0)}
    return metrics, breakdown
