"""Outside-in benchmark of the enlca library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S [--out FILE]

One run builds one workload's inputs from the seed and issues operations
one at a time (a closed loop with one client) for S seconds, checking
every output. It sets up five times: twice before, twice between and
once after two measured segments. Times are CPU times scaled to the reference core speed
by the workload's probe (workloads.py), timed next to each operation and
set-up: op_ref_ms is the median scaled operation and setup_s the median
scaled set-up.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it first
times untraced operations, then wraps the library's public functions
(spans.py) and reports per-layer metrics, each stage next to its essential
cost (its bare GEMM and exp on the same shapes, timed in the same run).

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the line before it, prefixed "detail: ", holds sample counts,
per-op distributions and provenance. --all runs every workload in its own
process, both modes, and prints one table.

The library is imported from src/ next to this directory, never from an
installed copy; the run exits with status 2 when it is missing. BLAS
threads are pinned to BLAS_THREADS before numpy loads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from spans import median

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: the client is one single-threaded process, and a second
# BLAS thread would compete with whatever else holds the other core, which
# on a shared 2-core machine swung BLAS-heavy stages by up to 3x.
BLAS_THREADS = 1
# Set-ups before each of the two measured segments; one more follows them.
SETUPS_PER_SEGMENT = 2
SEGMENTS = 2
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Gated end-to-end metrics (BENCHMARK.json), then the ones only reported.
# On a shared 2-core host the core's speed flips between regimes up to 2x
# apart for seconds to minutes at a time, and the hypervisor takes up to a
# tenth of the time, so a run's wall-clock and CPU times track the
# neighbours' load more than the code. The gate is therefore on CPU time
# (user + system, this process plus the operation's child processes),
# which leaves out time the host gave to others, divided by the CPU time
# of a fixed probe run right before and after, which cancels the core's
# speed of the moment.
END_TO_END = {
    "op_ref_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oracle_rel_err": "ratio",
}
REPORTED = {
    "op_cpu_min_ms": "ms",
    "probe_ms": "ms",
    "op_min_ms": "ms",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "work_per_s": "1/s",
    "failed_ops": "ratio",
}


class LibraryMissing(RuntimeError):
    """The checkout has no importable src/enlca."""


def load_library(src: Path = ROOT / "src") -> SimpleNamespace:
    """Import the library modules from `src`, refusing any other copy."""
    if not (src / "enlca" / "__init__.py").is_file():
        raise LibraryMissing(f"no library source at {src / 'enlca'}")
    sys.path.insert(0, str(src))
    from enlca import analysis, enla, exact, features, matrices

    lib = SimpleNamespace(matrices=matrices, features=features, enla=enla, exact=exact,
                          analysis=analysis)
    for module in vars(lib).values():
        if not Path(module.__file__).resolve().is_relative_to(src):
            raise LibraryMissing(f"{module.__name__} was imported from {module.__file__}, not {src}")
    return lib


def tail_percentile(values: list) -> tuple[float, float]:
    """The highest percentile, at most 90, that has ten or more samples
    above it (nearest rank); never below the median. Returns (p, value)."""
    ordered = sorted(values)
    n = len(ordered)
    p = min(90.0, 100.0 * (n - 10) / n)
    if p <= 50.0:
        return 50.0, median(ordered)
    return p, ordered[math.ceil(p / 100.0 * n) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One workload instance plus its measurement loop."""

    def __init__(self, workload_cls, lib, seed: int, workdir: Path):
        self.workload_cls = workload_cls
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.probe = workload_cls.make_probe(workdir)
        self.probe()  # untimed: a first call costs up to 1.5x more than the rest
        self.probe_times = []

    def time_probe(self) -> float:
        """CPU seconds of one probe, its child processes included."""
        start = time.process_time()
        child_cpu = self.probe()
        cpu = time.process_time() - start + (child_cpu or 0.0)
        self.probe_times.append(cpu)
        return cpu

    def scale(self, cpu: float, before: float, after: float) -> float:
        """CPU seconds at the reference speed, from the probes around them."""
        return cpu * 1e-3 * self.workload_cls.PROBE_REF_MS / (0.5 * (before + after))

    def new_workload(self):
        w = self.workload_cls(self.lib, self.seed, self.workdir)
        w.setup()
        return w

    def setup(self):
        """One set-up with a checked warm-up operation: (workload, CPU
        seconds of this process and the warm-up's child processes, scaled
        to the reference speed)."""
        before = self.time_probe()
        start = time.process_time()
        w = self.new_workload()
        result = w.op(-1)
        cpu = time.process_time() - start + w.child_cpu_s
        scaled = self.scale(cpu, before, self.time_probe())
        self.record(w, -1, result)
        return w, scaled

    def record(self, w, i: int, result):
        """Check one result; returns its oracle error or None on failure."""
        self.attempted += 1
        try:
            ok, err = w.check(i, result)
        except Exception as exc:  # a check that raises is a failed operation
            print(f"check of op {i} raised {exc!r}", file=sys.stderr)
            ok, err = False, math.nan
        if not ok:
            self.failed += 1
            print(f"op {i} failed its output check (oracle_rel_err={err})", file=sys.stderr)
            return None
        return err

    def loop(self, w, seconds: float, first: int, after_op=None) -> SimpleNamespace:
        """Closed loop: probe, issue op i, time it, probe, check it, until
        `seconds` pass; an op's closing probe opens the next one. Returns
        the wall seconds, CPU seconds, scaled CPU seconds and oracle errors
        of the ops that passed their check, and the next op index."""
        op_times, op_cpu, op_ref, errors = [], [], [], []
        i = first
        deadline = time.perf_counter() + seconds
        before = self.time_probe()
        while True:
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                result = w.op(i)
            except Exception as exc:  # keep measuring; the failure is counted
                print(f"op {i} raised {exc!r}", file=sys.stderr)
                self.attempted += 1
                self.failed += 1
                result = None
            elapsed = time.perf_counter() - start
            cpu = time.process_time() - cpu_start + w.child_cpu_s
            after = self.time_probe()
            if result is not None:
                if after_op is not None:
                    after_op(w, i, result, elapsed)
                err = self.record(w, i, result)
                if err is not None:
                    op_times.append(elapsed)
                    op_cpu.append(cpu)
                    op_ref.append(self.scale(cpu, before, after))
                    errors.append(err)
            before = after
            i += 1
            if time.perf_counter() >= deadline:
                return SimpleNamespace(times=op_times, cpu=op_cpu, ref=op_ref, errors=errors, next=i)


def measure(run: Run, seconds: float) -> dict:
    # The set-ups are spread over the run (before, between and after the
    # measured segments), so their median samples the host at several
    # moments instead of one; the first set-up in a fresh process is often
    # up to 1.5x slower than the rest, and the median of five outvotes it.
    setup_times, op_times, op_cpu, op_ref, errors, call_peaks = [], [], [], [], [], []
    first = 0
    for k in range(SEGMENTS * SETUPS_PER_SEGMENT + 1):
        w = None  # drop the previous instance before building the next
        w, cpu = run.setup()
        setup_times.append(cpu)
        if k % SETUPS_PER_SEGMENT == SETUPS_PER_SEGMENT - 1 and k < SEGMENTS * SETUPS_PER_SEGMENT:
            segment = run.loop(w, seconds / SEGMENTS, first)
            first = segment.next
            op_times += segment.times
            op_cpu += segment.cpu
            op_ref += segment.ref
            errors += segment.errors
            call_peaks += getattr(w, "call_peaks_mb", [])
    n = len(op_times)
    p, tail = tail_percentile(op_times) if n else (90.0, math.nan)
    values = {
        "op_ref_ms": (1e3 * median(op_ref), n),
        "setup_s": (median(setup_times), len(setup_times)),
        # A workload that runs each operation in its own process reports
        # the median of those processes' peaks, else this process's peak.
        "peak_rss_mb": (median(call_peaks), len(call_peaks)) if call_peaks else (peak_rss_mb(), 1),
        "oracle_rel_err": (median(errors), len(errors)),
        "op_cpu_min_ms": (1e3 * min(op_cpu, default=math.nan), n),
        "probe_ms": (1e3 * median(run.probe_times), len(run.probe_times)),
        "op_min_ms": (1e3 * min(op_times, default=math.nan), n),
        "op_p50_ms": (1e3 * median(op_times), n),
        "op_p90_ms": (1e3 * tail, n),
        "work_per_s": (w.work_per_op * n / sum(op_times) if n else 0.0, n),
        "failed_ops": (run.failed / run.attempted, run.attempted),
    }
    units = dict(END_TO_END, **REPORTED)
    table = {k: {"value": v, "unit": units[k]} for k, (v, _) in values.items()}
    detail = {
        "samples": {k: c for k, (_, c) in values.items()},
        "reported": {k: table[k] for k in REPORTED},
        "op_p90_percentile": p,
        "work_unit": f"{w.work_unit}/s",
        "op_ms": [round(1e3 * t, 4) for t in op_times],
        "op_cpu_ms": [round(1e3 * t, 4) for t in op_cpu],
        "op_ref_ms": [round(1e3 * t, 4) for t in op_ref],
        "probe_ms": [round(1e3 * t, 4) for t in run.probe_times],
        "setup_s": setup_times,
        "params": w.params(),
    }
    return {"metrics": {k: table[k] for k in END_TO_END}, "detail": detail}


def main(argv=None) -> int:
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write the collected results as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.all:
        return run_all(args, list(WORKLOADS))
    try:
        lib = load_library()
    except (LibraryMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    run = Run(WORKLOADS[args.workload], lib, args.seed, workdir)
    try:
        if args.trace:
            import layers

            report = layers.traced(run, args.seconds)
        else:
            report = measure(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = dict(report["detail"], workload=args.workload, trace=args.trace,
                  provenance=provenance(args.seed))
    print_table(args.workload, report["metrics"], detail, run)
    print("detail: " + json.dumps(detail, sort_keys=True))
    metrics = report["metrics"]
    correct = run.failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    for m in metrics.values():  # keep the line valid JSON when nothing succeeded
        if not math.isfinite(m["value"]):
            m["value"] = 0.0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def print_table(name: str, metrics: dict, detail: dict, run: Run) -> None:
    print(f"workload {name}: {run.attempted} ops checked, failed_ops {run.failed}/{run.attempted}")
    samples = detail.get("samples", {})
    first = "layer" if detail["trace"] else "gated"
    for label, group in ((first, metrics), ("reported", detail.get("reported", {}))):
        for key, m in group.items():
            unit = detail["work_unit"] if key == "work_per_s" else m["unit"]
            note = f"  n={samples[key]}" if key in samples else ""
            if key == "op_p90_ms":
                note += f" (p{detail['op_p90_percentile']:.0f})"
            print(f"  {label:8s} {key:42s} {m['value']:14.6g} {unit}{note}")
    breakdown = detail.get("self_time_breakdown")
    if breakdown:
        op_ms = metrics["trace.op_ms"]["value"]
        print(f"  self time per traced op (median), share of {op_ms:.1f} ms:")
        for span, b in sorted(breakdown.items(), key=lambda kv: -kv[1]["self_ms"]):
            print(f"    {span:40s} calls {b['calls']:8g} total {b['total_ms']:10.3f} ms"
                  f" self {b['self_ms']:10.3f} ms ({b['self_ms'] / op_ms:6.1%})")


def git_revision(root: Path):
    """HEAD's commit, or None outside a git checkout. The ceiling keeps git
    from taking the revision of a repository that merely contains `root`."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _read_first(path: str, prefix: str = "") -> str:
    try:
        with open(path) as fp:
            for line in fp:
                if line.startswith(prefix):
                    return line[len(prefix):].strip(" :\t\n")
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "enlca").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "command": [Path(sys.orig_argv[0]).name] + sys.orig_argv[1:],
        "seed": seed,
        "git_revision": git_revision(ROOT),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "cores": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "cpu": _read_first("/proc/cpuinfo", "model name"),
        "l2_cache": _read_first("/sys/devices/system/cpu/cpu0/cache/index2/size"),
        "platform": platform.platform(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_all(args, names: list) -> int:
    """Every workload in its own process, untraced then traced, printing
    each run's table of metrics with units and sample counts."""
    results = {}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve().relative_to(ROOT)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            print(f"== {name} ({'traced' if trace else 'untraced'})")
            print("\n".join(lines[:-2]), flush=True)
            detail = json.loads(lines[-2][len("detail: "):])
            results.setdefault(name, {})["traced" if trace else "untraced"] = {
                "result": json.loads(lines[-1]), "detail": detail}
    if args.out:
        with open(args.out, "w") as fp:
            json.dump(results, fp, indent=1, sort_keys=True)
            fp.write("\n")
    return 0 if all(b["result"]["correct"] for m in results.values() for b in m.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
