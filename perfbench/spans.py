"""In-memory span tracer for the traced benchmark run.

The tracer replaces public functions of the library with timing wrappers,
at the name under which each caller module imported them (for example
`enla.phi`, not only `features.phi`), so a call is recorded at the layer
boundary it actually crosses. Spans live in memory; `take()` returns and
clears the spans of one operation, and `summarize` turns them into
per-name call counts, total time and self time (a span's duration minus
the time covered by its direct children).

Nothing is wrapped until `install` runs, and `Tracer.uninstall` restores
every original binding.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time
from collections import defaultdict

_clock = time.perf_counter


def median(values, empty=math.nan) -> float:
    """The median of `values`, or `empty` when there are none."""
    return statistics.median(values) if len(values) else empty


class Tracer:
    """Records (name, start, end, parent, info) spans while `active`."""

    def __init__(self):
        self.active = False
        self._spans = []
        self._stack = []
        self._undo = []

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace owner.attr by a wrapper that records a span called `name`.

        `describe(args, kwargs, result)` may return a dict of facts about
        the call (shapes, bytes) that is stored with the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            index = len(tracer._spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, None]
            tracer._spans.append(span)
            tracer._stack.append(index)
            start = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = _clock()
                span[1] = start
                tracer._stack.pop()
            if describe is not None:
                span[4] = describe(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans, self._spans = self._spans, []
        return spans

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def summarize(spans: list) -> dict:
    """Per span name: calls, total and self seconds, top-level seconds
    (time of spans with no traced parent) and the described calls, each
    info dict extended with the call's duration `s`."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "top_s": 0.0, "infos": []})
    for i, (name, start, end, parent, info) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        if parent < 0:
            entry["top_s"] += end - start
        if info is not None:
            entry["infos"].append(dict(info, s=end - start))
    return dict(out)


def _describe_phi(args, kwargs, result):
    projection = args[0] if args else kwargs["f"]
    return {"m": projection.m, "c": projection.c, "n": int(result.values.shape[1])}


def _describe_projection(args, kwargs, result):
    return {"orthogonal": bool(result.orthogonal)}


def _describe_forward(args, kwargs, result):
    q, v = args[0], args[2]
    config = args[3] if len(args) > 3 else kwargs["config"]
    return {"c": int(q.shape[0]), "n": int(q.shape[1]), "c_out": int(v.shape[0]), "m": config.m}


def _describe_exact(args, kwargs, result):
    q, v = args[0], args[2]
    return {"c": int(q.shape[0]), "n": int(q.shape[1]), "c_out": int(v.shape[0])}


def _describe_estimates(args, kwargs, result):
    return {"trials": int(result.shape[0])}


def _describe_read(args, kwargs, result):
    return {"bytes": _file_bytes(args[0] if args else kwargs["src"])}


def _describe_write(args, kwargs, result):
    return {"bytes": _file_bytes(args[1] if len(args) > 1 else kwargs["dest"])}


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (TypeError, OSError):
        return 0


def install(tracer: Tracer, lib) -> None:
    """Wrap every public function the workloads reach, in each module
    that imported it. `lib` holds the imported library modules as
    attributes: matrices, features, enla, exact, analysis and, in the CLI
    process, cli."""
    for module in (lib.matrices, lib.features, lib.enla, lib.exact):
        tracer.wrap(module, "as_matrix", "matrices.as_matrix")
    tracer.wrap(lib.matrices.RngSpec, "generator", "matrices.RngSpec.generator")
    tracer.wrap(lib.features, "sample_projection", "features.sample_projection", _describe_projection)
    tracer.wrap(lib.features, "kernel_estimates", "features.kernel_estimates", _describe_estimates)
    tracer.wrap(lib.features, "kernel_variance_empirical", "features.kernel_variance_empirical")
    tracer.wrap(lib.enla, "sample_projection", "features.sample_projection", _describe_projection)
    tracer.wrap(lib.enla, "phi", "features.phi", _describe_phi)
    tracer.wrap(lib.enla, "normalize_and_scale", "enla.normalize_and_scale")
    tracer.wrap(lib.enla, "enla_forward", "enla.enla_forward", _describe_forward)
    tracer.wrap(lib.analysis, "gaussian_sample", "matrices.gaussian_sample")
    tracer.wrap(lib.analysis, "normalize_and_scale", "enla.normalize_and_scale")
    tracer.wrap(lib.analysis, "exact_attention", "exact.exact_attention", _describe_exact)
    tracer.wrap(lib.analysis, "enla_forward", "enla.enla_forward", _describe_forward)
    tracer.wrap(lib.analysis, "approximation_error_sweep", "analysis.approximation_error_sweep")
    if hasattr(lib, "cli"):
        tracer.wrap(lib.cli, "read_matrix_csv", "matrices.read_matrix_csv", _describe_read)
        tracer.wrap(lib.cli, "write_matrix_csv", "matrices.write_matrix_csv", _describe_write)
        tracer.wrap(lib.cli, "enla_forward", "enla.enla_forward", _describe_forward)
        tracer.wrap(lib.cli, "main", "cli.main")
