"""The library surface that the benchmark harness in perfbench/ reaches.

perfbench/spans.py wraps library functions by module and name, and the
workloads build their forward settings by keyword. A rename or deletion
there would make every benchmark operation fail; these tests make it fail
here instead. They only read perfbench/.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from enlca import analysis, cli, enla, exact, features, matrices

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lib():
    return SimpleNamespace(matrices=matrices, features=features, enla=enla, exact=exact,
                           analysis=analysis, cli=cli)


def test_install_wraps_every_name_and_uninstall_restores(spans):
    tracer = spans.Tracer()
    try:
        spans.install(tracer, _lib())
        wrapped = list(tracer._undo)
    finally:
        tracer.uninstall()
    assert len(wrapped) == 21
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_traced_sweep_records_layer_spans(spans):
    tracer = spans.Tracer()
    try:
        spans.install(tracer, _lib())
        tracer.active = True
        analysis.approximation_error_sweep(32, 4, 3, [4, 8], 1.0, 2, matrices.RngSpec(5))
    finally:
        tracer.active = False
        tracer.uninstall()
    summary = spans.summarize(tracer.take())
    # one projection per trial serves both sample counts, through the
    # prefix forwards rather than enla_forward
    assert "enla.enla_forward" not in summary
    assert summary["exact.exact_attention"]["calls"] == 1
    assert summary["features.sample_projection"]["calls"] == 2
    assert summary["analysis.approximation_error_sweep"]["calls"] == 1


def test_workload_config_keywords():
    # perfbench/workloads.py builds every forward setting this way
    config = enla.EnlaConfig(rng=matrices.RngSpec(3).stream(100), m=16, k_amp=1.0)
    q, k = enla.normalize_and_scale(matrices.gaussian_sample(matrices.RngSpec(1), 4, 10),
                                    matrices.gaussian_sample(matrices.RngSpec(2), 4, 10), 1.0)
    y = enla.enla_forward(q, k, np.ones((2, 10)), config)
    assert np.allclose(y, 1.0)
