"""The library surface that the benchmark harness in perfbench/ reaches.

perfbench/spans.py wraps library functions by module and name, describes
each call by reading attributes of its arguments and result, and the
workloads build their forward settings by keyword. A rename or deletion
there would make every benchmark operation fail; these tests make it fail
here instead, with one traced call per span description. They only read
perfbench/.
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


def _traced(spans, call):
    """The span summary of one call made with every wrapper installed."""
    tracer = spans.Tracer()
    try:
        spans.install(tracer, _lib())
        tracer.active = True
        call()
    finally:
        tracer.active = False
        tracer.uninstall()
    return spans.summarize(tracer.take())


def _facts(entry):
    """The facts each described call recorded, without its duration."""
    return [{key: value for key, value in info.items() if key != "s"} for info in entry["infos"]]


def test_traced_sweep_records_layer_spans(spans):
    summary = _traced(spans, lambda: analysis.approximation_error_sweep(
        32, 4, 3, [4, 8], 1.0, 2, matrices.RngSpec(5)))
    # one projection per trial serves both sample counts, through the
    # prefix forwards rather than enla_forward
    assert "enla.enla_forward" not in summary
    assert summary["exact.exact_attention"]["calls"] == 1
    # the trials' projections come from features._projection_blocks
    assert "features.sample_projection" not in summary
    assert summary["analysis.approximation_error_sweep"]["calls"] == 1


def test_traced_phi_records_its_projection(spans):
    projection = features.sample_projection(matrices.RngSpec(1), 6, 3)
    summary = _traced(spans, lambda: enla.phi(projection, np.ones((3, 5))))
    assert _facts(summary["features.phi"]) == [{"m": 6, "c": 3, "n": 5}]


def test_traced_forward_records_its_config(spans):
    q, k = enla.normalize_and_scale(matrices.gaussian_sample(matrices.RngSpec(1), 4, 10),
                                    matrices.gaussian_sample(matrices.RngSpec(2), 4, 10), 1.0)
    config = enla.EnlaConfig(rng=matrices.RngSpec(3), m=8, k_amp=1.0, orthogonal=True)
    summary = _traced(spans, lambda: enla.enla_forward(q, k, np.ones((2, 10)), config))
    assert _facts(summary["enla.enla_forward"]) == [{"c": 4, "n": 10, "c_out": 2, "m": 8}]
    assert _facts(summary["features.sample_projection"]) == [{"orthogonal": True}]


def test_traced_variance_records_its_trials(spans):
    u = np.array([0.5, 0.0, 0.0])
    summary = _traced(spans, lambda: features.kernel_variance_empirical(u, u, 4, 5, matrices.RngSpec(2)))
    assert summary["features.kernel_variance_empirical"]["calls"] == 1
    assert _facts(summary["features.kernel_estimates"]) == [{"trials": 5}]


def test_traced_cli_records_file_bytes(spans, tmp_path):
    paths = {}
    for name, stream, rows in (("q", 1, 3), ("k", 2, 3), ("v", 3, 2)):
        paths[name] = tmp_path / f"{name}.csv"
        matrices.write_matrix_csv(0.5 * matrices.gaussian_sample(matrices.RngSpec(stream), rows, 7),
                                  paths[name])
    out = tmp_path / "y.csv"
    summary = _traced(spans, lambda: cli.main(["enla", "--q", str(paths["q"]), "--k", str(paths["k"]),
                                               "--v", str(paths["v"]), "--m", "4", "--out", str(out)]))
    assert summary["cli.main"]["calls"] == 1
    assert _facts(summary["matrices.read_matrix_csv"]) == [
        {"bytes": paths[name].stat().st_size} for name in "qkv"]
    assert _facts(summary["matrices.write_matrix_csv"]) == [{"bytes": out.stat().st_size}]
    assert _facts(summary["enla.enla_forward"]) == [{"c": 3, "n": 7, "c_out": 2, "m": 4}]


def test_workload_config_keywords():
    # perfbench/workloads.py builds every forward setting this way
    config = enla.EnlaConfig(rng=matrices.RngSpec(3).stream(100), m=16, k_amp=1.0)
    q, k = enla.normalize_and_scale(matrices.gaussian_sample(matrices.RngSpec(1), 4, 10),
                                    matrices.gaussian_sample(matrices.RngSpec(2), 4, 10), 1.0)
    y = enla.enla_forward(q, k, np.ones((2, 10)), config)
    assert np.allclose(y, 1.0)


def test_warning_class_the_harness_counts():
    # perfbench/layers.py and perfbench/cli_child.py count this warning
    # around each operation; the forward no longer raises it
    assert issubclass(enla.NormalizerUnderflowWarning, RuntimeWarning)
