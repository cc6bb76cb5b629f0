"""The benchmark in perfbench/ wraps package functions by name; these checks
fail when a change to the package removes or renames what it wraps, which
would otherwise only drop metrics from a traced benchmark result."""

import inspect
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def worker():
    sys.path.insert(0, PERFBENCH)
    try:
        import worker
        yield worker
    finally:
        sys.path.remove(PERFBENCH)


def test_every_hook_and_metric_resolves(worker):
    from tracer import Tracer

    tracer = Tracer(worker.LAYER_HOOKS)
    try:
        tracer.install()
        assert tracer.absent == []
        wrapped = set(zip(tracer.names, tracer.homes))
        for name, _unit, _reduce, home, via in worker.SPAN_METRICS:
            attr = home.rsplit(".", 1)[1]
            assert any(h == home and (via is None or n == f"{via}.{attr}")
                       for n, h in wrapped), name
    finally:
        tracer.uninstall()


def test_tallied_parameters(worker):
    # the hook tallies read these arguments by name
    from ginibre_overlaps import ensemble, mc_harness

    assert {"spec", "count"} <= set(inspect.signature(ensemble.sample_ginibre_batch).parameters)
    assert "spec" in inspect.signature(mc_harness.run_campaign).parameters
