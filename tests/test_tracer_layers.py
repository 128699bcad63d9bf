"""The functions the benchmark's tracer wraps by name must exist in mmk."""

import importlib
import importlib.util
import os

from mmk import lp_core

TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracer.py")


def test_every_traced_layer_resolves():
    # The tracer skips a missing function, so a rename would silently drop
    # that layer's per-layer metrics from every traced benchmark run.
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, home, attr, _ in tracer.LAYERS + tracer.CLI_CHILD_LAYERS:
        assert callable(getattr(importlib.import_module(home), attr, None)), (layer, home, attr)
    # The lp_core.solve wrapper counts nonzeros through this method.
    assert callable(lp_core.LPProblem.nonzeros)
