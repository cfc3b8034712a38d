"""The functions the benchmark traces must stay where its tracer looks.

perfbench/tracer.py wraps named functions from outside the program and
reads counters off their arguments and results.  A renamed function or a
changed signature makes its per-layer metrics null, so both are checked
here against the tracer's own tables, loaded read-only from the checkout.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_callable(tracer):
    for label, module_name, attr in tracer.TARGETS:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{label}: {module_name}.{attr} is gone"


def test_every_probe_reads_a_real_call(tracer, tmp_path):
    import airfl.aircomp as aircomp
    import airfl.channel as channel
    import airfl.harness as harness
    import airfl.optimizer as optimizer

    power = aircomp.PowerConfig(p_max=0.1, sigma2=1e-7, g_bound=1.0, d_max_alpha=1.0)
    model = channel.EstimationModel(rho=0.8, alpha=2.2)
    gen = channel.substream(1, 2)
    # draw_channel draws through draw_channel_block, so its draws come
    # before tracing, which counts one call of each probed function
    draws = [channel.draw_channel(model, 50.0, gen) for _ in range(3)]
    tr = tracer.Tracer()
    with tr:
        # calls go through the module attributes, which the tracer patched
        aircomp.aggregate([np.ones(2)] * 3, draws, 0.5, 0.8, power, gen)
        channel.draw_channel_block(model, 8, gen)
        optimizer.optimal_threshold(optimizer.coefficients_from_system(0.8, power))
        harness.write_csv(tmp_path / "t.csv", ("a", "a_se"), [(1.0, 0.1)])
    assert not tr.absent
    assert not tr.broken_probes
    for label in tracer.PROBES:
        assert tr.stats[label][0] == 1, f"{label} was not traced"
    values = tr.counter_values()
    assert values and all(v is not None for v in values.values()), values
