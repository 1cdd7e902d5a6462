"""A disposed backend dies by refcount.

``Backend.run`` keeps the cyclic collector off for the duration of a run
and relies on ``dispose()`` cutting every back-edge of the run graph
(component -> system, control plane -> system, shard hooks, detector,
injector shims), so that dropping the backend frees caches, frames and
directories immediately. A leftover cycle is invisible to every other test:
it only shows as garbage for the next ``gc.collect()`` to chase -- 865k
objects per smoke pass before the last edges were cut.
"""

import gc

import pytest

from repro.core import SamhitaConfig
from repro.experiments.harness import run_workload_direct
from repro.faults import latency_storm
from repro.kernels import JacobiParams, spawn_jacobi

PARAMS = JacobiParams(rows=512, cols=1024, iterations=2)


@pytest.mark.parametrize("config, functional", [
    (None, False),
    (SamhitaConfig.sharded_control_plane(4), True),
    (SamhitaConfig.grayfail(), True),
    # With a fault plan armed: injector shims, detector, deadlock hooks.
    (SamhitaConfig.grayfail(faults=latency_storm(11)), True),
], ids=["default", "sharded", "grayfail", "grayfail-storm"])
def test_disposed_run_leaves_no_cyclic_garbage(config, functional):
    gc.collect()
    gc.disable()  # nothing may be collected before it is counted
    try:
        result = run_workload_direct("samhita", 16, spawn_jacobi, PARAMS,
                                     functional=functional, config=config)
        del result
        unreachable = gc.collect()
    finally:
        gc.enable()
    # What remains is a few closures.
    assert unreachable < 1000
