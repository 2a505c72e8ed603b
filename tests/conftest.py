import functools
import os
import tracemalloc

import numpy as np
import pytest

from catspin.dicke import EnsembleDims, build_operator_set, dark_pulse, rotate_pulse
from catspin.protocols import Detection, ProtocolSpec


@functools.lru_cache(maxsize=16)
def cached_ops(n_atoms: int):
    return build_operator_set(EnsembleDims(n_atoms))


def unfolded(detection=Detection("cd"), fraction=0.25):
    """Two dark zones that no echo folds, the second of the given phase
    fraction: the path that evaluates every phi directly."""
    return ProtocolSpec(
        "unfolded",
        (rotate_pulse("x", np.pi / 2), dark_pulse(0.5, 1), rotate_pulse("y", 1.0),
         dark_pulse(fraction, -1), rotate_pulse("x", np.pi / 2)),
        detection,
    )


@pytest.fixture(scope="session")
def ops40():
    return cached_ops(40)


@pytest.fixture(scope="session")
def ops41():
    return cached_ops(41)


@pytest.fixture(scope="session")
def dims40(ops40):
    return ops40.dims


@pytest.fixture(scope="session")
def dims41(ops41):
    return ops41.dims


@pytest.fixture
def many_cpus(monkeypatch):
    """64 CPUs in the affinity mask, so that explicit pools of 3 and 4
    workers run on any machine (pool_size caps a request at the CPUs)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)


def traced_peak_mib(fn):
    """fn()'s result and the peak, in MiB, of the memory it allocated while
    tracemalloc traced it; what was allocated before does not count."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20
