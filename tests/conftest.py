import functools
import json
import os
import tracemalloc

import numpy as np
import pytest

from catspin import observables
from catspin.dicke import EnsembleDims, build_operator_set, dark_pulse, rotate_pulse
from catspin.protocols import Detection, ProtocolSpec, builtin


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


def slab_rows(monkeypatch, n_atoms: int, rows: int):
    """Slabs of `rows` rows for the built-in CD scans at N = n_atoms: the slab
    budget is rows times the sample count that the scanner takes there (all
    built-ins meet the tail rule, so they share it)."""
    ops = cached_ops(n_atoms)
    samples = observables._Scanner(builtin("scain"), ops.dims, ops, [0.0]).samples
    monkeypatch.setattr(observables, "_SLAB_ELEMENTS", rows * samples)


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


def sym_vectors(ops):
    """The symmetric J_x eigenvectors of ops, (N // 2 + 1, N // 4 + 1):
    lambda = j, j - 2, ... >= 0."""
    half = ops.dims.n_atoms // 2
    return ops.vectors[0, : half + 1, : (half + 2) // 2]


def anti_vectors(ops):
    """The antisymmetric ones, ((N + 1) // 2, (N // 2 + 1) // 2):
    lambda = j - 1, j - 3, ... >= 0."""
    half = ops.dims.n_atoms // 2
    return ops.vectors[1, : ops.dims.n_atoms - half, : (half + 1) // 2]


def total_spin_expectation(state, ops):
    """<J_x^2 + J_y^2 + J_z^2>; equals j(j+1) on the symmetric subspace."""
    return float(sum(np.linalg.norm(ops.apply_generator(axis, state.amps)) ** 2
                     for axis in "xyz"))


def read_field_raw(path):
    """A raw Husimi field and its sidecar, read back."""
    with open(str(path) + ".json") as fh:
        meta = json.load(fh)
    values = np.fromfile(path, dtype="<f8").reshape(meta["n_theta"], meta["n_phi"])
    return values, meta
