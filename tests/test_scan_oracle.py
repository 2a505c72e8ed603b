"""The scan engine against an oracle that shares only apply_pulses with it.

The oracle runs a protocol's own pulses, unfolded, from |E_0> at every phi
and carries the exact phase derivative along by the product rule: a dark
zone D(phi) = exp(-i s f phi J_z) turns (psi, dpsi) into
(D psi, D dpsi - i s f J_z D psi), and every other pulse acts on both.
Summed over the dark zones this is
    dpsi/dphi = sum_i U_after_i (-i s_i f_i J_z) D_i U_before_i |E_0>,
so dS/dphi = 2 Re <psi| J_z |dpsi> under conventional detection and
2 Re(conj(psi_idx) dpsi_idx) under collective-state detection.  The
variance is centred, and 1 - p is the sum of the other populations.

Tolerances are the maxima measured over the grids below (N = 1000/1001)
and 600 random specs at N <= 64, with a margin of about 3.  Away from the
rounding band the SDS is the root of an interpolated variance whose
absolute error is a few ulp of N^2, so it is the variance that is bounded
there; inside the band (SDS < 1e-6 N) the SDS itself is.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catspin.dicke import apply_pulses
from catspin.observables import _Scanner, _sensitivity
from catspin.protocols import Detection, ProtocolParams, builtin
from conftest import cached_ops, unfolded

# |engine - oracle|: signal over N, variance and dS/dphi over N^2, SDS over
# N where the oracle's SDS is defined and in the rounding band; CSD
# population and variance absolutely, and the SDS where 1 - p < 1e-4 (the
# sum path)
SIGNAL_TOL, VAR_TOL, PGS_TOL, BAND_TOL = 5e-14, 2.5e-14, 4e-14, 1e-15
CSD_TOL, CSD_SUM_TOL = 1.5e-13, 1e-15


def oracle(spec, ops, phis, mu=None):
    """signal, SDS and dS/dphi at each phi from the unfolded pulses."""
    m, dim, k = ops.m, ops.dims.dim, len(phis)
    state = np.zeros((dim, 2 * k), dtype=complex)  # psi | dpsi/dphi
    state[0, :k] = 1.0
    for pulse in spec.pulses:
        if pulse.kind == "dark_phase":
            rate = pulse.sign * pulse.fraction
            turn = np.tile(np.exp(-1j * rate * np.outer(m, phis)), 2)
            state *= turn
            state[:, k:] += (-1j * rate) * m[:, None] * state[:, :k]
        else:
            state = apply_pulses(ops, (pulse,), state, mu=mu)
    psi, dpsi = state[:, :k], state[:, k:]
    pops = np.abs(psi) ** 2
    if spec.detection.kind == "csd":
        idx = spec.detection.index % dim
        p = pops[idx]
        rest = np.delete(pops, idx, axis=0).sum(axis=0)
        return p, np.sqrt(p * rest), 2.0 * np.real(psi[idx].conj() * dpsi[idx])
    mean = m @ pops
    var = np.einsum("ij,ij->j", (m[:, None] - mean) ** 2, pops)
    signal = mean + (ops.dims.j if spec.detection.add_j else 0.0)
    return signal, np.sqrt(var), 2.0 * np.real(np.einsum("ij,ij->j", psi.conj(), m[:, None] * dpsi))


def seeded_phis(seed: int, count: int = 6) -> np.ndarray:
    """count points over (-pi, pi) and count at |phi| from 1e-9 to 1e-2,
    where the SDS falls into the rounding band and 1 - p below 1e-4."""
    rng = np.random.default_rng(seed)
    near = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-9, -2, count)
    return np.sort(np.concatenate([rng.uniform(-np.pi, np.pi, count), near]))


def assert_matches_oracle(spec, ops, phis, mus):
    """The engine's columns against the oracle's at every mu of mus."""
    n = ops.dims.n_atoms
    scanner = _Scanner(spec, ops.dims, ops, phis)
    for mu in mus:
        got = scanner.arrays(mu)
        want = oracle(spec, ops, phis, mu)
        error = np.abs(got[0] - want[0]), np.abs(got[1] - want[1]), np.abs(got[2] - want[2])
        if spec.detection.kind == "csd":
            assert np.max(error[0]) <= CSD_TOL, (spec, mu)
            assert np.max(np.abs(got[1] ** 2 - want[1] ** 2)) <= CSD_TOL, (spec, mu)
            assert np.all(error[1][1.0 - want[0] < 1e-4] <= CSD_SUM_TOL), (spec, mu)
        else:
            assert np.max(error[0]) <= SIGNAL_TOL * n, (spec, mu)
            assert np.max(np.abs(got[1] ** 2 - want[1] ** 2)) <= VAR_TOL * n**2, (spec, mu)
            # the band's defined points; below the noise floor the SDS of a
            # Dicke state is rounding noise of order N^1.5 ulp on both sides
            band = (want[1] < 1e-6 * n) & (want[1] >= 1e-9 * n)
            assert np.all(error[1][band] <= BAND_TOL * n), (spec, mu)
        assert np.max(error[2]) <= PGS_TOL * n**2, (spec, mu)
        # Lambda is defined at the same points, away from the noise floor
        clear = np.abs(want[1] / (1e-9 * n) - 1.0) > 1e-3
        assert np.array_equal(np.isnan(_sensitivity(got[1], got[2], n))[clear],
                              np.isnan(_sensitivity(want[1], want[2], n))[clear])
    return scanner.health


def specs(pids=("crain", "scain", "scac")):
    for pid in pids:
        squeezed = pid in ("scain", "scac")
        for ara in ("x", "y") if squeezed else ("x",):
            for xi in (1, -1) if squeezed else (-1,):
                for det in ("cd", "csd"):
                    yield squeezed, builtin(pid, ProtocolParams(ara=ara, xi=xi,
                                                                detection=Detection(det)))


def test_oracle_meets_the_scain_laws():
    # CD signal -(N/2) cos(N phi), its gradient and CSD cos^2(N phi/2) at mu = pi/2
    ops = cached_ops(40)
    phis = seeded_phis(1)
    signal, sds, pgs = oracle(builtin("scain"), ops, phis)
    assert np.allclose(signal, -20 * np.cos(40 * phis), atol=1e-12)
    assert np.allclose(pgs, 800 * np.sin(40 * phis), atol=1e-10)
    p = oracle(builtin("scain", ProtocolParams(detection=Detection("csd"))), ops, phis)[0]
    assert np.allclose(p, np.cos(20 * phis) ** 2, atol=1e-13)


@pytest.mark.slow
@pytest.mark.parametrize("n", [1000, 1001])
def test_engine_matches_the_oracle_at_large_n(n):
    ops = cached_ops(n)
    band = csd_sum = 0
    for i, (squeezed, spec) in enumerate(specs()):
        health = assert_matches_oracle(spec, ops, seeded_phis(n + i),
                                       (0.021 * np.pi, 0.3, 1.1) if squeezed else (None,))
        band += health["rounding_band_points"]
        csd_sum += health["csd_sum_points"]
    assert band > 0 and csd_sum > 0  # both recompute paths were checked


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 64),
       pid=st.sampled_from(["crain", "scain", "cac", "cosac", "scac", "unfolded"]),
       ara=st.sampled_from(["x", "y"]), xi=st.sampled_from([1, -1]),
       det=st.sampled_from(["cd", "csd"]), index=st.integers(0, 64),
       mu=st.floats(0.0, math.pi / 2), seed=st.integers(0, 2**32 - 1))
def test_engine_matches_the_oracle_for_any_spec(n, pid, ara, xi, det, index, mu, seed):
    ops = cached_ops(n)
    detection = Detection(det, index=index % (n + 1) if det == "csd" else None)
    spec = (unfolded(detection) if pid == "unfolded"
            else builtin(pid, ProtocolParams(ara=ara, xi=xi, detection=detection)))
    assert_matches_oracle(spec, ops, seeded_phis(seed, 3), (mu,))


def test_each_sampled_csd_point_is_recomputed_once(monkeypatch):
    # a point both in the rounding band and where 1 - p < 1e-4 is recomputed
    # by one pass and counted by one of the two health counts
    calls = []
    blockwise = _Scanner._blockwise

    def spy(self, out, where, values_at, count):
        calls.append((count, where.tolist()))
        return blockwise(self, out, where, values_at, count)

    monkeypatch.setattr(_Scanner, "_blockwise", spy)
    rng = np.random.default_rng(0)
    both = 0
    for _ in range(100):
        n = int(rng.integers(1, 65))
        ops = cached_ops(n)
        spec = unfolded(Detection("csd", index=int(rng.integers(0, n + 1))))
        scanner = _Scanner(spec, ops.dims, ops, seeded_phis(int(rng.integers(2**32)), 3))
        calls.clear()
        signal, _, _ = scanner.arrays(None)
        points = [i for _, where in calls for i in where]
        assert len(points) == len(set(points)), spec
        assert sum(scanner.health.values()) == len(points)  # the two counts are disjoint
        band = [i for count, where in calls if count == "rounding_band_points" for i in where]
        both += np.count_nonzero(1.0 - signal[band] < 1e-4)
    assert both > 0  # the overlap was exercised
