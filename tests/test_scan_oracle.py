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
from hypothesis import example, given, settings, strategies as st

from catspin.dicke import apply_pulses, dark_pulse, rotate_pulse, squeeze_pulse
from catspin.observables import _Scanner, _sensitivity
from catspin.protocols import Detection, ProtocolParams, ProtocolSpec, builtin, compile_protocol
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
    for mu, got in zip(mus, scanner.scan(list(mus))):
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


# "incommensurate" is unfolded with a second dark zone of phase fraction
# 1/pi, no multiple of any 1/q: no finite grid samples its fringe exactly
@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 64),
       pid=st.sampled_from(["crain", "scain", "cac", "cosac", "scac", "unfolded",
                            "incommensurate"]),
       ara=st.sampled_from(["x", "y"]), xi=st.sampled_from([1, -1]),
       det=st.sampled_from(["cd", "csd"]), index=st.integers(0, 64),
       mu=st.floats(0.0, math.pi / 2), seed=st.integers(0, 2**32 - 1))
@example(n=5, pid="incommensurate", ara="x", xi=1, det="cd", index=0, mu=0.3, seed=1)
@example(n=40, pid="incommensurate", ara="x", xi=1, det="csd", index=0, mu=0.3, seed=2)
@example(n=64, pid="incommensurate", ara="x", xi=1, det="cd", index=0, mu=0.3, seed=3)
def test_engine_matches_the_oracle_for_any_spec(n, pid, ara, xi, det, index, mu, seed):
    ops = cached_ops(n)
    detection = Detection(det, index=index % (n + 1) if det == "csd" else None)
    if pid in ("unfolded", "incommensurate"):
        spec = unfolded(detection, 0.25 if pid == "unfolded" else 1 / math.pi)
    else:
        spec = builtin(pid, ProtocolParams(ara=ara, xi=xi, detection=detection))
    assert_matches_oracle(spec, ops, seeded_phis(seed, 3), (mu,))


def test_evaluated_csd_points_need_no_recompute():
    # direct evaluation sums 1 - p from the other populations at every
    # point, so neither the rounding band nor the CSD sum path recomputes
    # one, also where 1 - p < 1e-4
    rng = np.random.default_rng(0)
    near = 0
    for _ in range(100):
        n = int(rng.integers(1, 65))
        ops = cached_ops(n)
        spec = unfolded(Detection("csd", index=int(rng.integers(0, n + 1))))
        scanner = _Scanner(spec, ops.dims, ops, seeded_phis(int(rng.integers(2**32)), 3))
        ((signal, _, _),) = scanner.scan([None])
        assert scanner.health == {"rounding_band_points": 0, "csd_sum_points": 0}, spec
        near += np.count_nonzero(1.0 - signal < 1e-4)
    assert near > 0  # points of the CSD sum band were scanned


def random_middle(rng, detection):
    """One dark zone between random runs of pulses.  After it come pi
    rotations (which flip J_z), x, y and z rotations and squeezes, then an x
    or y rotation, which ends the middle, a squeeze and the closing x pi/2
    pulse, which are the tail."""
    def pulse():
        kind = rng.integers(4)
        if kind == 0:
            return rotate_pulse("xy"[rng.integers(2)], float(rng.choice([np.pi, -np.pi])))
        if kind == 1:
            return rotate_pulse("xyz"[rng.integers(3)], rng.uniform(-3.0, 3.0))
        if kind == 2:
            return squeeze_pulse(rng.uniform(0.0, 2.0), int(rng.choice([1, -1])))
        return rotate_pulse("y", float(rng.choice([0.5, -0.5]) * np.pi))

    before = [pulse() for _ in range(rng.integers(0, 3))]
    after = [pulse() for _ in range(rng.integers(0, 4))]
    pulses = (rotate_pulse("x", np.pi / 2), *before, dark_pulse(1.0, int(rng.choice([1, -1]))),
              *after, rotate_pulse("xy"[rng.integers(2)], rng.uniform(-3.0, 3.0)),
              squeeze_pulse(rng.uniform(0.0, 2.0), 1), rotate_pulse("x", np.pi / 2))
    return ProtocolSpec("random-middle", pulses, detection)


def test_engine_matches_the_oracle_through_any_middle():
    # the CD rows come from one x rotation: a last y rotation is turned into
    # x between z rotations, and leading pi rotations and diagonals move
    # before the dark zone; about half the middles are still longer and go
    # through direct evaluation
    rng = np.random.default_rng(11)
    for _ in range(120):
        n = int(rng.integers(1, 65))
        ops = cached_ops(n)
        det = ("cd", "csd")[int(rng.integers(2))]
        spec = random_middle(rng, Detection(det, index=int(rng.integers(0, n + 1))
                                            if det == "csd" else None))
        assert len(compile_protocol(spec, ops.dims, ops).segments) == 1
        assert_matches_oracle(spec, ops, seeded_phis(int(rng.integers(2**32)), 3),
                              (rng.uniform(0.0, np.pi / 2),))


def _alone_and_batched(values_at, points):
    """max |values_at(points) - values_at(each point alone)|"""
    batched = values_at(points)
    alone = np.stack([values_at(points[i : i + 1])[..., 0] for i in range(len(points))], axis=-1)
    return np.max(np.abs(batched - alone))


# |a point in a batch - the same point alone|: CompiledProtocol.evaluate's
# amplitudes and the rounding band's recomputed variance over N^2, the
# maxima measured over the seeds below (2.5e-16 and 2.5e-18, 14 of 49
# band blocks moved) with a margin of about 3
EVALUATE_BATCH_TOL, BAND_BATCH_TOL = 7.5e-16, 7.5e-18


def test_a_point_moves_with_its_batch_only_at_rounding_level(monkeypatch):
    # apply_pulses rounds a column differently with the columns beside it,
    # so evaluate and the rounding band's recompute do; bound that
    rng = np.random.default_rng(5)
    evaluate = band = 0.0
    calls = []
    blockwise = _Scanner._blockwise

    def spy(self, out, where, values_at, count):
        if count == "rounding_band_points" and where.size > 1:
            calls.append((values_at, self.phis[where], self.dims.n_atoms))
        return blockwise(self, out, where, values_at, count)

    monkeypatch.setattr(_Scanner, "_blockwise", spy)
    for _ in range(60):
        n = int(rng.integers(1, 65))
        ops = cached_ops(n)
        mu = rng.uniform(0.0, np.pi / 2)
        spec = random_middle(rng, Detection("cd"))
        phis = np.sort(rng.uniform(-np.pi, np.pi, 5))
        kernel = compile_protocol(spec, ops.dims, ops)
        evaluate = max(evaluate, _alone_and_batched(lambda p: kernel.evaluate(p, mu)[0], phis))
        # built-ins meet the rounding band near phi = 0
        spec = builtin(("crain", "scain", "scac")[rng.integers(3)],
                       ProtocolParams(ara="xy"[rng.integers(2)], xi=int(rng.choice([1, -1]))))
        list(_Scanner(spec, ops.dims, ops, seeded_phis(int(rng.integers(2**32)), 6)).scan([mu]))
    for values_at, points, n in calls:
        band = max(band, _alone_and_batched(values_at, points) / n**2)
    assert len(calls) > 10
    assert evaluate <= EVALUATE_BATCH_TOL
    assert band <= BAND_BATCH_TOL
