"""Invariant checks driven by hypothesis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catspin.cavity import MomentSet, decay_moments
from catspin.dicke import (
    SpinState,
    apply_pulse,
    apply_rotation,
    css_state,
    dark_pulse,
    rotate_pulse,
    squeeze_pulse,
)
from catspin.observables import (
    expect_jz,
    parity_average,
)

from conftest import cached_ops, total_spin_expectation

angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
axes = st.sampled_from(["x", "y", "z"])
small_n = st.sampled_from([2, 3, 8, 17, 40])

pulse_strategy = st.one_of(
    st.builds(rotate_pulse, axes, angles),
    st.builds(squeeze_pulse, st.floats(0, math.pi / 2), st.sampled_from([1, -1])),
    st.builds(dark_pulse, st.floats(0.01, 1.0), st.sampled_from([1, -1])),
)


@settings(max_examples=40, deadline=None)
@given(n=small_n, pulses=st.lists(pulse_strategy, min_size=1, max_size=6),
       phi=angles)
def test_pulse_sequences_preserve_norm_and_total_spin(n, pulses, phi):
    ops = cached_ops(n)
    state = css_state(ops.dims, 0.7, 0.3)
    for pulse in pulses:
        state = apply_pulse(state, ops, pulse, phi)
    assert abs(state.norm() - 1.0) < 1e-12
    j = ops.dims.j
    assert abs(total_spin_expectation(state, ops) - j * (j + 1)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(n=small_n, axis=axes, alpha=angles, beta=angles)
def test_rotations_compose(n, axis, alpha, beta):
    ops = cached_ops(n)
    state = css_state(ops.dims, 1.1, 0.8)
    stepped = apply_rotation(apply_rotation(state, ops, axis, alpha), ops, axis, beta)
    direct = apply_rotation(state, ops, axis, alpha + beta)
    assert np.max(np.abs(stepped.amps - direct.amps)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(n=small_n, mu=st.floats(0, math.pi / 2), theta=st.floats(0.01, 3.1),
       phi=st.floats(0, 6.2))
def test_squeeze_inverts(n, mu, theta, phi):
    ops = cached_ops(n)
    state = css_state(ops.dims, theta, phi)
    squeezed = apply_pulse(state, ops, squeeze_pulse(mu, -1), 0.0)
    back = apply_pulse(squeezed, ops, squeeze_pulse(mu, +1), 0.0)
    assert np.max(np.abs(back.amps - state.amps)) < 1e-13


@settings(max_examples=30, deadline=None)
@given(n=small_n, data=st.data())
def test_down_count_identity(n, data):
    # <j - J_z> as a weighted sum of collective-state populations
    ops = cached_ops(n)
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    state = SpinState(ops.dims, amps / np.linalg.norm(amps))
    pops = state.populations()
    j = ops.dims.j
    weighted = sum((j - m) * pops[k] for k, m in enumerate(ops.dims.m_values()))
    assert j - expect_jz(state) == pytest.approx(weighted, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(even=st.floats(0, 1e6), odd=st.floats(0, 1e6))
def test_parity_average_bounds(even, odd):
    avg = parity_average(even, odd)
    assert min(even, odd) - 1e-9 <= avg <= max(even, odd) + 1e-9
    assert avg >= abs(even) / math.sqrt(2) - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    jy=st.floats(-50, 50), jx2=st.floats(0, 2500), jy2=st.floats(0, 2500),
    jz=st.floats(-50, 50), jz2=st.floats(0, 2500),
    gamma=st.floats(0, 10), t1=st.floats(0, 2), t2=st.floats(0, 2),
)
def test_moment_decay_semigroup_and_conservation(jy, jx2, jy2, jz, jz2, gamma, t1, t2):
    start = MomentSet(jy_mean=jy, jx_sq=jx2, jy_sq=jy2, jz_mean=jz, jz_sq=jz2)
    stepped = decay_moments(decay_moments(start, gamma, t1), gamma, t2)
    direct = decay_moments(start, gamma, t1 + t2)
    assert stepped.jy_mean == pytest.approx(direct.jy_mean, rel=1e-9, abs=1e-9)
    assert stepped.jx_sq == pytest.approx(direct.jx_sq, rel=1e-9, abs=1e-9)
    assert stepped.jx_sq + stepped.jy_sq == pytest.approx(jx2 + jy2, rel=1e-12, abs=1e-12)
    assert stepped.jz_mean == jz and stepped.jz_sq == jz2


@settings(max_examples=40, deadline=None)
@given(n=small_n, theta=st.floats(0, math.pi), phi=st.floats(0, 6.28))
def test_css_normalized(n, theta, phi):
    ops = cached_ops(n)
    assert css_state(ops.dims, theta, phi).norm() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(n=small_n, phase=angles, sign=st.sampled_from([1, -1]))
def test_dark_phase_preserves_populations(n, phase, sign):
    ops = cached_ops(n)
    state = css_state(ops.dims, 1.0, 0.5)
    out = apply_pulse(state, ops, dark_pulse(1.0, sign), phase)
    assert np.max(np.abs(out.populations() - state.populations())) < 1e-14
