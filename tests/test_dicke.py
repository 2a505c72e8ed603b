import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, expm

import catspin.dicke as dicke
from catspin.dicke import (
    DimensionError,
    EnsembleDims,
    N_ATOMS_CAP,
    SpinState,
    apply_pulse,
    apply_pulses,
    apply_rotation,
    basis_state,
    build_operator_set,
    check_phase,
    css_state,
    dark_pulse,
    pulse_diagonal,
    rotate,
    rotate_pulse,
    rotation_rows,
    squeeze_pulse,
)

from conftest import anti_vectors, cached_ops, sym_vectors, total_spin_expectation, traced_peak_mib


class TestEnsembleDims:
    def test_derived_quantities(self):
        dims = EnsembleDims(41)
        assert dims.j == 20.5
        assert dims.dim == 42
        assert dims.m_values()[0] == -20.5
        assert dims.m_values()[-1] == 20.5

    def test_rejects_bad_sizes(self):
        with pytest.raises(DimensionError):
            EnsembleDims(0)
        with pytest.raises(DimensionError):
            EnsembleDims(N_ATOMS_CAP + 1)
        with pytest.raises(DimensionError):
            EnsembleDims(2.5)


class TestInputChecks:
    @pytest.mark.parametrize("make, error, match", [
        (lambda ops: rotate_pulse("x", math.inf), ValueError, "angle must be finite"),
        (lambda ops: squeeze_pulse(math.nan, 1), ValueError, "strength must be finite"),
        (lambda ops: squeeze_pulse(1.0, 0), ValueError, "squeeze sign"),
        (lambda ops: dark_pulse(0.0, 1), ValueError, "fraction must be in"),
        (lambda ops: dark_pulse(1.0, 0), ValueError, "dark-zone sign"),
        (lambda ops: pulse_diagonal(ops, rotate_pulse("x", 0.3), 0.0), ValueError,
         "not a diagonal pulse"),
        (lambda ops: basis_state(ops.dims, 41), DimensionError, "basis index 41"),
        (lambda ops: SpinState(ops.dims, np.zeros(40)), DimensionError, r"expected \(41,\)"),
    ], ids=["rotate-angle", "squeeze-mu", "squeeze-sign", "dark-fraction", "dark-sign",
            "x-diagonal", "basis-index", "state-length"])
    def test_rejects(self, ops40, make, error, match):
        with pytest.raises(error, match=match) as raised:
            make(ops40)
        assert raised.type is error

    @pytest.mark.parametrize("phi", [1e308, -1e308, np.float64(1e308), np.array([0.0, 1e308]),
                                     math.inf, math.nan],
                             ids=["float", "negative", "numpy-scalar", "array", "inf", "nan"])
    def test_phase_beyond_the_float_range(self, dims40, phi):
        # 2N phi overflows: a ValueError, and no overflow warning on the way
        with pytest.raises(ValueError, match=r"2N \|phi\| must be finite"):
            check_phase(dims40, phi)

    def test_phase_within_the_float_range(self, dims40):
        check_phase(dims40, np.array([-1e306, 0.0, 2.2e306]))


def random_amps(dim, seed=0, cols=None):
    rng = np.random.default_rng(seed)
    shape = (dim,) if cols is None else (dim, cols)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def half_lambdas(ops):
    """The lambda of each stored column: m[N - 2c - b] for parity b."""
    n = ops.dims.n_atoms
    return [ops.m[n - b :: -2][: block.shape[1]] for b, block in
            enumerate((sym_vectors(ops), anti_vectors(ops)))]


def full_blocks(ops):
    """The two parity blocks with every lambda, ascending like the m of their
    parity, rebuilt from the stored lambda >= 0 halves by the mirror rule:
    the column of -lambda is that of lambda with its rows times (-1)^k, from
    the same parity at even N and from the other at odd N; lambda = 0, of
    even N, is its own mirror and counts once."""
    n = ops.dims.n_atoms
    halves, lams = (sym_vectors(ops), anti_vectors(ops)), half_lambdas(ops)
    blocks = []
    for b, own in enumerate(halves):
        mate, mate_lam = halves[b ^ n % 2], lams[b ^ n % 2]
        mirror = mate[: len(own)] * (-1.0) ** np.arange(len(own))[:, None]
        blocks.append(np.hstack((mirror[:, mate_lam != 0], own[:, ::-1])))
    return blocks


def eigensystem(ops):
    """J_x eigenvalues and the full orthogonal V rebuilt from the two parity
    blocks: column b of a block is sum_k b_k (e_k +- e_{N-k})/sqrt(2) over
    k < ceil(N/2), plus b_{N/2} e_{N/2} in the symmetric block of even N;
    the eigenvalues of a block are the m of its reversal parity."""
    n, pairs = ops.dims.n_atoms, len(anti_vectors(ops))
    vecs = np.zeros((n + 1, n + 1))
    sym_block, anti_block = full_blocks(ops)
    sym = len(sym_block)
    for sign, block, cols in ((1.0, sym_block, slice(sym)),
                              (-1.0, anti_block, slice(sym, None))):
        vecs[:pairs, cols] = block[:pairs] / np.sqrt(2.0)
        vecs[::-1][:pairs, cols] = sign * block[:pairs] / np.sqrt(2.0)
        if sign > 0:  # the middle state of even N
            vecs[pairs : n + 1 - pairs, cols] = block[pairs:]
    vals = np.concatenate((ops.m[n % 2 :: 2], ops.m[1 - n % 2 :: 2]))
    return vals, vecs


def spectral_apply(ops, axis, amps):
    """J_axis amps rebuilt from the eigenvectors: V diag(lambda) V^T for x,
    conjugated by P = diag(e^{-i pi m/2}) for y."""
    vals, vecs = eigensystem(ops)
    twist = np.exp(-0.5j * np.pi * ops.m) if axis == "y" else np.ones(ops.dims.dim)
    return twist * (vecs @ (vals * (vecs.T @ (twist.conj() * amps))))


class TestOperatorSet:
    def test_single_spin_matrices(self):
        ops = cached_ops(1)
        assert np.allclose(ops.m, [-0.5, 0.5])
        assert ops.off[0] == pytest.approx(0.5, abs=0)
        # J_x |E_0> = 0.5 |E_1>
        assert np.array_equal(ops.apply_generator("x", np.array([1.0, 0.0])), [0.0, 0.5])

    def test_two_spin_raising_coefficient(self):
        # A(1,-1) = sqrt((1+1)(1-1+1)) = sqrt(2), halved on the off-diagonal
        ops = cached_ops(2)
        assert ops.off[0] == pytest.approx(np.sqrt(2) / 2, abs=1e-15)
        assert ops.apply_generator("x", np.array([1.0, 0.0, 0.0]))[1] == ops.off[0]

    def test_jz_eigenvalues_exact_integers(self, ops40, monkeypatch):
        assert np.array_equal(ops40.m, np.arange(41) - 20)
        # rotate uses the exact m of each parity as the J_x spectrum, so the
        # build refuses a lambda that misses it: the recurrence runs at the
        # shifted m while J_x keeps its true off-diagonal
        for n in (1, 2, 40, 41, 4000):
            dims = EnsembleDims(n)
            true_m, true_off = dims.m_values(), dicke._ladder_coefficients(dims)
            for shift in (0.6, 1e-6, 1e-8):
                with monkeypatch.context() as patch:
                    patch.setattr(EnsembleDims, "m_values", lambda self: true_m + shift)
                    patch.setattr(dicke, "_ladder_coefficients", lambda dims: true_off)
                    with pytest.raises(np.linalg.LinAlgError, match=f"N={n} misses m"):
                        build_operator_set(dims)

    def test_hermiticity(self, ops41):
        # <y|J x> = <J y|x> for random x, y and every generator
        x, y = random_amps(42, seed=1), random_amps(42, seed=2)
        for axis in "xyz":
            lhs = np.vdot(y, ops41.apply_generator(axis, x))
            rhs = np.vdot(ops41.apply_generator(axis, y), x)
            assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    def test_commutator(self, ops40):
        # [J_x, J_y] = i J_z through tridiagonal matvecs, on every basis
        # vector and on a random state
        j = ops40.apply_generator
        for x in (np.eye(41), random_amps(41, seed=3)):
            comm = j("x", j("y", x)) - j("y", j("x", x))
            assert np.max(np.abs(comm - 1j * j("z", x))) < 1e-10

    def test_eigensystem_reconstruction(self, ops40, ops41):
        for ops in (ops40, ops41):
            x = random_amps(ops.dims.dim, seed=4)
            for axis in "xy":
                rebuilt = spectral_apply(ops, axis, x)
                assert np.max(np.abs(rebuilt - ops.apply_generator(axis, x))) < 1e-10

    def test_jz_sq_diagonal(self, ops40):
        assert np.allclose(ops40.jz_sq, (np.arange(41) - 20.0) ** 2)

    def test_immutable_arrays(self, ops40):
        for arr in (ops40.vectors, sym_vectors(ops40), anti_vectors(ops40), ops40.off, ops40.m,
                    ops40.jz_sq):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_only_dense_array_is_the_real_eigenvector_matrix(self, ops40):
        dense = [name for name, value in vars(ops40).items()
                 if isinstance(value, np.ndarray) and value.ndim >= 2]
        assert dense == ["vectors"]  # no dense V beside it
        assert ops40.vectors.shape == (2, 22, 11) and ops40.vectors.dtype == np.float64
        # the lambda >= 0 halves: 11 of the 21 symmetric columns, 10 of the 20 antisymmetric
        assert sym_vectors(ops40).shape == (21, 11) and anti_vectors(ops40).shape == (20, 10)
        for half in (sym_vectors(ops40), anti_vectors(ops40)):
            assert half.base is not None and np.shares_memory(half, ops40.vectors)


class TestCssState:
    def test_north_pole_is_top_state(self, dims40):
        state = css_state(dims40, 0.0, 1.234)
        assert state.amps[40] == pytest.approx(1.0)
        assert np.sum(np.abs(state.amps[:40])) < 1e-15

    def test_south_pole_is_bottom_state(self, dims40):
        state = css_state(dims40, np.pi, 0.7)
        assert abs(state.amps[0]) == pytest.approx(1.0)

    def test_css_along_y_expectation(self, dims40, ops40):
        state = css_state(dims40, np.pi / 2, np.pi / 2)
        jy = np.vdot(state.amps, ops40.apply_generator("y", state.amps)).real
        assert jy == pytest.approx(20.0, abs=1e-9)

    def test_normalized_at_large_n(self):
        dims = EnsembleDims(2000)
        for theta in (0.3, np.pi / 2, 2.9):
            assert css_state(dims, theta, 1.0).norm() == pytest.approx(1.0, abs=1e-12)

    # Measured against math.comb: 3.6e-15 at N = 40, 41 and 4.5e-13 (one ulp
    # of log C(N, N/2) ~ 2770) at N = 3999, 4000; log-gamma gives 2.8e-14 and
    # 1.1e-11.  The bounds leave a margin of about 2x over the measured error.
    @pytest.mark.parametrize("n, bound", [(40, 1e-14), (41, 1e-14),
                                          pytest.param(3999, 1e-12, marks=pytest.mark.slow),
                                          pytest.param(4000, 1e-12, marks=pytest.mark.slow)])
    def test_log_binomials_exact(self, n, bound):
        log_binom = 2.0 * dicke.css_log_magnitudes(n, 1.0, 1.0)
        exact = np.array([math.log(math.comb(n, k)) for k in range(n + 1)])
        assert np.max(np.abs(log_binom - exact)) <= bound
        assert np.max(np.abs(log_binom - log_binom[::-1])) <= bound


class TestRotation:
    def test_pi_pulse_flips_all_spins(self, dims40, ops40):
        out = apply_rotation(basis_state(dims40, 0), ops40, "x", np.pi)
        assert out.populations()[40] == pytest.approx(1.0, abs=1e-12)
        # global phase (-i)^N = +1 for N = 40
        assert out.amps[40] == pytest.approx(1.0, abs=1e-10)

    def test_half_pi_pulse_reaches_css_along_y(self, dims40, ops40):
        out = apply_rotation(basis_state(dims40, 0), ops40, "x", np.pi / 2)
        target = css_state(dims40, np.pi / 2, np.pi / 2)
        assert np.max(np.abs(out.populations() - target.populations())) < 1e-12

    def test_zero_angle_identity(self, dims41, ops41):
        state = css_state(dims41, 1.0, 2.0)
        out = apply_rotation(state, ops41, "y", 0.0)
        assert np.max(np.abs(out.amps - state.amps)) < 1e-12

    def test_composition(self, dims40, ops40):
        state = css_state(dims40, 0.9, 0.4)
        one = apply_rotation(apply_rotation(state, ops40, "x", 0.7), ops40, "x", 1.1)
        two = apply_rotation(state, ops40, "x", 1.8)
        assert np.max(np.abs(one.amps - two.amps)) < 1e-10

    def test_full_turn_restores_populations(self):
        for n in (4, 7):
            ops = cached_ops(n)
            state = css_state(ops.dims, 1.1, 0.3)
            out = apply_rotation(state, ops, "x", 2 * np.pi)
            assert np.max(np.abs(out.populations() - state.populations())) < 1e-10
            # global phase (-1)^N
            assert np.max(np.abs(out.amps - (-1.0) ** n * state.amps)) < 1e-10

    def test_z_rotation_is_diagonal_phase(self, dims40, ops40):
        state = css_state(dims40, 1.2, 0.1)
        out = apply_rotation(state, ops40, "z", 0.37)
        expected = np.exp(-1j * 0.37 * ops40.m) * state.amps
        assert np.max(np.abs(out.amps - expected)) == 0.0

    def test_dimension_mismatch(self, dims40, ops41):
        with pytest.raises(DimensionError):
            apply_rotation(basis_state(dims40, 0), ops41, "x", 0.1)

    def test_bad_axis(self, dims40, ops40):
        with pytest.raises(ValueError):
            apply_rotation(basis_state(dims40, 0), ops40, "q", 0.1)


class TestOats:
    def test_even_cat_splits_between_antipodal_css(self, dims40, ops40):
        state = css_state(dims40, np.pi / 2, np.pi / 2)
        out = apply_pulse(state, ops40, squeeze_pulse(np.pi / 2, -1), 0.0)
        plus = css_state(dims40, np.pi / 2, np.pi / 2)
        minus = css_state(dims40, np.pi / 2, 3 * np.pi / 2)
        assert abs(np.vdot(plus.amps, out.amps)) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(np.vdot(minus.amps, out.amps)) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_odd_cat_splits_along_x(self, dims41, ops41):
        state = css_state(dims41, np.pi / 2, np.pi / 2)
        out = apply_pulse(state, ops41, squeeze_pulse(np.pi / 2, -1), 0.0)
        plus = css_state(dims41, np.pi / 2, 0.0)
        minus = css_state(dims41, np.pi / 2, np.pi)
        assert abs(np.vdot(plus.amps, out.amps)) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(np.vdot(minus.amps, out.amps)) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_unsqueeze_is_exact_inverse(self, dims40, ops40):
        state = css_state(dims40, 0.8, 1.9)
        squeezed = apply_pulse(state, ops40, squeeze_pulse(0.77, -1), 0.0)
        roundtrip = apply_pulse(squeezed, ops40, squeeze_pulse(0.77, +1), 0.0)
        assert np.max(np.abs(roundtrip.amps - state.amps)) < 1e-14


class TestDarkPhase:
    def test_zero_phase_identity(self, dims40, ops40):
        state = css_state(dims40, 1.0, 1.0)
        out = apply_pulse(state, ops40, dark_pulse(1.0, +1), 0.0)
        assert np.array_equal(out.amps, state.amps)

    def test_bottom_state_gains_global_phase(self, dims40, ops40):
        state = basis_state(dims40, 0)
        out = apply_pulse(state, ops40, dark_pulse(1.0, +1), 0.3)
        # m = -j on |E_0>, so the phase is e^{+i sign*phase*j}
        assert out.amps[0] == pytest.approx(np.exp(1j * 0.3 * 20), abs=1e-12)
        assert np.max(np.abs(out.populations() - state.populations())) < 1e-15

    def test_cat_state_accumulates_n_fold_phase(self, dims40, ops40):
        n = 40
        eta = 1j
        cat = np.zeros(41, dtype=complex)
        cat[0], cat[n] = 1 / np.sqrt(2), eta / np.sqrt(2)
        state = SpinState(dims40, cat)
        phi = 0.0173
        state = apply_pulse(state, ops40, dark_pulse(1.0, +1), phi / 2)
        state = apply_rotation(state, ops40, "x", np.pi)
        state = apply_pulse(state, ops40, dark_pulse(1.0, -1), phi / 2)
        ratio = state.amps[n] / state.amps[0]
        assert ratio * eta == pytest.approx(np.exp(1j * n * phi), abs=1e-10)


class TestApplyPulses:
    @staticmethod
    def _random_sequence(rng, length):
        """Random pulses; after a rotation the next pulse is another rotation
        about the same axis with probability 0.35, so merges are common."""
        pulses = []
        for _ in range(length):
            kind = rng.integers(4)
            if pulses and pulses[-1].kind == "rotate" and rng.random() < 0.35:
                pulses.append(rotate_pulse(pulses[-1].axis, rng.uniform(-7, 7)))
            elif kind < 2:
                pulses.append(rotate_pulse("xyz"[rng.integers(3)], rng.uniform(-7, 7)))
            elif kind == 2:
                pulses.append(squeeze_pulse(rng.uniform(0, 2), int(rng.choice([1, -1]))))
            else:
                pulses.append(dark_pulse(rng.uniform(0.1, 1), int(rng.choice([1, -1]))))
        return pulses

    @pytest.mark.parametrize("n", [1, 4, 40, 41])
    def test_vector_block_and_unitary_match_pulse_by_pulse(self, n):
        ops = cached_ops(n)
        rng = np.random.default_rng(n)
        for trial in range(6):
            pulses = self._random_sequence(rng, 8)
            phi, mu = rng.uniform(-4, 4), (None, 0.37)[trial % 2]
            block = rng.normal(size=(n + 1, 3)) + 1j * rng.normal(size=(n + 1, 3))
            block /= np.linalg.norm(block, axis=0)
            stepped = []
            for col in block.T:
                state = SpinState(ops.dims, col)
                for pulse in pulses:
                    state = apply_pulse(state, ops, pulse, phi, mu)
                stepped.append(state.amps)
            stepped = np.array(stepped).T
            vector = apply_pulses(ops, pulses, block[:, 0], phi, mu)
            assert vector.shape == (n + 1,)
            assert np.max(np.abs(vector - stepped[:, 0])) < 1e-12
            assert np.max(np.abs(apply_pulses(ops, pulses, block, phi, mu) - stepped)) < 1e-12
            unitary = apply_pulses(ops, pulses, np.eye(n + 1, dtype=complex), phi, mu)
            assert np.max(np.abs(unitary @ block - stepped)) < 1e-12

    def test_adjacent_rotations_merge_exactly(self, ops40):
        state = css_state(ops40.dims, 0.9, 0.4).amps
        pair = [rotate_pulse("y", 0.3), rotate_pulse("y", 0.8)]
        merged = apply_pulses(ops40, pair, state)
        assert np.array_equal(merged, apply_pulses(ops40, [rotate_pulse("y", 0.3 + 0.8)], state))

    def test_empty_sequence_is_identity(self):
        block = random_amps(5, seed=4, cols=3)
        assert np.array_equal(apply_pulses(cached_ops(4), [], block), block)


class TestInvariants:
    def test_unitarity_along_pulse_sequence(self):
        for n in (3, 40, 1000):
            ops = cached_ops(n)
            state = css_state(ops.dims, 0.6, 0.2)
            state = apply_rotation(state, ops, "x", 1.234)
            state = apply_pulse(state, ops, squeeze_pulse(0.9, -1), 0.0)
            state = apply_rotation(state, ops, "y", -0.77)
            state = apply_pulse(state, ops, dark_pulse(1.0, -1), 0.31)
            assert abs(state.norm() - 1.0) < 1e-12

    def test_total_spin_conserved(self, dims40, ops40):
        j = dims40.j
        state = css_state(dims40, 0.4, 2.2)
        for move in range(4):
            state = apply_rotation(state, ops40, "xy"[move % 2], 0.3 + move)
            state = apply_pulse(state, ops40, squeeze_pulse(0.2 * (move + 1), -1), 0.0)
            assert total_spin_expectation(state, ops40) == pytest.approx(
                j * (j + 1), abs=1e-9
            )

    @pytest.mark.parametrize("n", [4, 6, 40, 42])
    def test_even_cat_phase_after_squeeze(self, n):
        # coefficient of the antipodal coherent state in the post-squeeze cat
        ops = cached_ops(n)
        state = apply_rotation(basis_state(ops.dims, 0), ops, "x", np.pi / 2)
        state = apply_pulse(state, ops, squeeze_pulse(np.pi / 2, -1), 0.0)
        c_plus = np.vdot(css_state(ops.dims, np.pi / 2, np.pi / 2).amps, state.amps)
        c_minus = np.vdot(css_state(ops.dims, np.pi / 2, 3 * np.pi / 2).amps, state.amps)
        eta = c_minus / c_plus
        assert eta == pytest.approx(1j * (-1) ** (n // 2), abs=1e-9)

    @pytest.mark.parametrize("n", [3, 5, 41, 43])
    def test_odd_cat_phase_after_squeeze(self, n):
        ops = cached_ops(n)
        state = apply_rotation(basis_state(ops.dims, 0), ops, "x", np.pi / 2)
        state = apply_pulse(state, ops, squeeze_pulse(np.pi / 2, -1), 0.0)
        c_plus = np.vdot(css_state(ops.dims, np.pi / 2, 0.0).amps, state.amps)
        c_minus = np.vdot(css_state(ops.dims, np.pi / 2, np.pi).amps, state.amps)
        eta = c_minus / c_plus
        assert eta == pytest.approx(1j * (-1) ** ((n + 1) // 2), abs=1e-9)


@pytest.mark.slow
class TestLargeEnsemble:
    def test_cap_documented_size_works(self):
        ops = cached_ops(2000)
        state = css_state(ops.dims, np.pi / 2, np.pi / 2)
        out = apply_rotation(state, ops, "x", 0.7)
        assert abs(out.norm() - 1.0) < 1e-11
        x = random_amps(ops.dims.dim, seed=5)
        assert np.max(np.abs(spectral_apply(ops, "x", x) - ops.apply_generator("x", x))) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 40, 41, 3999, 4000])
    def test_split_eigensolve_is_exact(self, n):
        # both parities of the reversal split, up to the cap, from the halves
        ops = build_operator_set(EnsembleDims(n))
        vecs, half = ops.vectors, n // 2  # zero past each parity's rows and columns
        assert not vecs[0, half + 1 :].any() and not vecs[1, n - half :].any()
        assert not vecs[1, :, (half + 1) // 2 :].any()
        blocks = full_blocks(ops)
        assert [b.shape for b in blocks] == [(n // 2 + 1,) * 2, ((n + 1) // 2,) * 2]
        for block in blocks:
            gram = block.T @ block
            gram[np.diag_indices_from(gram)] -= 1.0
            assert np.max(np.abs(gram)) <= 1e-13
        del gram, blocks
        vals, vecs = eigensystem(ops)
        x = np.random.default_rng(n).standard_normal(ops.dims.dim)
        jx_x = vecs @ (vals * (vecs.T @ x))
        assert np.max(np.abs(jx_x - ops.apply_generator("x", x))) <= 1e-10 * n

    def test_build_holds_no_dense_v(self):
        # the recurrence's one buffer of the lambda >= 0 halves; a dense
        # (N+1)^2 V alone would be 122 MiB
        assert traced_peak_mib(lambda: build_operator_set(EnsembleDims(4000)))[1] <= 100

    def test_build_holds_only_the_halves(self):
        # the recurrence buffer of the halves takes 30.6 MiB at the cap and the
        # build peaked at 31.5 MiB; the full parity blocks alone took 61.1 MiB
        assert traced_peak_mib(lambda: build_operator_set(EnsembleDims(4000)))[1] <= 34

    @pytest.mark.parametrize("n, bound", [(2000, 33), (2001, 49)])
    def test_rotate_holds_the_fold_and_one_product(self, n, bound):
        # a 16 MiB complex block: the fold (16 MiB at even N, 32 at odd) and
        # the first product (16), mixed in place, traced 32.4 and 48.3 MiB; a
        # mixed copy beside them took 48.2 and 64.3 MiB
        ops = cached_ops(n)
        block = np.ones((n + 1, 524), dtype=complex)
        for axis in "xy":
            assert traced_peak_mib(lambda: rotate(ops, axis, 0.7, block))[1] <= bound


def lapack_blocks(n):
    """The parity blocks from LAPACK's tridiagonal solver, an oracle that
    shares no code with the recurrence: the pairs keep off; at the centre
    even N couples the middle state with sqrt(2) off[c-1] and odd N puts
    +-off[c] on the last diagonal entry.  Eigenvalues ascend, as the
    columns of the build's blocks do."""
    off = dicke._ladder_coefficients(EnsembleDims(n)) / 2.0
    half, odd = divmod(n, 2)
    blocks = []
    for sign, size in ((1.0, half + 1), (-1.0, half + odd)):
        diag, sub = np.zeros(size), off[: size - 1].copy()
        diag[-1] = odd * sign * off[half]
        if sign > 0 and not odd:
            sub[-1] *= np.sqrt(2.0)
        blocks.append(eigh_tridiagonal(diag, sub)[1])
    return blocks


def full_recurrence_blocks(n):
    """The parity blocks with every lambda, from the build's recurrence run
    at each lambda = m of both signs: an oracle for the mirror rule, which
    the build uses in place of the runs at lambda < 0."""
    dims = EnsembleDims(n)
    m, off = dims.m_values(), dicke._ladder_coefficients(dims) / 2.0
    half, odd = divmod(n, 2)
    lam = np.concatenate((m[odd::2], m[1 - odd :: 2]))
    sign = np.repeat([1.0, -1.0], (half + 1, half + odd))
    v = np.empty((half + 2, n + 1))
    v[0], v[1] = 1.0, lam / off[0]
    for k in range(1, half + 1):
        np.multiply(lam, v[k], out=v[k + 1])
        v[k + 1] -= off[k - 1] * v[k - 1]
        v[k + 1] /= off[k]
        if k % 32 == 0:
            big = np.abs(v[k + 1]) > 1e100
            v[: k + 2, big] /= np.abs(v[k + 1, big])
    miss = np.abs(v[half:] - sign * v[half - 1 + odd : half + 1 + odd][::-1])
    v[: half + odd] *= np.sqrt(2.0)
    blocks = v[: half + 1, : half + 1], v[: half + odd, half + 1 :]
    norms = np.concatenate([np.sqrt(np.einsum("ij,ij->j", b, b)) for b in blocks])
    assert np.max(miss / norms) * off[half] <= 1e-12 * n
    v[: half + 1] /= norms
    return blocks


class TestRecurrenceBlocks:
    """The J_x eigenvector blocks come from a three-term recurrence at the
    known spectrum m; these check them against LAPACK and closed forms."""

    @pytest.mark.parametrize("n", [1, 2, 3, 40, 41,
                                   pytest.param(3999, marks=pytest.mark.slow),
                                   pytest.param(4000, marks=pytest.mark.slow)])
    def test_blocks_match_lapack_up_to_column_sign(self, n):
        ops = build_operator_set(EnsembleDims(n))
        for block, oracle in zip(full_blocks(ops), lapack_blocks(n)):
            signs = np.where(np.sum(block * oracle, axis=0) < 0, -1.0, 1.0)
            assert np.max(np.abs(block - signs * oracle)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 40, 41,
                                   pytest.param(3999, marks=pytest.mark.slow),
                                   pytest.param(4000, marks=pytest.mark.slow)])
    def test_mirrored_halves_are_the_full_recurrence_bit_for_bit(self, n):
        # the lambda < 0 columns come from the mirror rule, not from a run of
        # the recurrence at -lambda; both give the same bits
        ops = build_operator_set(EnsembleDims(n))
        for block, oracle in zip(full_blocks(ops), full_recurrence_blocks(n)):
            assert block.shape == oracle.shape
            assert block.tobytes() == np.ascontiguousarray(oracle).tobytes()

    @pytest.mark.parametrize("n", [40, 41,
                                   pytest.param(3999, marks=pytest.mark.slow),
                                   pytest.param(4000, marks=pytest.mark.slow)])
    def test_extreme_columns_are_the_x_coherent_states(self, n):
        # Arecchi et al., PRA 6, 2211 (1972): the J_x eigenstates of
        # lambda = +-j are the coherent states along +-x
        vals, vecs = eigensystem(cached_ops(n))
        for lam, phi in ((n / 2, 0.0), (-n / 2, np.pi)):
            column = vecs[:, np.flatnonzero(vals == lam)[0]]
            target = css_state(EnsembleDims(n), np.pi / 2, phi).amps
            assert min(np.max(np.abs(column - target)), np.max(np.abs(column + target))) <= 1e-12

    @pytest.mark.slow
    def test_blocks_do_not_depend_on_blas_threads(self):
        # the build calls no BLAS or LAPACK, so its bits cannot follow the
        # thread count.  LAPACK's divide and conquer solve runs dgemm: under
        # OpenBLAS 0.3.31 its blocks differ at N = 2000 (not yet at 1000)
        code = ("import hashlib; from catspin.dicke import EnsembleDims, build_operator_set; "
                "ops = build_operator_set(EnsembleDims(2000)); "
                "print(hashlib.sha256(ops.vectors.tobytes()).hexdigest())")
        src = os.path.dirname(os.path.dirname(dicke.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True)
            digests.append(run.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1]


def dense_generators(n):
    """J_x and J_y as dense matrices from J_+ |j, m> = sqrt((j-m)(j+m+1)) |j, m+1>."""
    j, m = n / 2, np.arange(n) - n / 2
    raising = np.diag(np.sqrt((j - m) * (j + m + 1)), -1)
    return (raising + raising.T) / 2, (raising - raising.T) / 2j


@pytest.mark.slow
class TestRotationOracles:
    """Closed forms that share no code with rotate's parity fold."""

    @pytest.mark.parametrize("n", [40, 41, 3999, 4000])
    def test_rotations_take_the_bottom_state_to_coherent_states(self, n):
        # Arecchi et al., PRA 6, 2211 (1972): a rotation of the coherent
        # state |E_0> along -z is the coherent state along the rotated axis
        ops = cached_ops(n)
        bottom = basis_state(ops.dims, 0).amps
        for theta in (0.3, 1.1, np.pi / 2, 2.0, 2.9):
            c, s = np.cos(theta), np.sin(theta)
            target = css_state(ops.dims, np.pi - theta, np.pi / 2).amps
            overlap = abs(np.vdot(target, rotate(ops, "x", theta, bottom)))
            assert 1.0 - overlap <= 1e-12
            # the active rotation about y by theta takes -z to this direction
            x, y, z = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]) @ [0.0, 0.0, -1.0]
            target = css_state(ops.dims, np.arccos(z), np.arctan2(y, x)).amps
            overlap = abs(np.vdot(target, rotate(ops, "y", theta, bottom)))
            assert 1.0 - overlap <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 40, 41, 42, 43])
    def test_unitary_and_block_match_expm(self, n):
        ops = cached_ops(n)
        block = random_amps(n + 1, seed=n, cols=3)
        twist = np.exp(-0.5j * np.pi * ops.m)
        for axis, generator in zip("xy", dense_generators(n)):
            for theta in (0.3, -1.1, 2.9, 7.5, np.pi / 2, -np.pi / 2, np.pi):
                exact = expm(-1j * theta * generator)
                # rows up to N/2 of R_x, the rest reversed; R_y = P R_x P^dagger
                half = rotation_rows(ops, theta, 0, n // 2 + 1)
                unitary = np.concatenate([half, half[: n - n // 2][::-1, ::-1]])
                if axis == "y":
                    unitary = twist[:, None] * unitary * twist.conj()
                assert np.max(np.abs(unitary - exact)) <= 1e-13
                for first in range(n // 2 + 1):  # any run of rows
                    assert np.max(np.abs(rotation_rows(ops, theta, first, n // 2 + 1)
                                         - half[first:])) <= 1e-13
                assert np.max(np.abs(rotate(ops, axis, theta, block) - exact @ block)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 40, 41, 300, 301])
    @pytest.mark.parametrize("chunk", [1, 97, 1 << 16])
    def test_rows_in_chunks_match_the_vector_path(self, n, chunk):
        # rotation_rows over runs of `chunk` rows, as a scan builds them
        # group by group, against rotate's vector path on the identity
        ops = cached_ops(n)
        half = n // 2 + 1
        for theta in (0.3, 2.9, np.pi / 2, -np.pi / 2):  # pi/2: one product per block
            rows = np.concatenate([rotation_rows(ops, theta, a, min(a + chunk, half))
                                   for a in range(0, half, chunk)])
            exact = rotate(ops, "x", theta, np.eye(n + 1, dtype=complex))
            assert np.max(np.abs(rows - exact[:half])) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 40, 41, 300, 301])
    @pytest.mark.parametrize("chunk", [1, 97, 1 << 16])
    def test_in_place_unfold_is_bitwise_the_copying_one(self, n, chunk):
        # rotation_rows writes G^T C G's rows straight into its output, run
        # by run and parity by parity; the same products in rotate's fold
        # layout, put through the copying _unfold, give the same additions
        # bit for bit.  Output column c takes the weight of the parity of
        # f + c, from fold row c (c < pairs) or N - c
        ops = cached_ops(n)
        dim, pairs, vecs = n + 1, len(anti_vectors(ops)), ops.vectors
        half = n // 2 + 1
        for theta in (0.3, 2.9):
            phase = dicke._phases(ops, theta)[:, None]
            for a in range(0, half, chunk):
                b = min(a + chunk, half)
                weighted = (vecs[:, a:b] * phase.real, vecs[:, a:b] * phase.imag)
                copied = np.zeros((b - a, dim), dtype=complex)
                for p in (0, 1):  # local rows of one parity
                    for q in (0, 1):  # output columns of one parity
                        t = (a + p + q) % 2
                        folded = np.zeros((2, len(weighted[t][0, p::2]), vecs.shape[1]))
                        for r in {q, (q + n) % 2}:  # fold rows of c = i, of c = N - i
                            folded[:, :, r::2] = weighted[t][:, p::2] @ vecs[:, r::2].mT
                        y = dicke._unfold(folded[0].T, folded[1, :, :pairs].T,
                                          np.empty((dim, folded.shape[1]))).T
                        (copied.real, copied.imag)[t][p::2, q::2] += y[:, q::2]
                copied[max(pairs - a, 0) :] *= np.sqrt(2.0)  # even N's middle row
                assert rotation_rows(ops, theta, a, b).tobytes() == copied.tobytes()
