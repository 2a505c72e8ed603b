import json

import numpy as np
import pytest

from catspin.dicke import EnsembleDims, SpinState, apply_rotation, basis_state, css_state
from catspin.husimi import (
    QpdField,
    SphereGrid,
    _css_row_factors,
    default_grid,
    evaluate_qpd_point,
    qpd_field,
    quadrature,
    quadrature_residual,
    raw_layout,
)
from catspin.protocols import ProtocolParams, builtin, run

from conftest import cached_ops, read_field_raw


def scain_state(ops, phi=np.pi / 80, n_pulses=None):
    spec = builtin("scain", ProtocolParams(mu=np.pi / 2, ara="x", xi=-1))
    return run(spec, ops.dims, ops, phi, n_pulses=n_pulses)


def unit_vector(theta, phi):
    return np.stack(np.broadcast_arrays(
        np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)), axis=-1)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return SpinState(EnsembleDims(n), amps / np.linalg.norm(amps))


def unfolded_field(state, grid):
    """The (n_theta x dim) @ (dim x n_phi) product that qpd_field made
    before it summed the coefficients modulo n_phi."""
    k = np.arange(state.dims.n_atoms + 1)
    weighted = _css_row_factors(state.dims.n_atoms, grid.thetas) * np.conj(state.amps[::-1])
    phase = np.outer(1j * k, grid.phis)
    np.exp(phase, out=phase)
    return np.abs(weighted @ phase) ** 2


def exact_phase_field(state, thetas, n_phi, block=256):
    """Q on thetas x the lattice 2 pi j / n_phi with each phase taken at
    k j mod n_phi in integers and the sums in long double, so no phase
    argument exceeds 2 pi.  The factors c_k(theta) are qpd_field's own."""
    n = state.dims.n_atoms
    factors = _css_row_factors(n, np.asarray(thetas)).astype(np.longdouble)
    weighted = factors * np.conj(state.amps[::-1]).astype(np.clongdouble)
    turn = 2 * np.arccos(np.longdouble(-1)) / n_phi
    units = np.cos(turn * np.arange(n_phi)) + 1j * np.sin(turn * np.arange(n_phi))
    j = np.arange(n_phi)
    overlap = np.zeros((len(factors), n_phi), dtype=np.clongdouble)
    for start in range(0, n + 1, block):
        k = np.arange(start, min(start + block, n + 1))
        overlap += weighted[:, k] @ units[np.outer(k, j) % n_phi]
    return (overlap.real**2 + overlap.imag**2).astype(float)


def gauss_legendre_quadrature(state, rows=1001, cols=512):
    """(N+1)/(4 pi) times the integral of Q over the sphere.  Q is a
    polynomial of degree N in cos(theta) and a trigonometric one of degree N
    in phi, so ceil((N+1)/2) Gauss-Legendre nodes in cos(theta) and N+1
    equispaced phi points give it exactly.  The field is taken in blocks of
    rows thetas by cols phis to bound its memory."""
    n = state.dims.n_atoms
    nodes, weights = np.polynomial.legendre.leggauss(-(-(n + 1) // 2))
    thetas, weights = np.arccos(nodes[::-1]), weights[::-1]
    phis = 2 * np.pi * np.arange(n + 1) / (n + 1)
    total = 0.0
    for i in range(0, len(thetas), rows):
        for j in range(0, len(phis), cols):
            grid = SphereGrid(thetas[i : i + rows], phis[j : j + cols])
            total += weights[i : i + rows] @ qpd_field(state, grid).values.sum(axis=1)
    return (n + 1) / (4 * np.pi) * total * 2 * np.pi / len(phis)


class TestSphereGrid:
    def test_default_is_one_degree(self):
        grid = default_grid()
        assert grid.thetas.size == 181 and grid.phis.size == 361
        assert grid.thetas[0] == 0.0 and grid.thetas[-1] == pytest.approx(np.pi)
        assert grid.phis[-1] < 2 * np.pi

    def test_rejects_decreasing_axes(self):
        with pytest.raises(ValueError):
            SphereGrid(thetas=np.array([1.0, 0.5]), phis=np.array([0.0, 1.0]))

    def test_rejects_tiny_axes(self):
        with pytest.raises(ValueError):
            SphereGrid(thetas=np.array([0.5]), phis=np.array([0.0, 1.0]))

    def test_rejects_the_periodic_endpoint(self):
        # phi = 2 pi is phi = 0 again, so the axis must stop below it
        with pytest.raises(ValueError, match="below 2 pi"):
            SphereGrid(thetas=np.array([0.0, np.pi]), phis=np.array([0.0, np.pi, 2 * np.pi]))

    def test_field_shape_checked(self):
        grid = default_grid(5, 8)
        with pytest.raises(ValueError):
            QpdField(grid=grid, values=np.zeros((4, 8)))


class TestPointEvaluation:
    def test_self_overlap_is_one(self, dims40):
        state = css_state(dims40, 1.1, 2.2)
        assert evaluate_qpd_point(state, 1.1, 2.2) == pytest.approx(1.0, abs=1e-12)

    def test_bottom_state_poles(self, dims40):
        state = basis_state(dims40, 0)
        assert evaluate_qpd_point(state, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert evaluate_qpd_point(state, np.pi, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_cat_state_half_weight_at_pole(self, dims40):
        amps = np.zeros(41, dtype=complex)
        amps[0], amps[40] = 1 / np.sqrt(2), 1j / np.sqrt(2)
        assert evaluate_qpd_point(SpinState(dims40, amps), 0.0, 0.0) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_matches_coherent_state_overlap(self):
        dims = EnsembleDims(5)
        state = css_state(dims, 1.0, 0.3)
        for theta, phi in ((0.0, 0.0), (0.5, 0.3), (np.pi, 2.0), (2.5, -7.0)):
            overlap = abs(np.vdot(css_state(dims, theta, phi).amps, state.amps)) ** 2
            assert evaluate_qpd_point(state, theta, phi) == pytest.approx(overlap, abs=1e-14)

    @pytest.mark.parametrize("theta, phi", [(-0.5, 0.3), (4.0, 0.3), (np.pi + 1e-9, 0.3),
                                            (np.nan, 0.3), (1.0, np.nan), (1.0, np.inf)])
    def test_rejects_directions_off_the_grid_domain(self, theta, phi):
        # the log-domain factors are magnitudes, so a theta outside [0, pi]
        # would lose the half-angle signs: (-0.5, 0.3) read 0.729 against an
        # overlap of 0.044 with the coherent state there
        with pytest.raises(ValueError):
            evaluate_qpd_point(css_state(EnsembleDims(5), 1.0, 0.3), theta, phi)

    def test_global_phase_invariance(self, dims40):
        state = css_state(dims40, 0.8, 0.3)
        rotated = SpinState(dims40, np.exp(1j * 0.9) * state.amps)
        for args in ((0.8, 0.3), (2.0, 4.0)):
            assert evaluate_qpd_point(state, *args) == pytest.approx(
                evaluate_qpd_point(rotated, *args), abs=1e-14
            )


class TestField:
    def test_css_peak_at_its_direction(self, dims40):
        field = qpd_field(css_state(dims40, np.pi / 2, np.pi / 2), default_grid())
        i, j = np.unravel_index(np.argmax(field.values), field.values.shape)
        assert field.grid.thetas[i] == pytest.approx(np.pi / 2, abs=np.pi / 180)
        assert field.grid.phis[j] == pytest.approx(np.pi / 2, abs=2 * np.pi / 361)

    def test_values_bounded(self, ops40):
        field = qpd_field(scain_state(ops40, n_pulses=8), default_grid(61, 120))
        assert field.values.min() >= 0.0
        assert field.values.max() <= 1.0 + 1e-12

    def test_post_squeeze_antipodal_lobes_equal(self, ops40):
        state = scain_state(ops40, n_pulses=2)
        top = evaluate_qpd_point(state, np.pi / 2, np.pi / 2)
        bottom = evaluate_qpd_point(state, np.pi / 2, 3 * np.pi / 2)
        assert abs(top - bottom) < 1e-9

    def test_matches_point_evaluation(self, dims40, ops40):
        state = scain_state(ops40, n_pulses=4)
        grid = default_grid(19, 24)
        field = qpd_field(state, grid)
        for i in (0, 7, 18):
            for j in (0, 11, 23):
                assert field.values[i, j] == pytest.approx(
                    evaluate_qpd_point(state, grid.thetas[i], grid.phis[j]),
                    abs=1e-12,
                )

    def test_rotation_covariance_about_z(self, ops40):
        grid = default_grid(91, 120)
        state = scain_state(ops40, n_pulses=3)
        shift = 7
        rotated = apply_rotation(state, ops40, "z", shift * (grid.phis[1] - grid.phis[0]))
        plain = qpd_field(state, grid).values
        moved = qpd_field(rotated, grid).values
        assert np.max(np.abs(np.roll(plain, shift, axis=1) - moved)) < 1e-8


class TestQuadrature:
    def test_resolution_of_identity_uniform_grid(self, dims40):
        field = qpd_field(css_state(dims40, 1.2, 0.5), default_grid(361, 721))
        assert quadrature(field, 40) == pytest.approx(1.0, abs=1e-3)

    def test_small_n(self):
        ops = cached_ops(3)
        field = qpd_field(css_state(ops.dims, 0.7, 0.2), default_grid(181, 361))
        assert quadrature(field, 3) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.slow
    def test_large_n_overlaps_stable(self):
        # log-domain coherent-state factors keep the field finite and
        # normalized well past N = 300
        ops = cached_ops(500)
        state = css_state(ops.dims, np.pi / 3, 1.0)
        field = qpd_field(state, default_grid(361, 721))
        assert np.isfinite(field.values).all()
        assert field.values.max() <= 1.0 + 1e-9
        assert quadrature(field, 500) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("thetas, phis", [
        (np.linspace(0.0, np.pi, 181), np.linspace(0.0, 3.0, 181)),  # part of a period
        (np.linspace(0.5, 2.0, 91), np.linspace(0.0, 2 * np.pi, 361, endpoint=False)),  # a cap
        (np.linspace(0.0, np.pi, 181), default_grid().phis[:-1]),  # one point short
    ])
    def test_rejects_grids_short_of_the_sphere(self, dims40, thetas, phis):
        # these read 0.982 and 0.9994 for a CSS, where the whole sphere gives 1
        field = qpd_field(css_state(dims40, 1.2, 0.5), SphereGrid(thetas, phis))
        with pytest.raises(ValueError, match="quadrature needs"):
            quadrature(field, 40)

    def test_rejects_nonuniform_grid(self, dims40):
        grid = SphereGrid(
            thetas=np.array([0.0, 0.5, 1.7, np.pi]), phis=np.array([0.0, 1.0, 2.0])
        )
        field = qpd_field(css_state(dims40, 1.0, 1.0), grid)
        with pytest.raises(ValueError):
            quadrature(field, 40)


class TestOracles:
    @pytest.mark.parametrize("n", [40, 41, pytest.param(3999, marks=pytest.mark.slow),
                                   pytest.param(4000, marks=pytest.mark.slow)])
    def test_coherent_state_field_is_the_closed_form(self, n):
        # Q of the coherent state along n0 is ((1 + n.n0) / 2)^N
        grid = default_grid(91, 181)
        directions = unit_vector(grid.thetas[:, None], grid.phis[None, :])
        for theta0, phi0 in ((0.0, 0.0), (1.2, 0.5), (np.pi / 2, 3 * np.pi / 2),
                             (2.9, 5.9), (np.pi, 1.0)):
            field = qpd_field(css_state(EnsembleDims(n), theta0, phi0), grid)
            exact = ((1 + directions @ unit_vector(theta0, phi0)) / 2) ** n
            assert np.max(np.abs(field.values - exact)) <= 1e-11

    @pytest.mark.parametrize("n", [40, 41])
    def test_gauss_legendre_quadrature_is_one(self, n):
        ops = cached_ops(n)
        for state in (css_state(ops.dims, 1.2, 0.5), basis_state(ops.dims, n // 3),
                      scain_state(ops, n_pulses=2), scain_state(ops)):
            assert gauss_legendre_quadrature(state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.slow
    def test_gauss_legendre_quadrature_is_one_at_n4000(self):
        # one state: its 2001 x 4001 field takes about 15 s on 2 vCPUs
        ops = cached_ops(4000)
        assert gauss_legendre_quadrature(scain_state(ops, n_pulses=2)) == pytest.approx(
            1.0, abs=1e-11)


class TestFold:
    """On the lattice phi_j = 2 pi j / n_phi the coefficients are summed
    modulo n_phi before the phase product; other grids are not folded."""

    @pytest.mark.parametrize("n", [360, 361, 362, 721, 722])
    @pytest.mark.parametrize("n_phi", [2, 7, 360, 361])
    def test_matches_exact_phases(self, n, n_phi):
        # A random state has Q of order 1/dim.  The cat stages reach Q = 1/2;
        # with n_phi = 360 or 361 their phase table runs to k phi = 2.3e3 rad
        # as it did unfolded, which read up to 4.7e-14 from exact phases.
        grid = default_grid(13, n_phi)
        state = random_state(n, seed=n)
        exact = exact_phase_field(state, grid.thetas, n_phi)
        assert np.max(np.abs(qpd_field(state, grid).values - exact)) <= 1e-14
        for n_pulses in (2, 7):
            state = scain_state(cached_ops(n), n_pulses=n_pulses)
            exact = exact_phase_field(state, grid.thetas, n_phi)
            assert np.max(np.abs(qpd_field(state, grid).values - exact)) <= 1e-13

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [3999, 4000])
    def test_cat_stages_match_exact_phases_at_the_cap(self, n):
        # unfolded, stages C and H were 7.9e-14 and 1.1e-13 off at N = 4000:
        # their phase arguments k phi reached 2.5e4 rad
        ops, grid, rows = cached_ops(n), default_grid(), slice(0, 181, 6)
        for stage in "BCHI":
            state = scain_state(ops, n_pulses=ord(stage) - ord("A"))
            field = qpd_field(state, grid).values[rows]
            exact = exact_phase_field(state, grid.thetas[rows], 361)
            assert np.max(np.abs(field - exact)) <= 5e-14

    @pytest.mark.parametrize("n, n_theta, n_phi", [(3, 181, 361), (40, 181, 361), (41, 181, 361),
                                                   (360, 31, 361), (40, 19, 41)])
    def test_bitwise_unchanged_while_dim_fits_the_period(self, n, n_theta, n_phi):
        grid = default_grid(n_theta, n_phi)
        for state in (random_state(n, seed=7), scain_state(cached_ops(n), n_pulses=3)):
            assert np.array_equal(qpd_field(state, grid).values, unfolded_field(state, grid))

    @pytest.mark.parametrize("phis", [
        2 * np.pi * np.arange(20) / 50,  # part of a period of another lattice
        np.array([0.0, 0.3, 0.31, 1.7, 4.0, 6.2]),  # nonuniform
        2 * np.pi * np.arange(101) / 101,  # the lattice for dim = 101, where no fold applies
    ])
    def test_other_grids_match_point_evaluation(self, phis):
        state = scain_state(cached_ops(100), n_pulses=7)
        grid = SphereGrid(np.linspace(0.0, np.pi, 9), phis)
        field = qpd_field(state, grid).values
        for i in range(0, 9, 2):
            for j in range(phis.size):
                assert field[i, j] == pytest.approx(
                    evaluate_qpd_point(state, grid.thetas[i], phis[j]), abs=1e-12)

    def test_gauss_legendre_slices_match_point_evaluation(self):
        # gauss_legendre_quadrature's grids: arccos nodes and blocks of the
        # (N+1)-point phi lattice, which are not a lattice of their own size
        n = 600
        state = scain_state(cached_ops(n), n_pulses=7)
        nodes = np.arccos(np.polynomial.legendre.leggauss(301)[0][::-1])
        lattice = 2 * np.pi * np.arange(n + 1) / (n + 1)
        for phis in (lattice[:512], lattice[512:]):
            grid = SphereGrid(nodes[::50], phis)
            field = qpd_field(state, grid).values
            for i in range(grid.thetas.size):
                for j in range(0, phis.size, 37):
                    assert field[i, j] == pytest.approx(
                        evaluate_qpd_point(state, grid.thetas[i], phis[j]), abs=1e-12)


class TestResidual:
    """quadrature() minus the rule's value on the state's Dicke populations."""

    @pytest.mark.parametrize("n", [40, 41])
    def test_near_zero_on_every_stage(self, n):
        ops, grid = cached_ops(n), default_grid()
        for n_pulses in range(10):  # stages A..J
            field = qpd_field(scain_state(ops, n_pulses=n_pulses), grid)
            assert abs(quadrature_residual(field, n)) <= 2e-15

    @pytest.mark.slow
    def test_near_zero_on_every_stage_at_n4000(self):
        ops, grid = cached_ops(4000), default_grid()
        for n_pulses in range(10):  # stages A..J
            field = qpd_field(scain_state(ops, n_pulses=n_pulses), grid)
            assert abs(quadrature_residual(field, 4000)) <= 1e-14

    @pytest.mark.parametrize("n, n_phi, gap", [(4, 2, 4), (4, 4, 4), (4, 5, 4), (40, 2, 2),
                                               (40, 3, 2), (40, 361, 40)])
    def test_is_the_rule_minus_its_dicke_values(self, n, n_phi, gap):
        # two Dicke states gap apart alias wherever n_phi divides the gap
        grid = default_grid(181, n_phi)
        dims = EnsembleDims(n)
        amps = np.zeros(n + 1, dtype=complex)
        amps[(n - gap) // 2] = amps[(n + gap) // 2] = 1 / np.sqrt(2)
        rule = [quadrature(qpd_field(basis_state(dims, i), grid), n) for i in range(n + 1)]
        for state in (SpinState(dims, amps), random_state(n, seed=3)):
            expected = quadrature(qpd_field(state, grid), n) - np.abs(state.amps) ** 2 @ rule
            residual = quadrature_residual(qpd_field(state, grid), n)
            assert residual == pytest.approx(expected, abs=1e-14)
        pair = quadrature_residual(qpd_field(SpinState(dims, amps), grid), n)
        assert (abs(pair) > 1e-3) == (gap % n_phi == 0)


class TestExport:
    def test_raw_round_trip(self, dims40, tmp_path):
        field = qpd_field(css_state(dims40, 0.9, 2.8), default_grid(11, 13))
        path = tmp_path / "field.bin"
        data, meta = raw_layout(field, 40, "D")
        path.write_bytes(data)
        (tmp_path / "field.bin.json").write_text(json.dumps(meta))
        values, meta = read_field_raw(path)
        assert np.array_equal(values, field.values)
        assert meta == {"n_theta": 11, "n_phi": 13, "n_atoms": 40, "stage_label": "D"}
