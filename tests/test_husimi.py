import json

import numpy as np
import pytest

from catspin.dicke import EnsembleDims, SpinState, apply_rotation, basis_state, css_state
from catspin.husimi import (
    QpdField,
    SphereGrid,
    default_grid,
    evaluate_qpd_point,
    field_to_csv_rows,
    qpd_field,
    quadrature,
    raw_layout,
    read_field_raw,
)
from catspin.protocols import ProtocolParams, builtin, run

from conftest import cached_ops


def scain_state(ops, phi=np.pi / 80, n_pulses=None):
    spec = builtin("scain", ProtocolParams(mu=np.pi / 2, ara="x", xi=-1))
    return run(spec, ops.dims, ops, phi, n_pulses=n_pulses)


def unit_vector(theta, phi):
    return np.stack(np.broadcast_arrays(
        np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)), axis=-1)


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


class TestExport:
    def test_csv_rows_row_major(self, dims40):
        grid = default_grid(3, 4)
        field = qpd_field(css_state(dims40, 0.5, 0.5), grid)
        rows = list(field_to_csv_rows(field))
        assert len(rows) == 12
        assert rows[0][0] == grid.thetas[0] and rows[0][1] == grid.phis[0]
        assert rows[4][0] == grid.thetas[1] and rows[4][1] == grid.phis[0]

    def test_raw_round_trip(self, dims40, tmp_path):
        field = qpd_field(css_state(dims40, 0.9, 2.8), default_grid(11, 13))
        path = tmp_path / "field.bin"
        data, meta = raw_layout(field, 40, "D")
        path.write_bytes(data)
        (tmp_path / "field.bin.json").write_text(json.dumps(meta))
        values, meta = read_field_raw(path)
        assert np.array_equal(values, field.values)
        assert meta == {"n_theta": 11, "n_phi": 13, "n_atoms": 40, "stage_label": "D"}
