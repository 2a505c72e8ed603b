"""Husimi quasi-probability distribution of a spin state on a sphere grid.

Q(theta, phi) is the squared overlap of the state with the coherent spin
state pointing along (theta, phi).  With the coherent-state resolution of
identity, (N+1)/(4 pi) times the integral of Q over the sphere is 1.
quadrature() takes it with a rectangle rule over the whole sphere.  The
theta sum is not exact: on the default 181 x 361 grid the Dicke states give
0.99948 .. 1.0000002 at N = 40 but 0.9475 .. 1.0018 at N = 4000, where Q
near a pole is narrower than the theta step.  The phi sum is exact while
n_phi > N; past that, quadrature_residual() reads the aliasing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from catspin.dicke import SpinState, css_log_magnitudes


@dataclass(frozen=True)
class SphereGrid:
    """Rectangular (theta, phi) grid; rows are theta, columns are phi."""

    thetas: np.ndarray
    phis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "thetas", np.asarray(self.thetas, dtype=float))
        object.__setattr__(self, "phis", np.asarray(self.phis, dtype=float))
        for name, axis, lo, hi in (
            ("thetas", self.thetas, 0.0, np.pi),
            ("phis", self.phis, 0.0, 2 * np.pi),
        ):
            if axis.size < 2:
                raise ValueError(f"{name} needs at least 2 points")
            if np.any(np.diff(axis) <= 0):
                raise ValueError(f"{name} must be strictly increasing")
            if axis[0] < lo - 1e-12 or axis[-1] > hi + 1e-12:
                raise ValueError(f"{name} outside [{lo}, {hi}]")
        if self.phis[-1] >= 2 * np.pi:
            raise ValueError("phis must stay below 2 pi (periodic axis)")


def default_grid(n_theta: int = 181, n_phi: int = 361) -> SphereGrid:
    """Uniform grid, poles included, periodic phi axis without the endpoint."""
    return SphereGrid(
        thetas=np.linspace(0.0, np.pi, n_theta),
        phis=np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False),
    )


@dataclass(frozen=True)
class QpdField:
    """Husimi values on a sphere grid, row-major (theta outer, phi inner)."""

    grid: SphereGrid
    values: np.ndarray
    phi_means: np.ndarray | None = None  # exact phi average of Q per theta row

    def __post_init__(self):
        expected = (self.grid.thetas.size, self.grid.phis.size)
        if self.values.shape != expected:
            raise ValueError(f"field shape {self.values.shape} != grid {expected}")


def _css_row_factors(n_atoms: int, thetas: np.ndarray) -> np.ndarray:
    """Coherent-state magnitudes c_k(theta) = sqrt(C(N,k)) cos^(N-k) sin^k
    of the half angle, one row per theta; log-domain for stability."""
    c = np.cos(thetas / 2.0)[:, None]
    s = np.sin(thetas / 2.0)[:, None]
    return np.exp(css_log_magnitudes(n_atoms, c, s))


def _is_lattice(axis: np.ndarray, stop: float, endpoint: bool) -> bool:
    """Whether axis is the uniform lattice from 0 to stop, within 1e-12."""
    return np.allclose(axis, np.linspace(0, stop, len(axis), endpoint=endpoint), rtol=0, atol=1e-12)


def evaluate_qpd_point(state: SpinState, theta: float, phi: float) -> float:
    """Q at a single direction, theta in [0, pi] as on a SphereGrid."""
    if not (-1e-12 <= theta <= np.pi + 1e-12 and np.isfinite(phi)):
        raise ValueError(f"need theta in [0, pi] and a finite phi, got ({theta}, {phi})")
    factors = _css_row_factors(state.dims.n_atoms, np.array([theta]))[0]
    k = np.arange(factors.size)
    overlap = np.sum(np.conj(state.amps[::-1]) * factors * np.exp(1j * k * phi))
    return float(abs(overlap) ** 2)


def qpd_field(state: SpinState, grid: SphereGrid) -> QpdField:
    """Pointwise Q over the grid.

    The overlap is sum_k conj(psi_{N-k}) c_k(theta) e^{i k phi}.  On the lattice phi_j =
    2 pi j / n_phi, e^{i k phi_j} has period n_phi in k, so the weighted coefficients are summed
    modulo n_phi and the field is one (n_theta x p) @ (p x n_phi) product, p = min(dim, n_phi):
    O(n_theta (dim + n_phi^2)).  Other grids keep p = dim.  At N = 4000 on 181 x 361, SCAIN cat
    stages are within 2.5e-14 of exact phases (k j mod n_phi, long double); 1.1e-13 unfolded.
    """
    n = state.dims.n_atoms
    factors = _css_row_factors(n, grid.thetas)  # (n_theta, dim)
    weighted = factors * np.conj(state.amps[::-1])[None, :]
    phi_means = np.square(factors) @ np.abs(state.amps[::-1]) ** 2
    period = min(n + 1, grid.phis.size) if _is_lattice(grid.phis, 2 * np.pi, False) else n + 1
    folded = weighted[:, :period]
    for start in range(period, n + 1, period):  # slice-adds, the last one may be short
        folded[:, : min(period, n + 1 - start)] += weighted[:, start : start + period]
    phase = np.exp(np.outer(1j * np.arange(period), grid.phis))  # (p, n_phi)
    return QpdField(grid=grid, values=np.abs(folded @ phase) ** 2, phi_means=phi_means)


def quadrature(field: QpdField, n_atoms: int) -> float:
    """(N+1)/(4 pi) * sum Q sin(theta) dtheta dphi over the whole sphere."""
    thetas, phis = field.grid.thetas, field.grid.phis
    if not (_is_lattice(thetas, np.pi, True) and _is_lattice(phis, 2 * np.pi, False)):
        raise ValueError("quadrature needs thetas uniform on [0, pi] and phis 2 pi j / n_phi")
    total = float(np.sum(field.values * np.sin(thetas)[:, None]))
    return (n_atoms + 1) / (4 * np.pi) * total * np.pi / (thetas.size - 1) * 2 * np.pi / phis.size


def quadrature_residual(field: QpdField, n_atoms: int) -> float:
    """quadrature() less sum_j |psi_j|^2 quadrature(|E_j>): phi aliasing plus rounding."""
    return quadrature(QpdField(field.grid, field.values - field.phi_means[:, None]), n_atoms)


# --- export -----------------------------------------------------------------


def raw_layout(field: QpdField, n_atoms: int, stage_label: str) -> tuple[bytes, dict]:
    """The raw export: row-major little-endian float64 values and the
    sidecar {n_theta, n_phi, n_atoms, stage_label}."""
    meta = {
        "n_theta": int(field.grid.thetas.size),
        "n_phi": int(field.grid.phis.size),
        "n_atoms": int(n_atoms),
        "stage_label": stage_label,
    }
    return np.ascontiguousarray(field.values, dtype="<f8").tobytes(), meta


def read_field_raw(path) -> tuple[np.ndarray, dict]:
    """Read back a raw field and its sidecar (for round-trip checks)."""
    with open(str(path) + ".json") as fh:
        meta = json.load(fh)
    with open(path, "rb") as fh:
        data = fh.read()
    values = np.frombuffer(data, dtype="<f8").reshape(meta["n_theta"], meta["n_phi"])
    return values, meta
