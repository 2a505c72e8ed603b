"""Husimi quasi-probability distribution of a spin state on a sphere grid.

Q(theta, phi) is the squared overlap of the state with the coherent spin
state pointing along (theta, phi).  With the coherent-state resolution of
identity, (N+1)/(4 pi) times the integral of Q over the sphere is 1.
quadrature() takes it with a rectangle rule.  The phi sum is exact (a
full period of a trigonometric polynomial), the theta sum is not: on the
default 181 x 361 grid the Dicke states give 0.99948 .. 1.0000002 at N = 40
but 0.9475 .. 1.0018 at N = 4000, where Q near a pole is narrower than the
theta step.
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


def evaluate_qpd_point(state: SpinState, theta: float, phi: float) -> float:
    """Q at a single direction."""
    n = state.dims.n_atoms
    k = np.arange(n + 1)
    factors = _css_row_factors(n, np.array([theta]))[0]
    overlap = np.sum(np.conj(state.amps[::-1]) * factors * np.exp(1j * k * phi))
    return float(abs(overlap) ** 2)


def qpd_field(state: SpinState, grid: SphereGrid) -> QpdField:
    """Pointwise Q over the grid.

    The overlap factorizes as sum_k conj(psi_{N-k}) c_k(theta) e^{i k phi},
    so the whole field is one (n_theta x dim) @ (dim x n_phi) product.
    """
    n = state.dims.n_atoms
    k = np.arange(n + 1)
    factors = _css_row_factors(n, grid.thetas)  # (n_theta, dim)
    weighted = factors * np.conj(state.amps[::-1])[None, :]
    phase = np.outer(1j * k, grid.phis)  # (dim, n_phi)
    np.exp(phase, out=phase)
    overlap = weighted @ phase
    return QpdField(grid=grid, values=np.abs(overlap) ** 2)


def quadrature(field: QpdField, n_atoms: int) -> float:
    """(N+1)/(4 pi) * sum Q sin(theta) dtheta dphi on a uniform grid."""
    thetas, phis = field.grid.thetas, field.grid.phis
    dtheta = np.diff(thetas)
    dphi = np.diff(phis)
    if not (np.allclose(dtheta, dtheta[0]) and np.allclose(dphi, dphi[0])):
        raise ValueError("quadrature needs uniform grid spacing")
    total = float(np.sum(field.values * np.sin(thetas)[:, None]))
    return (n_atoms + 1) / (4 * np.pi) * total * dtheta[0] * dphi[0]


# --- export -----------------------------------------------------------------


def field_to_csv_rows(field: QpdField):
    """Yield (theta, phi, q) rows in row-major order."""
    for i, theta in enumerate(field.grid.thetas):
        for j, phi in enumerate(field.grid.phis):
            yield theta, phi, field.values[i, j]


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
