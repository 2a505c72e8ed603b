"""Law checks for the artifacts a workload pass writes.

Each check reads one artifact and returns None when it holds, or a one-line
reason when it does not.  The laws are the ones that are exact for the
recipe (the SCAIN fringe and CSD laws, the CAC up-count, the Heisenberg
endpoint, the Husimi quadrature, f_ideal = 10 log10 N); every artifact is
also checked for its shape and for the Heisenberg bound Lambda <= N.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import gammaln

LAW_TOL = 1e-9  # fringe, CSD and CAC laws
HL_TOL = 1e-6  # Heisenberg endpoint and bound, relative
ODD_TOL = 0.05  # N = 41 endpoint 1/sqrt(N), relative
QUADRATURE_TOL = 1e-3


def parse_angle(text: str) -> float:
    """'0.5pi' -> 0.5*pi, as the catspin CLI reads angles."""
    if text.endswith("pi"):
        head = text[:-2]
        factor = {"": 1.0, "-": -1.0}.get(head)
        return (float(head) if factor is None else factor) * math.pi
    return float(text)


def _read_csv(path: Path, header: list[str]) -> np.ndarray:
    """Rows of a CSV artifact as floats; empty cells read as nan."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"header {rows[0] if rows else None} != {header}")
    return np.array([[float(c) if c else math.nan for c in row] for row in rows[1:]])


def _worst(values: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(values - want))) if values.size else 0.0


def check_fringe(path: Path, n: int, count: int, law: str | None) -> str | None:
    data = _read_csv(path, ["phi", "signal", "sds", "pgs", "lambda"])
    if data.shape != (count, 5):
        return f"{data.shape[0]} rows, expected {count}"
    phi, signal, sds, _, lam = data.T
    if not np.all(np.isfinite(data[:, :4])):
        return "non-finite phi/signal/sds/pgs"
    if np.any(sds < 0) or np.any(sds > n / 2 + LAW_TOL):
        return "SDS outside [0, N/2]"
    defined = lam[np.isfinite(lam)]
    if np.any(defined > n * (1 + HL_TOL)):
        return f"Lambda {defined.max():.9g} above the Heisenberg limit {n}"
    if law == "scain_cd":
        err = _worst(signal, -(n / 2) * np.cos(n * phi))
    elif law == "cac_upcount":
        err = _worst(signal, n * np.cos(phi / 2) ** 2)
    else:
        return None
    return None if err <= LAW_TOL else f"{law} law off by {err:.3g}"


def check_sensitivity(path: Path, n: int, count: int) -> str | None:
    data = _read_csv(path, ["mu", "lambda", "phi_star"])
    if data.shape != (count, 3):
        return f"{data.shape[0]} rows, expected {count}"
    mu, lam, _ = data.T
    defined = lam[np.isfinite(lam)]
    if np.any(defined <= 0) or np.any(defined > 1 + HL_TOL):
        return "Lambda/N outside (0, 1]"
    end = np.isclose(mu, math.pi / 2, rtol=0, atol=1e-12)
    if end.any():
        got = float(lam[end][0])
        if n % 2 == 0 and not abs(got - 1) <= HL_TOL:
            return f"Lambda/N at mu = pi/2 is {got!r}, expected 1"
        if n % 2 == 1 and not abs(got * math.sqrt(n) - 1) <= ODD_TOL:
            return f"Lambda/N at mu = pi/2 is {got!r}, expected 1/sqrt({n})"
    return None


def _rule(n: int, n_theta: int, n_phi: int) -> np.ndarray:
    """Per-theta-row weights of (N+1)/(4 pi) times the rectangle-rule
    integral over the default grid (theta poles included, periodic phi
    without its endpoint)."""
    thetas = np.linspace(0.0, math.pi, n_theta)
    cell = (math.pi / (n_theta - 1)) * (2 * math.pi / n_phi)
    return (n + 1) / (4 * math.pi) * cell * np.sin(thetas)


def husimi_quadrature(values: np.ndarray, n: int) -> float:
    return float(_rule(n, *values.shape) @ values.sum(axis=1))


def husimi_weights(n: int, n_theta: int, n_phi: int) -> np.ndarray:
    """The quadrature of each Dicke state |E_k>, whose Q is the closed-form
    C(N,k) cos^(2(N-k))(theta/2) sin^(2k)(theta/2).  The continuum integral
    is 1 for every k; on the 181-point theta grid the rule gives
    0.99948 .. 1.0000002 at N = 40 and 0.9475 .. 1.0018 at N = 4000 (pole
    states fall short).  A normalised state's quadrature is their
    population-weighted mean, up to phi aliasing between components more
    than n_phi apart."""
    k = np.arange(n + 1)
    half = np.linspace(0.0, math.pi, n_theta)[:, None] / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                 + np.where(k < n, 2 * (n - k) * np.log(np.cos(half)), 0.0)
                 + np.where(k > 0, 2 * k * np.log(np.sin(half)), 0.0))
    return n_phi * _rule(n, n_theta, n_phi) @ np.exp(log_q)


def check_qpd_raw(path: Path, n: int) -> str | None:
    with open(f"{path}.json") as fh:
        meta = json.load(fh)
    if meta.get("n_atoms") != n:
        return f"sidecar n_atoms {meta.get('n_atoms')} != {n}"
    raw = path.read_bytes()
    shape = (meta["n_theta"], meta["n_phi"])
    if len(raw) != 8 * shape[0] * shape[1]:
        return f"{len(raw)} bytes for a {shape} field"
    values = np.frombuffer(raw, dtype="<f8").reshape(shape)
    if not np.all(np.isfinite(values)) or values.min() < -LAW_TOL or values.max() > 1 + LAW_TOL:
        return "field values outside [0, 1]"
    q, weights = husimi_quadrature(values, n), husimi_weights(n, *shape)
    if not weights.min() - QUADRATURE_TOL <= q <= weights.max() + QUADRATURE_TOL:
        return (f"Husimi quadrature {q!r} outside the grid's range "
                f"[{weights.min():.6f}, {weights.max():.6f}] for a normalised state")
    return None


def check_collective(path: Path, n: int, law_phi: str | None) -> str | None:
    data = _read_csv(path, ["index", "m", "population"])
    if data.shape != (n + 1, 3):
        return f"{data.shape[0]} rows, expected {n + 1}"
    pops = data[:, 2]
    if not abs(pops.sum() - 1) <= LAW_TOL:
        return f"populations sum to {pops.sum()!r}"
    if law_phi is not None:
        want = math.cos(n * parse_angle(law_phi) / 2) ** 2
        if not abs(pops[0] - want) <= LAW_TOL:
            return f"|E_0> population {pops[0]!r}, CSD law gives {want!r}"
    return None


def check_cavity(path: Path, n: float, count: int) -> str | None:
    data = _read_csv(
        path, ["cooperativity", "theta", "f_exact_db", "f_approx_db", "f_ideal_db"]
    )
    if data.shape != (count, 5):
        return f"{data.shape[0]} rows, expected {count}"
    err = _worst(data[:, 4], np.full(count, 10 * math.log10(n)))
    return None if err <= 1e-12 else f"f_ideal_db off 10 log10 N by {err:.3g}"


def check_excess_noise(path: Path, n: int, count: int) -> str | None:
    data = _read_csv(path, ["delta_s_en", "crain", "tact", "esp", "cd_scain", "csd_scain"])
    if data.shape != (count, 6):
        return f"{data.shape[0]} rows, expected {count}"
    en, crain = data[:, 0], data[:, 1]
    # conventional interferometer: slope N/2 over sqrt(QPN^2 + EN^2), QPN = sqrt(N)/2
    err = _worst(crain / ((n / 2) / np.sqrt(n / 4 + en**2)), np.ones(count))
    if err > 1e-12:
        return f"CRAIN column off its closed form by {err:.3g} (relative)"
    if np.any(data[:, 1:] <= 0) or np.any(data[:, 1:] > n * (1 + HL_TOL)):
        return "Lambda outside (0, N]"
    return None


def check_parity(path: Path, even: float, odd: float) -> str | None:
    with open(path) as fh:
        got = json.load(fh)["parity_average"]
    want = math.sqrt((even**2 + odd**2) / 2)
    return None if abs(got - want) <= 1e-12 * want else f"parity average {got!r} != {want!r}"


CHECKS = {
    "fringe": check_fringe,
    "sensitivity": check_sensitivity,
    "qpd_raw": check_qpd_raw,
    "collective": check_collective,
    "cavity": check_cavity,
    "excess_noise": check_excess_noise,
    "parity": check_parity,
}


def check_command(command, out_dir: Path, exit_code: int) -> tuple[str | None, bool]:
    """(reason, documented) for one command of a pass.

    reason is None when the command exited 0 and its artifact holds its
    laws.  documented is True when the failure is the one the recipe is
    documented to have: that exit code, and no artifact left behind.
    """
    path = out_dir / command.out
    if exit_code != 0:
        documented = exit_code == command.expect_exit and not path.exists()
        return f"exit {exit_code}", documented
    try:
        return CHECKS[command.check](path, **command.params), False
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable artifact: {exc}", False
