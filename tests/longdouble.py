"""A long-double reference for the scans, which shares no rounding with them.

J_x's eigenvectors come from the three-term recurrence that
dicke.build_operator_set runs, off[k] v_{k+1} = lambda v_k - off[k-1] v_{k-1}
from the edge to the centre, here in np.longdouble for every lambda = m, the
rows past the centre mirrored by the reversal parity (-1)^(j - lambda).  No
column is rescaled: it grows to sqrt(C(N, N/2)), 1e300 at N = 1000, far
inside long double's range.  Every pulse of the unfolded protocol is then
applied in long double, carrying the exact phase derivative by the product
rule as tests/test_scan_oracle.py's oracle does.  Rotation angles and squeeze
strengths that are float multiples of pi/2 are taken as the same multiples of
long double's pi/2, so mu = np.pi / 2 is the Heisenberg point itself.

Where long double is plain double (np.finfo(np.longdouble).eps > 1e-18),
the reference shares float's rounding and its users skip.
"""

import functools

import numpy as np

LD = np.longdouble
CLD = np.clongdouble
PI = 4 * np.arctan(LD(1))
AVAILABLE = np.finfo(LD).eps <= 1e-18


def exact(value: float):
    """value in long double, a float multiple of pi/2 as that multiple of pi/2."""
    quarters = value / (np.pi / 2)
    return LD(round(quarters)) * (PI / 2) if quarters == round(quarters) else LD(value)


@functools.lru_cache(maxsize=4)
def jx_eigenvectors(n: int):
    """(m, V): the J_z eigenvalues m and the orthonormal J_x eigenvectors
    V[:, c] of lambda = m[c], in long double."""
    dim, half = n + 1, n // 2
    m = np.arange(dim, dtype=LD) - LD(n) / 2
    off = np.sqrt((LD(n) / 2 - m[:-1]) * (LD(n) / 2 + m[:-1] + 1)) / 2
    v = np.zeros((dim, dim), dtype=LD)
    v[0] = 1
    if n:
        v[1] = m / off[0]
    for k in range(1, half + 1):
        v[k + 1] = (m * v[k] - off[k - 1] * v[k - 1]) / off[k]
    parity = np.where((n - np.arange(dim)) % 2 == 0, LD(1), LD(-1))  # (-1)^(j - lambda)
    v[n - half:] = (parity * v[: half + 1])[::-1]
    if n % 2 == 0:  # the middle row: its own mirror, zero where antisymmetric
        v[half] *= parity > 0
    v /= np.sqrt(np.sum(v * v, axis=0))
    return m, v


def _rotate(n: int, axis: str, angle, block):
    """e^{-i angle J_axis} on a (dim, k) complex long-double block."""
    m, v = jx_eigenvectors(n)
    twist = np.exp(CLD(-0.5j) * PI * m)[:, None] if axis == "y" else None
    if axis == "z":
        return np.exp(CLD(-1j) * angle * m)[:, None] * block
    if twist is not None:
        block = block * twist.conj()
    coef = np.dot(v.T, block.real) + 1j * np.dot(v.T, block.imag)
    coef *= np.exp(CLD(-1j) * angle * m)[:, None]  # lambda = m[c]
    out = np.dot(v, coef.real) + 1j * np.dot(v, coef.imag)
    return out * twist if twist is not None else out


def reference(spec, n: int, phis, mu=None):
    """(signal, SDS, dS/dphi) of spec at each phi, in long double."""
    m, _ = jx_eigenvectors(n)
    phis = np.asarray(phis, dtype=LD)
    k = len(phis)
    state = np.zeros((n + 1, 1), dtype=CLD)  # psi alone until the first dark zone
    state[0] = 1
    for pulse in spec.pulses:
        if pulse.kind == "dark_phase":
            if state.shape[1] == 1:  # psi | dpsi/dphi, one column each per phi
                state = np.hstack([np.repeat(state, k, axis=1), np.zeros((n + 1, k), CLD)])
            rate = LD(pulse.sign) * LD(pulse.fraction)
            state *= np.tile(np.exp(CLD(-1j) * rate * np.outer(m, phis)), 2)
            state[:, k:] += CLD(-1j) * rate * m[:, None] * state[:, :k]
        elif pulse.kind == "squeeze":
            strength = exact(pulse.mu if mu is None else float(mu))
            state *= np.exp(CLD(1j) * LD(pulse.sign) * strength * m * m)[:, None]
        else:
            state = _rotate(n, pulse.axis, exact(pulse.angle), state)
    psi, dpsi = state[:, :k], state[:, k:]
    pops = (psi * psi.conj()).real
    if spec.detection.kind == "csd":
        idx = spec.detection.index % (n + 1)
        p = pops[idx]
        rest = np.delete(pops, idx, axis=0).sum(axis=0)
        return p, np.sqrt(p * rest), 2 * (psi[idx].conj() * dpsi[idx]).real
    mean = m @ pops
    var = np.einsum("ij,ij->j", (m[:, None] - mean) ** 2, pops)
    signal = mean + (LD(n) / 2 if spec.detection.add_j else 0)
    return signal, np.sqrt(var), 2 * np.einsum("ij,ij->j", psi.conj(), m[:, None] * dpsi).real
