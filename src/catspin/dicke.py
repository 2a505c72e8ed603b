"""Collective-spin Hilbert space, Dicke-basis operators and elementary pulses.

An ensemble of N two-level atoms restricted to the permutation-symmetric
subspace is described by a total spin J = N/2.  States live in the
(N+1)-dimensional Dicke basis {|E_0>, ..., |E_N>}, where |E_k> is the
J_z eigenstate with eigenvalue m = k - J (|E_0> = all spins down).

Everything here is exact: z-axis generators are diagonal, J_x and J_y are
the bands of one real tridiagonal, and x/y rotations (y by a diagonal phase
similarity) use J_x's real eigenvectors, the only dense arrays: two half-size
parity blocks from J_x's three-term recurrence at its known spectrum m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Largest ensemble the dense machinery is sized for.  The two half-size J_x
# eigenvector blocks take 64 MB here and their O(N^2) recurrence 0.1 s; a
# qpd command peaks at about 122 MB RSS and a collective one at 100 MB.
N_ATOMS_CAP = 4000


class DimensionError(ValueError):
    """Raised for invalid ensemble sizes or mismatched state/operator dims."""


@dataclass(frozen=True)
class EnsembleDims:
    """Size bookkeeping for an N-atom symmetric ensemble.

    Only the atom count is stored; the total spin j = N/2 and the basis
    dimension N+1 are derived so they can never fall out of sync.
    """

    n_atoms: int

    def __post_init__(self):
        if not isinstance(self.n_atoms, (int, np.integer)):
            raise DimensionError(f"n_atoms must be an integer, got {self.n_atoms!r}")
        if self.n_atoms < 1 or self.n_atoms > N_ATOMS_CAP:
            raise DimensionError(
                f"n_atoms must be in [1, {N_ATOMS_CAP}], got {self.n_atoms}"
            )

    @property
    def j(self) -> float:
        return self.n_atoms / 2

    @property
    def dim(self) -> int:
        return self.n_atoms + 1

    def m_values(self) -> np.ndarray:
        """J_z eigenvalues m = k - j for basis index k = 0 .. N."""
        return np.arange(self.dim) - self.j


@dataclass
class SpinState:
    """Complex amplitudes over the Dicke basis; index k holds <E_k|psi>."""

    dims: EnsembleDims
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.shape != (self.dims.dim,):
            raise DimensionError(
                f"amplitude vector has shape {self.amps.shape}, "
                f"expected ({self.dims.dim},)"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def populations(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def basis_state(dims: EnsembleDims, index: int) -> SpinState:
    """The Dicke state |E_index>."""
    if not 0 <= index <= dims.n_atoms:
        raise DimensionError(f"basis index {index} outside [0, {dims.n_atoms}]")
    amps = np.zeros(dims.dim, dtype=complex)
    amps[index] = 1.0
    return SpinState(dims, amps)


def _ladder_coefficients(dims: EnsembleDims) -> np.ndarray:
    """Raising coefficients sqrt((j-m)(j+m+1)) for m = -j .. j-1."""
    j = dims.j
    m = dims.m_values()[:-1]
    return np.sqrt((j - m) * (j + m + 1.0))


@dataclass(frozen=True)
class OperatorSet:
    """The spin operators of one N, kept as what the pulses need.

    J_z is the diagonal m (and J_z^2 the diagonal jz_sq); J_x is the real
    symmetric tridiagonal with superdiagonal off, and J_y = P J_x P^dagger
    with P = diag(e^{-i pi m/2}).  J_x commutes with the reversal k -> N - k:
    sym_vectors and anti_vectors, the only dense arrays, are its orthogonal
    eigenvectors on the pairs (e_k +- e_{N-k})/sqrt(2) (and e_{N/2} of even
    N), with eigenvalues m[N % 2::2] and m[1 - N % 2::2].  Immutable.
    """

    dims: EnsembleDims
    m: np.ndarray = field(repr=False)
    jz_sq: np.ndarray = field(repr=False)
    off: np.ndarray = field(repr=False)
    sym_vectors: np.ndarray = field(repr=False)
    anti_vectors: np.ndarray = field(repr=False)

    def apply_generator(self, axis: str, amps: np.ndarray) -> np.ndarray:
        """J_axis applied to a vector or a (dim, k) block, in O(dim k)."""
        amps = np.asarray(amps)
        col = (slice(None),) + (None,) * (amps.ndim - 1)
        if axis == "z":
            return self.m[col] * amps
        upper = {"x": self.off, "y": 1j * self.off}[axis][col]  # J[k, k+1]
        out = np.zeros(amps.shape, dtype=np.result_type(upper, amps))
        out[:-1] += upper * amps[1:]
        out[1:] += upper.conj() * amps[:-1]
        return out


def build_operator_set(dims: EnsembleDims) -> OperatorSet:
    """Build the operator set for the Dicke basis of an N-atom ensemble.

    J_z is diagonal with entries m = -j .. j.  J_x and J_y are tridiagonal
    with off-diagonal elements A(j,m)/2 = sqrt((j-m)(j+m+1))/2.  Each J_x
    eigenvector, of lambda = m and reversal parity (-1)^(j-m), follows from
    off[k] v_{k+1} = lambda v_k - off[k-1] v_{k-1} run from the edge to the
    centre, the stable direction (Gautschi, SIAM Rev. 9, 24 (1967)), in O(N^2).
    """
    m, off = dims.m_values(), _ladder_coefficients(dims) / 2.0
    n, (half, odd) = dims.n_atoms, divmod(dims.n_atoms, 2)
    # columns: the symmetric parity's m, then the antisymmetric parity's
    lam, sign = np.concatenate((m[odd::2], m[1 - odd::2])), np.repeat([1.0, -1.0], (half + 1, half + odd))
    v = np.empty((half + 2, n + 1))
    v[0], v[1] = 1.0, lam / off[0]
    for k in range(1, half + 1):
        np.multiply(lam, v[k], out=v[k + 1])
        v[k + 1] -= off[k - 1] * v[k - 1]
        v[k + 1] /= off[k]
        if k % 32 == 0:  # a column grows by up to sqrt(C(N, N/2)), 1e602 at the cap
            big = np.abs(v[k + 1]) > 1e100
            v[: k + 2, big] /= np.abs(v[k + 1, big])
    # the equation left out: rows half, half + 1 mirror N - half, N - half - 1
    miss = np.abs(v[half:] - sign * v[half - 1 + odd : half + 1 + odd][::-1])
    v[: half + odd] *= np.sqrt(2.0)
    blocks = v[: half + 1, : half + 1], v[: half + odd, half + 1 :]
    norms = np.concatenate([np.sqrt(np.einsum("ij,ij->j", b, b)) for b in blocks])
    if not np.max(miss / norms) * off[half] <= 1e-12 * n:
        raise np.linalg.LinAlgError(f"J_x spectrum at N={n} misses m")
    v[: half + 1] /= norms
    ops = OperatorSet(dims, m, m**2, off, *blocks)
    for arr in (ops.m, ops.jz_sq, off, *blocks):
        arr.setflags(write=False)
    return ops


def _check_dims(state: SpinState, ops: OperatorSet):
    if state.dims != ops.dims:
        raise DimensionError(
            f"state is for N={state.dims.n_atoms}, operators for N={ops.dims.n_atoms}"
        )


def css_log_magnitudes(n_atoms: int, c, s) -> np.ndarray:
    """log(sqrt(C(N,k)) |c|^(N-k) |s|^k), k = 0 .. N, broadcast over the
    half-angle cosines c and sines s; -inf where a zero c or s carries a
    nonzero exponent.  log C(N,k) is the running sum of log((N-k+1)/k),
    split so that the large part sums exactly: within 1e-12 up to the cap."""
    k = np.arange(n_atoms + 1)
    terms = np.log((n_atoms - k[1:] + 1) / k[1:])
    coarse = np.round(terms * 2.0**20) / 2.0**20  # multiples of 2^-20 add without rounding
    log_binom = np.concatenate(([0.0], np.cumsum(coarse) + np.cumsum(terms - coarse)))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_c = np.where(n_atoms - k > 0, (n_atoms - k) * np.log(np.abs(c)), 0.0)
        log_s = np.where(k > 0, k * np.log(np.abs(s)), 0.0)
    log_mag = 0.5 * log_binom + log_c + log_s
    # the where() above still produces nan there from 0 * -inf
    dead = ((c == 0.0) & (n_atoms - k > 0)) | ((s == 0.0) & (k > 0))
    return np.where(dead, -np.inf, log_mag)


def css_state(dims: EnsembleDims, theta: float, phi: float) -> SpinState:
    """Coherent spin state with every atom pointing along (theta, phi).

    Amplitude on |E_{N-k}> is sqrt(C(N,k)) e^{ik phi} cos^{N-k}(theta/2)
    sin^k(theta/2); the magnitudes come from css_log_magnitudes and are
    exponentiated after subtracting their maximum.
    """
    n = dims.n_atoms
    k = np.arange(n + 1)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    log_mag = css_log_magnitudes(n, c, s)
    mag = np.exp(log_mag - np.max(log_mag))
    # Half-angle signs (theta outside [0, pi] folds in here) and azimuth.
    signs = np.sign(c) ** (n - k) * np.sign(s) ** k
    amps_k = mag * signs * np.exp(1j * k * phi)
    amps_k /= np.linalg.norm(amps_k)

    amps = amps_k[::-1].copy()  # entry k sits on |E_{N-k}>
    return SpinState(dims, amps)


def _unfold(y: np.ndarray, pairs: int, out: np.ndarray) -> np.ndarray:
    """G^T y into out for the rows of y, with G the parity fold of rotate."""
    np.add(y[:pairs], y[-pairs:], out=out[:pairs])
    np.subtract(y[:pairs], y[-pairs:], out=out[::-1][:pairs])
    np.multiply(y[pairs:-pairs], np.sqrt(2.0), out=out[pairs:-pairs])
    return out


def rotate(ops: OperatorSet, axis: str, angle: float, amps) -> np.ndarray:
    """e^{-i angle J_axis} for axis x or y, applied to a complex vector or a
    (dim, k) block.

    x: R_x = G^T diag(B e^{-i angle lambda} B^T / 2) G per parity block B,
    where the fold G takes a to a_k + a_{N-k} (k < pairs) and sqrt(2)
    a_{N/2} (even N), then to a_k - a_{N-k}; G G^T = 2.  The products are
    real, on float views.  y: R_y = P R_x P^dagger with P = diag(e^{-i pi m/2}).
    """
    dim, pairs, odd = ops.dims.dim, len(ops.anti_vectors), ops.dims.n_atoms % 2
    # per parity: rows of the fold, its eigenvalues' place in m, eigenvectors
    blocks = ((slice(-pairs), slice(odd, None, 2), ops.sym_vectors),
              (slice(-pairs, None), slice(1 - odd, None, 2), ops.anti_vectors))
    phase = 0.5 * np.exp(-1j * angle * ops.m)[:, None]
    twist = np.exp(-0.5j * np.pi * ops.m)[:, None] if axis == "y" else None
    a = np.reshape(amps, (dim, -1))
    a = (np.ascontiguousarray(a, complex) if twist is None else a * twist.conj()).view(float)
    folded, coeffs = np.empty_like(a), np.empty_like(a)
    np.add(a[:-pairs], a[::-1][:-pairs], out=folded[:-pairs])
    np.subtract(a[:pairs], a[::-1][:pairs], out=folded[-pairs:])
    folded[pairs:-pairs] *= np.sqrt(0.5)  # the middle row came out doubled
    del a
    for rows, lam, vecs in blocks:
        np.matmul(vecs.T, folded[rows], out=coeffs[lam])
    np.multiply(coeffs.view(complex), phase, out=coeffs.view(complex))
    for rows, lam, vecs in blocks:
        np.matmul(vecs, coeffs[lam], out=folded[rows])
    out = _unfold(folded, pairs, coeffs).view(complex)
    if twist is not None:
        out *= twist
    return out.reshape(np.shape(amps))


def rotation_rows(ops: OperatorSet, angle: float, first: int, last: int) -> np.ndarray:
    """Rows first .. last - 1 of R_x = e^{-i angle J_x}, last <= N/2 + 1, as
    a (last - first, dim) array; row N - f of R_x is row f reversed.

    R_x = G^T C G (see rotate) is symmetric, so row f is (G^T C G e_f)^T:
    row f of C's two parity blocks, (B[f] e^{-i angle lambda} / 2) B^T,
    unfolded, their sum left of the middle and their difference right of it
    (sqrt(2) times the symmetric one alone for the middle row of even N).
    A block takes one real product for the real part and one for the
    imaginary part, the dense product's flops.  Its lambdas step by 2, so at
    a multiple of pi/2 its phases are e^{-i angle lambda_0} times real
    signs, and one product does: half the flops.
    """
    pairs, odd = len(ops.anti_vectors), ops.dims.n_atoms % 2
    out = np.zeros((last - first, ops.dims.dim), dtype=complex)
    quarters = 2.0 * angle / np.pi
    for vecs, lam, sign in ((ops.sym_vectors, ops.m[odd::2], 1.0),
                            (ops.anti_vectors, ops.m[1 - odd :: 2], -1.0)):
        phase = 0.5 * np.exp(-1j * angle * lam)
        terms = ([(phase.real, 1.0), (phase.imag, 1j)] if quarters != round(quarters) else
                 [(0.5 - (np.arange(len(lam)) * round(quarters) % 2), np.exp(-1j * angle * lam[0]))])
        for scale, factor in terms:
            y = (vecs[first:last] * scale) @ vecs.T
            out[: len(y), :pairs] += factor * y[:, :pairs]
            out[: len(y), -pairs:] += (sign * factor) * y[:, pairs - 1 :: -1]
            if sign > 0:
                out[:, pairs:-pairs] += (np.sqrt(2.0) * factor) * y[:, pairs:]
    out[len(ops.anti_vectors[first:last]) :] *= np.sqrt(2.0)  # even N's middle row
    return out


def total_spin_expectation(state: SpinState, ops: OperatorSet) -> float:
    """<J_x^2 + J_y^2 + J_z^2>; equals j(j+1) on the symmetric subspace."""
    _check_dims(state, ops)
    return float(
        sum(np.linalg.norm(ops.apply_generator(axis, state.amps)) ** 2 for axis in "xyz")
    )


# --- pulses ---------------------------------------------------------------


@dataclass(frozen=True)
class Pulse:
    """One element of a protocol sequence.

    kind is 'rotate' (axis, angle), 'squeeze' (mu, sign: the applied
    unitary is e^{+i sign mu J_z^2}) or 'dark_phase' (fraction, sign: the
    applied unitary is e^{-i sign fraction*phi J_z} for scan phase phi).
    """

    kind: str
    axis: str | None = None
    angle: float | None = None
    mu: float | None = None
    fraction: float | None = None
    sign: int | None = None


def rotate_pulse(axis: str, angle: float) -> Pulse:
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    if not np.isfinite(angle):
        raise ValueError(f"rotation angle must be finite, got {angle}")
    return Pulse(kind="rotate", axis=axis, angle=float(angle))


def squeeze_pulse(mu: float, sign: int) -> Pulse:
    if not np.isfinite(mu):
        raise ValueError(f"squeezing strength must be finite, got {mu}")
    if sign not in (1, -1):
        raise ValueError(f"squeeze sign must be +1 or -1, got {sign}")
    return Pulse(kind="squeeze", mu=float(mu), sign=int(sign))


def dark_pulse(fraction: float, sign: int) -> Pulse:
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"dark-zone fraction must be in (0, 1], got {fraction}")
    if sign not in (1, -1):
        raise ValueError(f"dark-zone sign must be +1 or -1, got {sign}")
    return Pulse(kind="dark_phase", fraction=float(fraction), sign=int(sign))


def pulse_diagonal(ops: OperatorSet, pulse: Pulse, phi: float, mu=None) -> np.ndarray:
    """Diagonal of a z rotation, a squeeze or a dark-zone pulse, as a 1-d
    array; phi binds the dark-zone phase, mu (if given) the squeeze strength."""
    if pulse.kind == "rotate" and pulse.axis == "z":
        return np.exp(-1j * pulse.angle * ops.m)
    if pulse.kind == "squeeze":
        strength = pulse.mu if mu is None else float(mu)
        return np.exp(1j * pulse.sign * strength * ops.jz_sq)
    if pulse.kind == "dark_phase":
        return np.exp(-1j * pulse.sign * (pulse.fraction * phi) * ops.m)
    raise ValueError(f"not a diagonal pulse: {pulse.kind} {pulse.axis}")


def apply_pulses(ops: OperatorSet, pulses, amps, phi: float = 0.0, mu=None) -> np.ndarray:
    """The pulses applied in order, pulses[0] first, to a complex vector or
    a (dim, k) block (the identity gives the unitary of the sequence).

    Adjacent rotations about one axis merge into a single rotation.  x/y
    rotations go through rotate, every other pulse multiplies by its
    pulse_diagonal from the left.
    """
    merged: list[Pulse] = []
    for pulse in pulses:
        if merged and pulse.kind == merged[-1].kind == "rotate" and pulse.axis == merged[-1].axis:
            merged[-1] = rotate_pulse(pulse.axis, merged[-1].angle + pulse.angle)
        else:
            merged.append(pulse)
    out = amps
    for pulse in merged:
        if pulse.kind == "rotate" and pulse.axis in ("x", "y"):
            out = rotate(ops, pulse.axis, pulse.angle, out)
        else:
            out = pulse_diagonal(ops, pulse, phi, mu).reshape((-1,) + (1,) * (np.ndim(out) - 1)) * out
    return out


def apply_pulse(
    state: SpinState, ops: OperatorSet, pulse: Pulse, phi: float, mu_override=None
) -> SpinState:
    """Apply one pulse, binding the scan phase phi and optional mu override."""
    _check_dims(state, ops)
    return SpinState(state.dims, apply_pulses(ops, (pulse,), state.amps, phi, mu_override))


# kept for bench/spans.py, which times this name as the dicke.apply_rotation layer
def apply_rotation(state: SpinState, ops: OperatorSet, axis: str, angle: float) -> SpinState:
    """Apply e^{-i angle J_axis}."""
    return apply_pulse(state, ops, rotate_pulse(axis, angle), 0.0)

