"""Collective-spin Hilbert space, Dicke-basis operators and elementary pulses.

An ensemble of N two-level atoms restricted to the permutation-symmetric
subspace is described by a total spin J = N/2.  States live in the
(N+1)-dimensional Dicke basis {|E_0>, ..., |E_N>}, where |E_k> is the
J_z eigenstate with eigenvalue m = k - J (|E_0> = all spins down).

Everything here is exact: z-axis generators are diagonal, J_x and J_y are
the bands of one real tridiagonal, and x/y rotations (y by a diagonal phase
similarity) use J_x's real eigenvectors, the only dense array: those of
lambda >= 0 in each reversal parity, from J_x's three-term recurrence at its
known spectrum m.  The eigenvector of -lambda is that of lambda with the
signs of its odd-k rows flipped, of the same parity at even N and of the
other at odd N; lambda = 0 (even N) is its own mirror and counts once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Largest ensemble the dense machinery is sized for.  The J_x eigenvectors of
# lambda >= 0 take 32 MB here and their O(N^2) recurrence about 0.05 s; a qpd
# command peaks at about 89 MB RSS and a collective one at 66 MB.
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
    its orthogonal eigenvectors live on the pairs (e_k +- e_{N-k})/sqrt(2)
    (and e_{N/2} of even N), symmetric for lambda = m with j - m even and
    antisymmetric for j - m odd.  J_x anticommutes with D = diag((-1)^k), so
    the eigenvector of -lambda is D times that of lambda: of the same
    reversal parity at even N, of the other at odd N.  lambda = 0 (even N)
    is its own mirror and counts once.

    Only lambda >= 0 is kept.  vectors, the only dense array, holds column
    c of parity b (0 symmetric, 1 antisymmetric) at vectors[b, :, c], of
    lambda = m[N - 2c - b], in pair coordinates; it is zero past each
    parity's own rows and columns: (N // 2 + 1, N // 4 + 1) symmetric, of
    lambda = j, j - 2, ..., and ((N + 1) // 2, (N // 2 + 1) // 2) antisymmetric.
    Immutable.
    """

    dims: EnsembleDims
    m: np.ndarray = field(repr=False)
    jz_sq: np.ndarray = field(repr=False)
    off: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)

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
    It runs for lambda >= 0 only: at -lambda the same steps give (-1)^k v_k
    bit for bit, as negation is exact.
    """
    m, off = dims.m_values(), _ladder_coefficients(dims) / 2.0
    n, (half, odd) = dims.n_atoms, divmod(dims.n_atoms, 2)
    cols = (half + 2) // 2
    # lambda = m[N - 2c - b] at [b, c]: both parities' lambda >= 0, and one
    # lambda < 0 that pads the antisymmetric columns where they are fewer
    lam = m[::-1][: 2 * cols].reshape(cols, 2).T
    sign = np.array([[1.0], [-1.0]])
    v = np.empty((half + 2, 2, cols))
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
    norms = np.stack([np.sqrt(np.einsum("ij,ij->j", b, b))
                      for b in (v[: half + 1, 0], v[: half + odd, 1])])
    if not np.max(miss / norms) * off[half] <= 1e-12 * n:
        raise np.linalg.LinAlgError(f"J_x spectrum at N={n} misses m")
    v[: half + 1] /= norms
    v[half + 1] = 0.0  # past the rows and columns of each parity
    v[half + odd :, 1] = 0.0
    v[:, 1, (half + 1) // 2 :] = 0.0
    ops = OperatorSet(dims, m, m**2, off, v.transpose(1, 0, 2)[:, : 2 * cols])
    for arr in (ops.m, ops.jz_sq, off, ops.vectors):
        arr.setflags(write=False)
    return ops


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


def _unfold(sym: np.ndarray, anti: np.ndarray, out: np.ndarray) -> np.ndarray:
    """G^T y into out for the fold rows y of each parity, with G the fold of
    rotate; the symmetric rows past the pairs are even N's middle row."""
    pairs = len(anti)
    np.add(sym[:pairs], anti, out=out[:pairs])
    np.subtract(sym[:pairs], anti, out=out[::-1][:pairs])
    np.multiply(sym[pairs : len(out) - pairs], np.sqrt(2.0), out=out[pairs:-pairs])
    return out


def _phases(ops: OperatorSet, angle: float) -> np.ndarray:
    """e^{-i angle lambda} at each column of ops.vectors, (2, columns);
    1/2 at lambda = 0, which is its own mirror and counts once."""
    n, cols = ops.dims.n_atoms, ops.vectors.shape[2]
    phase = np.exp((-1j * angle) * ops.m[::-1][: 2 * cols].reshape(cols, 2).T)
    phase[n // 2 % 2, n // 4 : n // 4 + 1 - n % 2] = 0.5  # lambda = 0 is m[N/2], of even N
    return phase


def rotate(ops: OperatorSet, axis: str, angle: float, amps) -> np.ndarray:
    """e^{-i angle J_x} or e^{-i angle J_y} applied to a complex vector or a
    (dim, k) block.

    x: R_x = G^T diag(B e^{-i angle lambda} B^T / 2) G per parity block B,
    where the fold G takes a to a_k + a_{N-k} (k < pairs) and sqrt(2)
    a_{N/2} (even N), then to a_k - a_{N-k}; G G^T = 2.  B keeps only its
    columns of lambda >= 0, H; the vector of -lambda is D v with
    D = diag((-1)^k), whose coefficient is v . D a (see OperatorSet), and
    lambda = 0 counts once, by its phase halved.  Split a into its even-k and
    odd-k rows, z_e = H^T G a_e and z_o = H^T G a_o: lambda's coefficient is
    z_e + z_o and -lambda's z_e - z_o.  Then R_x a is the even rows of
    G^T H (c z_e - i s z_o) with the odd rows of G^T H (c z_o - i s z_e),
    c - i s from _phases.  At even N the reversal keeps the parity of k:
    G a_e is G a on the even fold rows and G a_o on the odd ones, so each
    product takes alternate rows, half the flops of the full blocks.  At
    odd N fold row i holds a_i and a_{N-i}, one of each parity, so G a_e
    and G a_o sit side by side and one product takes all rows, the full
    blocks' flops.  Each reads H once, half the bytes of the full blocks.
    Both parities run as one stacked real product, on float views.
    y: R_y = P R_x P^dagger with P = diag(e^{-i pi m/2}).
    """
    dim, odd = ops.dims.dim, ops.dims.n_atoms % 2
    pairs, vecs = dim // 2, ops.vectors
    rows, cols = vecs.shape[1:]
    twist = np.exp(-0.5j * np.pi * ops.m)[:, None] if axis == "y" else None
    a = np.reshape(amps, (dim, -1))
    a = (np.ascontiguousarray(a, complex) if twist is None else a * twist.conj()).view(float)
    k = a.shape[1]
    # fold rows of both parities; those past a parity's own rows meet its zero rows
    top, bottom = a[:rows], a[::-1][:rows]
    if odd:  # G a_e beside G a_o: a_i in the slot of i's parity, +-a_{N-i} in the other
        folded = np.empty((2, rows, 2, k))
        folded[:, ::2, 0], folded[:, 1::2, 1] = top[::2], top[1::2]
        folded[0, ::2, 1], folded[0, 1::2, 0] = bottom[::2], bottom[1::2]
        np.negative(bottom[::2], out=folded[1, ::2, 1])
        np.negative(bottom[1::2], out=folded[1, 1::2, 0])
        folded = folded.reshape(2, rows, 2 * k)
    else:  # G a: its even fold rows are G a_e, its odd ones G a_o
        folded = np.empty((2, rows, k))
        np.add(top, bottom, out=folded[0])
        np.subtract(top, bottom, out=folded[1])
        folded[0, pairs : dim - pairs] *= np.sqrt(0.5)  # the middle row came out doubled
    del a, top, bottom

    def split(x):  # even N: (parity, fold-row parity, its rows, width); odd N: all rows
        return x[:, None] if odd else x.reshape(2, cols, 2, -1).transpose(0, 2, 1, 3)

    room = np.matmul(split(vecs).mT, split(folded))
    z = room.transpose(0, 2, 1, 3).reshape(2, cols, 2, k).view(complex)  # z_e beside z_o
    phase = _phases(ops, angle)[:, :, None, None]  # c - i s
    spare = folded.reshape(-1)[: room.size].view(complex).reshape(z.shape)  # folded is free
    np.multiply(z, 1j * phase.imag, out=spare)
    z *= phase.real
    z += spare[:, :, ::-1]  # u = c z_e - i s z_o beside v = c z_o - i s z_e, in split's layout
    np.matmul(split(vecs), room, out=split(folded))
    out = room.reshape(-1)[: dim * k].reshape(dim, k)  # and is free again
    if odd:  # G^T, each output row from the slot of its parity
        slots = folded.reshape(2, rows, 2, k)[:, :pairs]
        np.add(slots[0, ::2, 0], slots[1, ::2, 0], out=out[:pairs:2])
        np.add(slots[0, 1::2, 1], slots[1, 1::2, 1], out=out[1:pairs:2])
        np.subtract(slots[0, ::2, 1], slots[1, ::2, 1], out=out[::-1][:pairs:2])
        np.subtract(slots[0, 1::2, 0], slots[1, 1::2, 0], out=out[::-1][1:pairs:2])
    else:
        _unfold(folded[0], folded[1, :pairs], out)
    out = out.view(complex)
    if twist is not None:
        out *= twist
    return out.reshape(np.shape(amps))


def rotation_rows(ops: OperatorSet, angle: float, first: int, last: int) -> np.ndarray:
    """Rows first .. last - 1 of R_x = e^{-i angle J_x}, last <= N/2 + 1, as
    a (last - first, dim) array; row N - f of R_x is row f reversed.

    R_x = G^T C G (see rotate) is symmetric, so row f is (G^T C G e_f)^T.
    The eigenvector of -lambda is D v, D = diag((-1)^k), so the pair
    lambda, -lambda adds 2 cos(angle lambda) v_f v_c where f + c is even
    and -2i sin(angle lambda) v_f v_c where it is odd (lambda = 0 once, by
    cos halved).  Over the stored halves H, entry (f, c) is sum H[f] cos H[i]
    or -i sum H[f] sin H[i]: at c = i both parities added, at c = N - i
    (i < pairs) the antisymmetric one subtracted, and sqrt(2) more on even
    N's middle row and column.  One stacked product serves the rows f of
    one parity and the fold rows i of another.  At even N, i and N - i
    share a parity and so a weight: half the flops of the full blocks' one
    real product per block at a multiple of pi/2, a quarter of their two at
    other angles.  At odd N each takes both weights, the full blocks' flops
    at pi/2 and half of them at other angles.
    """
    dim, n = ops.dims.dim, ops.dims.n_atoms
    pairs, vecs = dim // 2, ops.vectors
    phase = _phases(ops, angle)[:, None]
    rows = vecs[:, first:last]
    weighted = (rows * phase.real, rows * phase.imag)  # real and imaginary parts
    out = np.zeros((last - first, dim), dtype=complex)
    for p in (0, 1):  # the local rows of one parity of f
        for r in (0, 1):  # the fold rows i of one parity
            direct, mirror = (first + p + r) % 2, (first + p + r + n) % 2
            for t in {direct, mirror}:  # the parity of f + c picks the weight
                y = weighted[t][:, p::2] @ vecs[:, r::2].mT
                part = (out.real, out.imag)[t][p::2]
                if t == direct:
                    part[:, r : dim - pairs : 2] += (y[0] + y[1])[:, : len(range(r, dim - pairs, 2))]
                if t == mirror:
                    part[:, ::-1][:, r:pairs:2] += (y[0] - y[1])[:, : len(range(r, pairs, 2))]
    out[:, pairs : dim - pairs] *= np.sqrt(2.0)  # even N's middle column
    out[max(pairs - first, 0) :] *= np.sqrt(2.0)  # and middle row
    return out


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
    if state.dims != ops.dims:
        raise DimensionError(
            f"state is for N={state.dims.n_atoms}, operators for N={ops.dims.n_atoms}"
        )
    return SpinState(state.dims, apply_pulses(ops, (pulse,), state.amps, phi, mu_override))


# kept for bench/spans.py, which times this name as the dicke.apply_rotation layer
def apply_rotation(state: SpinState, ops: OperatorSet, axis: str, angle: float) -> SpinState:
    """Apply e^{-i angle J_axis}."""
    return apply_pulse(state, ops, rotate_pulse(axis, angle), 0.0)

