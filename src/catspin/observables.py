"""Signals, noise, sensitivities and scans over final protocol states.

Sensitivity is the dimensionless Lambda = |dS/dphi| / DeltaS with the
linewidth conversion factor set to 1; the CLI applies an optional physical
scale.  Lambda is nan wherever it is undefined, and scans return read-only
float columns: a Fringe over a phi grid, a Sweep over a mu grid.

Every scan goes through one spectral engine, whose path, slab plan and
pool _Scanner decides once.  Once compile_protocol has folded the
CRAIN/SCAIN spin echo into a single dark zone, each built-in reads
psi(phi) = Tail B e^{-i c phi J_z} v0, so <J_z> and its variance are
trigonometric polynomials of degree N and 2N in theta = c phi, with J_z
pushed back through Tail as a tridiagonal T.  B is never built whole: it is
one x rotation or none, whose row r (dicke.rotation_rows, a gather of the
stored eigenvectors, as the rules below admit only multiples of pi/2) is,
reversed, its row N - r.  CD takes this rows path where two rules hold, as
they do for every CD spec the CLI builds.  The tail rule: B and Tail hold
only squeezes and rotations by multiples of pi/2, so theta + pi maps J_z
to +-J_z and the variance has even frequencies only, and an odd theta grid
of at least 2N+1 points (2025 at N = 1000) fixes both polynomials, their
samples coming from FFTs of the rows of B diag(v0), one per row.  The
mirror rule: v0 is an eigenvector of a pi rotation P_b that B takes to P_x
or P_y and Tail to one of the three (Varshalovich, Moskalev & Khersonskii
1988, ch. 4), so row N - r is row r at theta or at -theta, up to a phase,
and the rows r <= N/2 give the moments of all rows.

The rows run in top slabs of at most 4 MB of samples, rows r <= N/2 with a
halo row on each side as T couples neighbouring rows (4 at N = 1000, 63 at
4000, one up to N = 507).  Their fold rows come in groups of at most 16 MB,
each built while the last slabs of the one before run, so two are held at
most.  The mu run in batches whose slab moments hold at most 4 MB (86 mu at
N = 1000, 21 at 4000); each group builds its rows once per batch.  The
centred moments per mu merge in slab order by the pairwise update of Chan,
Golub & LeVeque (1983), a top slab's again as its mirror image's.  Every
scan runs in a threads.budget: every BLAS call on one thread of numpy's
OpenBLAS, and `threads` as the whole thread budget of a pool that runs the
slabs where there are several (N >= 508 for every built-in), two per
worker ahead, and otherwise the mu of a one-slab CD scan, each mu's
interpolation and recomputes on one worker.  Either is bitwise the serial
result, so no scan's bits follow the thread count of the pool or of BLAS.

One FFT of the samples gives the exact coefficients, and signal, variance
and the exact dS/dphi follow at every requested phi from baby-step
giant-step exponential tables over those phis, which a scan builds at its
first mu and reads at every later one while they fit 1 MB.
Collective-state detection evaluates the degree-N amplitude polynomial of
its single row directly; its variance is p (1 - p), with 1 - p summed from
the other populations of the state where it falls below 1e-4.  Variance
samples are centered, sum |(T - S) w|^2, and requested points whose
interpolated SDS falls in the rounding band below 1e-6 N are recomputed
directly from the state.  Specs that do not fold to one dark zone, and CD
specs whose B is more than one x rotation or that miss either rule, are
evaluated directly at every phi: CompiledProtocol.evaluate carries psi and
its exact phase derivative.

Measured accuracy: the SDS matches the centered variance of run()'s state
to 1e-15 N at N = 40/41; at N = 2000 (SCAIN, mu = pi/2) the signal matches
-(N/2) cos(N phi) to 5e-12, the gradient (N^2/2) sin(N phi) to 1e-13 N^2
and the CSD population cos^2(N phi/2) to 6e-15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from catspin.dicke import (
    EnsembleDims,
    OperatorSet,
    SpinState,
    apply_pulses,
    check_phase,
    pulse_diagonal,
    rotate_pulse,
    rotation_rows,
)
from catspin.protocols import (
    Detection,
    ProtocolSpec,
    compile_protocol,
    flips_jz,
    fold_echoes,
    pi_axis,
    split_at_squeeze,
)
from catspin.threads import blas_threads, budget

# --- single-state expectations ---------------------------------------------


def expect_jz(state: SpinState) -> float:
    """<J_z> from the diagonal populations."""
    return float(np.sum(state.dims.m_values() * state.populations()))


def variance_jz(state: SpinState) -> float:
    """<(J_z - <J_z>)^2>, summed centered: <J_z^2> - <J_z>^2 cancels when the
    spread is small against the mean."""
    m = state.dims.m_values()
    p = state.populations()
    return float(np.sum((m - np.sum(m * p)) ** 2 * p))


# --- fringe machinery -------------------------------------------------------


def noise_floor(n_atoms: int) -> float:
    """SDS below this marks the operating point degenerate (0/0 extremum)."""
    return 1e-9 * n_atoms


def _sensitivity(sds: np.ndarray, pgs: np.ndarray, n_atoms: int) -> np.ndarray:
    """Lambda = |pgs| / sds, nan where the SDS is under the noise floor."""
    lam = np.full(sds.shape, np.nan)
    np.divide(np.abs(pgs), sds, out=lam, where=sds >= noise_floor(n_atoms))
    return lam


def _read_only_columns(record):
    """Each field of a frozen record as a read-only float array of its own."""
    for field in fields(record):
        column = np.array(getattr(record, field.name), dtype=float)
        column.flags.writeable = False
        object.__setattr__(record, field.name, column)


@dataclass(frozen=True, eq=False)
class Fringe:
    """Signal, its standard deviation and its phase gradient over a phi grid,
    as read-only arrays of the grid's length."""

    phi: np.ndarray
    signal: np.ndarray
    sds: np.ndarray
    pgs: np.ndarray

    __post_init__ = _read_only_columns

    def sensitivity(self, dims: EnsembleDims) -> np.ndarray:
        """Lambda at every phi, nan where the SDS is degenerate."""
        return _sensitivity(self.sds, self.pgs, dims.n_atoms)


@dataclass(frozen=True, eq=False)
class Sweep:
    """Best Lambda over a phi window and the first phi that reaches it, per
    mu, as read-only arrays of the mu grid's length; both are nan at a mu
    where every window point is degenerate."""

    mu: np.ndarray
    lam: np.ndarray
    phi_star: np.ndarray

    __post_init__ = _read_only_columns


def _resolve_csd_index(detection: Detection, dims: EnsembleDims) -> int:
    index = detection.index
    if index is None:
        raise ValueError("csd detection without a collective-state index")
    if index < 0:
        index += dims.dim
    if not 0 <= index <= dims.n_atoms:
        raise IndexError(f"csd index {detection.index} outside [0, {dims.n_atoms}]")
    return index


# Interpolated SDS below this times N is dominated by the rounding of the
# variance polynomial and is recomputed directly from the state.
_ROUNDING_BAND = 1e-6

# Below this, 1 - p is summed from the other populations: the rounding of p
# would cost it (and Lambda) relative digits, 3.4e-10 at 1 - p = 2.5e-6.
_CSD_SUM_BAND = 1e-4

# Elements per block of a (points x frequencies) exponential, a sample
# matrix, a CD group's middle rows or a CD mu batch's slab moments: bounds
# the scratch memory of a scan independently of its size.
_BLOCK_ELEMENTS = 1 << 20

# A scan keeps the exponential tables of _fourier_sum for its later mu while
# they hold at most this many elements (1 MB).  Over the default window they
# take 36k elements at N = 40, where rebuilding them took half of a 101-mu
# sweep; at N = 1000 they take 180k (2.9 MB) for a few % of each mu, and are
# rebuilt so that large-N scans hold no more memory than before.
_KEPT_TABLE_ELEMENTS = 1 << 16

# Complex elements of a CD slab buffer (4 MB), whatever the threads: 129 rows
# of 2025 samples at N = 1000, 32 of 8019 at 4000, so 4 and 63 top slabs
# there and one up to N = 507.  _moments takes it in blocks of a quarter.
# More than one slab run on the budget's pool, with BLAS on one thread: an
# OpenBLAS worker spun about 0.12 s of CPU after each threaded call, taking a
# core from the slab workers.  On 2 vCPUs a pool of 2 against serial slabs
# (minima of 5 runs of 12 SCAIN mu) cost 13 % at N = 508, whose second top
# slab is its middle row alone, and saved 7 % at 600 and 23 % at 1000.  A
# one-slab scan runs its mu on the pool instead.  BLAS on one thread alone,
# with no pool, cut the CPU of the N = 40/41 sweeps and figures by 47-49 %
# but cost 4-7 % of their wall time; with the mu on the pool their wall time
# held.  Running the mu on the pool where there are several slabs too raised
# the VmHWM of the N = 1000 sweeps from 62.7 to 68.4 MiB, so there the pool
# keeps to the slabs.
_SLAB_ELEMENTS = 1 << 18


def _slabs(dims: EnsembleDims) -> tuple[int, int]:
    """(samples, rows): CD takes a fast odd FFT length of at least 2N+1
    samples (2025 at N = 1000), which fixes the even-frequency variance of
    a spec that meets the tail rule, in slabs of `rows` rows that hold
    _SLAB_ELEMENTS."""
    samples = _fft_length(2 * dims.n_atoms + 1)
    return samples, max(1, _SLAB_ELEMENTS // samples)


def _plan(dim: int, rows: int) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """The CD top slabs (lo, hi) of `rows` rows by group, as (first, last,
    slabs) with the group's fold rows first .. last - 1, its halo rows
    included.  The top slabs tile the fold rows r <= N/2; the mirror rule
    gives the rows below."""
    top = (dim + 1) // 2
    group = rows * max(1, _BLOCK_ELEMENTS // (dim * rows))
    return [(max(g - 1, 0), min(g + group + 1, top),
             [(a, min(a + rows, top)) for a in range(g, min(g + group, top), rows)])
            for g in range(0, top, group)]


def _exp_tables(first: float, baby: int, giant: int, t: np.ndarray):
    """e^{i l t} for l < baby and e^{i (first + baby h) t} for h < giant."""
    return (np.exp(1j * np.outer(t, np.arange(baby))),
            np.exp(1j * np.outer(t, first + baby * np.arange(giant))))


def _blocks(count: int, cols: int) -> tuple[int, int, int]:
    """(baby, giant, step) of _fourier_sum over `count` coefficients of
    `cols` columns: k = baby h + l, theta taken `step` at a time."""
    baby = math.isqrt(count - 1) + 1
    giant = -(-count // baby)
    return baby, giant, max(1, _BLOCK_ELEMENTS // (giant * cols))


def _kept_tables(first: float, count: int, cols: int, theta: np.ndarray) -> list | None:
    """The _exp_tables of every theta block of _fourier_sum, which a scan
    builds once and reads at every mu; None past _KEPT_TABLE_ELEMENTS."""
    baby, giant, step = _blocks(count, cols)
    if len(theta) * (baby + giant) > _KEPT_TABLE_ELEMENTS:
        return None
    return [_exp_tables(first, baby, giant, theta[i : i + step])
            for i in range(0, len(theta), step)]


def _fourier_sum(first: float, coefs: np.ndarray, theta: np.ndarray,
                 tables: list | None = None) -> np.ndarray:
    """sum_k coefs[k, :] e^{i (first + k) theta} at every theta.

    Baby-step giant-step: with k = B h + l each theta needs about 2 sqrt(K)
    exponentials, e^{i (first + B h) theta} and e^{i l theta}, instead of K;
    theta is taken in blocks, whose tables come from tables (_kept_tables
    of the same first, coefs shape and theta) where given.
    """
    count, cols = coefs.shape
    baby, giant, step = _blocks(count, cols)
    table = np.zeros((giant * baby, cols), dtype=complex)
    table[:count] = coefs
    table = table.reshape(giant, baby, cols).transpose(1, 0, 2).reshape(baby, giant * cols)
    out = np.empty((len(theta), cols), dtype=complex)
    for block, i in enumerate(range(0, len(theta), step)):
        t = theta[i : i + step]
        baby_exp, giant_exp = tables[block] if tables else _exp_tables(first, baby, giant, t)
        inner = (baby_exp @ table).reshape(len(t), giant, cols)
        out[i : i + step] = np.einsum("th,thc->tc", giant_exp, inner)
    return out


def _fft_length(n: int) -> int:
    """Smallest integer >= n whose prime factors all lie in 3, 5, 7 and 11:
    a fast odd FFT length."""
    while True:
        rest = n
        for p in (3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _trig_coefficients(samples: np.ndarray, degree: int) -> np.ndarray:
    """a_0 .. a_degree of the real polynomial sum_d Re(a_d e^{i d theta})
    through samples at theta_j = 2 pi j / L (exact for L > 2 degree)."""
    coefs = np.fft.fft(samples)[: degree + 1] / len(samples)
    coefs[1:] *= 2.0
    return coefs


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum conj(a) b over the rows (axis -2) of complex arrays."""
    pairs = np.einsum("...ij,...ij->...j", a.view(float), b.view(float))
    return pairs[..., ::2] + pairs[..., 1::2]


def _moments(w: np.ndarray, diag, below, above) -> np.ndarray:
    """(W, M, V) per column of w: W = sum |w|^2, M = Re sum conj(w) T w and V = sum |(T - M/W) w|^2
    over the rows between w's halo rows, (T w)_i = below_i w_{i-1} + diag_i w_i + above_i w_{i+1}.
    The columns go in blocks of a quarter of _SLAB_ELEMENTS, whose temporaries the allocator
    reuses; over a whole slab it mapped fresh pages for each and faulted them in."""
    out = np.empty((3, w.shape[-1]))
    step = max(1, _SLAB_ELEMENTS // 4 // len(w))
    for c in range(0, w.shape[-1], step):
        block = w[:, c : c + step]
        inner = block[1:-1]
        tw = diag[:, None] * inner
        tw += above[:, None] * block[2:]
        tw += below[:, None] * block[:-2]
        weight, first = _dot(inner, inner), _dot(inner, tw)
        tw -= (first / np.where(weight > 0, weight, 1.0))[None, :] * inner
        out[:, c : c + step] = weight, first, _dot(tw, tw)
    return out


def _merge(partials):
    """sum M and the variance of slab partials merged in order by the pairwise update of
    Chan, Golub & LeVeque (1983), all terms >= 0: V += V_s + (M_s W - M W_s)^2 / (W W_s (W + W_s)),
    in place.  Each item is ((W, M, V), sign), M taken times sign, so a mirror image whose T
    changes sign reads its top slab's arrays."""
    weight = first = var = None
    for (w_s, m_s, v_s), sign in partials:
        if weight is None:
            weight, first, var = np.zeros_like(w_s), np.zeros_like(m_s), np.zeros_like(v_s)
        gap, spread = m_s * weight, weight * w_s
        if sign < 0:
            np.negative(gap, out=gap)
        gap -= first * w_s
        weight += w_s
        spread *= weight
        var += v_s
        gap *= gap
        gap /= np.where(spread > 0, spread, 1.0)
        var += gap
        (np.add if sign > 0 else np.subtract)(first, m_s, out=first)
        del w_s, m_s, v_s, gap, spread  # none held while the next partial is awaited
    return first, var


def _project(v0: np.ndarray, axis: str) -> np.ndarray:
    """v0 on the eigenspace of P_axis = e^{-i pi J_axis} nearest it, which drops the
    rounding of an eigenvector: (v0 + S v0 / lambda) / 2 for the phased permutation S
    that is P_axis up to a phase, (S v)_k = v_{N-k} for x, (-1)^k v_{N-k} for y and
    (-1)^k v_k for z (Varshalovich, Moskalev & Khersonskii 1988, ch. 4), and the
    eigenvalue lambda of S nearest <v0|S v0>: +-1, or +-i for y at odd N.  For z it
    zeroes the entries of the other parity of k."""
    image = v0 if axis == "z" else v0[::-1]
    if axis != "x":
        image = image.copy()
        image[1::2] *= -1
    unit = 1j if axis == "y" and len(v0) % 2 == 0 else 1.0
    lam = unit if (np.vdot(v0, image) * np.conj(unit)).real >= 0 else -unit
    return 0.5 * (v0 + image * np.conj(lam))


def _rotation_matrix(axis: str, angle: float) -> np.ndarray:
    """Active 3-d rotation R with e^{i angle J_a} J e^{-i angle J_a} = R J,
    for a = x or y."""
    c, s = math.cos(angle), math.sin(angle)
    i, j = {"x": (1, 2), "y": (2, 0)}[axis]
    rot = np.eye(3)
    rot[i, i] = rot[j, j] = c
    rot[i, j], rot[j, i] = -s, s
    return rot


class _Scanner:
    """Spectral evaluation of one protocol over one phi grid, at any mu.

    The constructor compiles the protocol and picks the path of every scan:
    CSD rows, CD rows with their slab plan and pool, or, for specs with
    several dark zones and CD specs whose middle stays longer than one x
    rotation or that miss the tail or the mirror rule, direct evaluation at
    every phi (_direct).  With one dark zone it reads tail middle D(rate
    phi) pre v_lead, pre acting first on v_lead.  tail is the longest
    trailing run that J_z can be pushed back through as a tridiagonal T:
    diagonal pulses followed in time by x/y rotations, through which T stays
    a spin component n.J whose off-diagonal the diagonals twist.
    """

    def __init__(self, spec: ProtocolSpec, dims: EnsembleDims, ops: OperatorSet,
                 phis, threads: int | None = None):
        self.phis = np.asarray(phis, dtype=float)
        check_phase(dims, self.phis)
        self.spec, self.dims, self.ops, self.threads = spec, dims, ops, threads
        self.kernel = compile_protocol(spec, dims, ops)
        self.health = {"rounding_band_points": 0, "csd_sum_points": 0}  # _blockwise points
        csd = spec.detection.kind == "csd"
        self.index = _resolve_csd_index(spec.detection, dims) if csd else None
        # the path of every scan (unbound: no reference cycle) and its slabs,
        # one off the CD rows path
        self._path, self.slabs = self._route(dims, ops, csd)

    def _route(self, dims: EnsembleDims, ops: OperatorSet, csd: bool):
        """(path, slabs) of every scan, setting the CD rows path's slab plan.

        The mirror rule.  v0 is an eigenvector of P_eigen, the pi rotation
        that the pulses before the dark zone make of P_z, which |E_0> has.
        The middle B takes it to P_c = B P_eigen B^dagger; where c is x or y,
        P_c maps row r to row N - r, up to signs and phases, and where the
        tail takes c to an axis, P_c T P_c^dagger = +-T: + where it is z.  So
        the (W, M, V) of each bottom slab are those of its top mirror with M
        times that sign, at theta where eigen is z, as D(theta) commutes with
        P_z, and else at -theta, as P_x and P_y turn D(theta) into D(-theta).
        SCAIN and SCAC with ara x take theta, with ara y -theta (eigen x);
        CRAIN and CAC, with no middle, -theta (eigen y).
        """
        if len(self.kernel.segments) > 1:
            return _Scanner._evaluated, 1
        # a spec that folds to no dark zone has rate 0 and all its pulses in pre
        (fraction, sign), self.post = (self.kernel.segments or (((0.0, 1), ()),))[0]
        self.rate = sign * fraction
        if csd:
            # U^T e_idx for U = post: the transposed pulses in reverse order
            # (the diagonals and R_x are symmetric, R_y^T = R_y(-angle));
            # those before the first squeeze run once
            transposed = [
                replace(p, angle=-p.angle) if p.kind == "rotate" and p.axis == "y" else p
                for p in reversed(self.post)
            ]
            lead, self.row_pulses = split_at_squeeze(transposed)
            row = np.zeros(dims.dim, dtype=complex)
            row[self.index] = 1.0
            self.row_lead = apply_pulses(ops, lead, row)
            return _Scanner._csd, 1
        n_tail, twisted = 0, False
        for pulse in reversed(self.post):
            diagonal = pulse.kind == "squeeze" or pulse.axis == "z"
            if twisted and not diagonal:
                break
            twisted = twisted or diagonal
            n_tail += 1
        middle, self.moved = list(self.post[: len(self.post) - n_tail]), []
        self.tail = self.post[len(self.post) - n_tail :]
        # CD reads the middle's rows off one x rotation's.  A last y rotation
        # is P R_x P^dagger with P = diag(e^{-i pi m/2}), a z rotation that
        # joins the tail.  Diagonal pulses that then start the middle commute
        # with the dark zone, and a pi rotation about x or y maps J_z to
        # -J_z, so they move before it (into v0), a pi rotation turning the
        # rate's sign.  A middle still longer than the x rotation is
        # evaluated directly at every phi (_direct).
        if middle and middle[-1].axis == "y":
            middle[-1:] = rotate_pulse("z", -math.pi / 2), rotate_pulse("x", middle[-1].angle)
            self.tail = (rotate_pulse("z", math.pi / 2), *self.tail)
        while middle and (middle[0].kind == "squeeze" or middle[0].axis == "z" or flips_jz(middle[0])):
            self.moved.append(middle.pop(0))
            self.rate *= -1 if flips_jz(self.moved[-1]) else 1
        self.middle_pulses = middle
        # The tail rule.  theta + pi multiplies the state after the tail by
        # U P_z U^dagger, U = tail middle, up to a phase.  Where pi_axis names
        # it a pi rotation, which maps J_z to +-J_z, the variance has even
        # frequencies only.  Then the mirror rule (see the docstring)
        folded = fold_echoes(self.spec.pulses)
        dark = next((i for i, p in enumerate(folded) if p.kind == "dark_phase"), len(folded))
        self.eigen = pi_axis("z", (*folded[:dark], *self.moved))
        mirror = pi_axis(self.eigen, middle)
        sign = pi_axis(mirror, self.tail)
        if (len(middle) > 1 or pi_axis("z", (*middle, *self.tail)) is None
                or mirror not in ("x", "y") or sign is None):
            return _Scanner._evaluated, 1
        self.samples, rows = _slabs(dims)
        # the mirror image's columns of a top slab's partials, and M's sign
        self.mirror = (slice(0, self.samples) if self.eigen == "z" else
                       slice(self.samples, 0, -1), 1 if sign == "z" else -1)
        self.plan = _plan(dims.dim, rows)
        return _Scanner._cd, sum(len(group) for _, _, group in self.plan)

    # --- per-mu pieces ----------------------------------------------------

    def _observable(self, mu):
        """T = tail^dagger J_z tail as (diagonal, below, above): T w at row i
        is below_i w_{i-1} + diagonal_i w_i + above_i w_{i+1}."""
        n = np.array([0.0, 0.0, 1.0])
        twists = []
        for pulse in reversed(self.tail):
            if pulse.kind == "rotate" and pulse.axis != "z":
                n = _rotation_matrix(pulse.axis, pulse.angle).T @ n
            else:
                twists.append(pulse)
        upper = (n[0] + 1j * n[1]) * self.ops.off
        for pulse in twists:
            u = pulse_diagonal(self.ops, pulse, 0.0, mu)
            upper = upper * u[:-1].conj() * u[1:]
        return n[2] * self.ops.m, np.append(0, upper).conj(), np.append(upper, 0)

    def _blockwise(self, out, where, values_at) -> int:
        """out[where] = values_at(phis[where]) for the rounding band or the CSD
        sum path, in blocks of points whose (dim, block) state stays in
        _BLOCK_ELEMENTS; returns the points.  A point's value may differ in
        its last bits with the points that share its block, as those of
        CompiledProtocol.evaluate and apply_pulses do."""
        step = max(1, _BLOCK_ELEMENTS // self.dims.dim)
        for i in range(0, len(where), step):
            part = where[i : i + step]
            out[part] = values_at(self.phis[part])
        return where.size

    # --- evaluation -------------------------------------------------------

    def scan(self, mus, report: dict | None = None):
        """signal, SDS and exact dS/dphi at every phi, for each mu of mus in
        turn (None: the spec's own), CD's in one pass over the slabs.  The
        scan runs in a threads.budget (the one open on this thread, if any)
        until the last, so callers exhaust it; report, if given, is filled as
        fringe_scan describes before it closes."""
        for mu in mus:
            if mu is not None and not np.isfinite(mu):
                raise ValueError(f"squeezing strength must be finite, got {mu}")
        detection = self.spec.detection
        with budget(self.threads) as pool:
            columns = (self._path(self, mus, pool) if self.phis.size
                       else ((np.empty(0),) * 3 for _ in mus))
            for signal, sds, pgs in columns:
                if detection.kind == "cd" and detection.add_j:
                    signal = signal + self.dims.j
                yield signal, sds, pgs
            if report is not None:
                report.update(pool_workers=pool.used, blas_threads=blas_threads(),
                              health=self.health)

    def _csd(self, mus, pool):
        m = self.ops.m
        theta = self.rate * self.phis
        tables = _kept_tables(m[0], len(m), 2, theta)
        for mu in mus:
            v0 = self.kernel.v0(mu)
            c = apply_pulses(self.ops, self.row_pulses, self.row_lead, mu=mu) * v0
            # a(theta) = sum_k c_k e^{-i m_k theta}; reversed, the frequencies
            # -m_k run upward from m_0
            amp = _fourier_sum(m[0], np.stack([c, -1j * m * c], axis=1)[::-1], theta, tables)
            p = np.abs(amp[:, 0]) ** 2
            pgs = 2.0 * self.rate * np.real(amp[:, 0].conj() * amp[:, 1])
            # projector: Q^2 = Q, so the variance is p (1 - p); where 1 - p has
            # cancelled, _direct sums it from the other Dicke states
            var = p * (1.0 - p)
            self.health["csd_sum_points"] += self._blockwise(
                var, np.flatnonzero(1.0 - p < _CSD_SUM_BAND),
                lambda points: self._direct(points, mu)[1])
            yield p, np.sqrt(np.maximum(var, 0.0)), pgs

    def _cd(self, mus, pool):
        """The CD arrays of each mu, in batches whose slab moments, 3 x batch x samples,
        stay within half of _BLOCK_ELEMENTS at any N: a smaller batch rebuilds the group
        rows more often.  tracemalloc peaks on the odd grid, SCAIN over the default window:
        200 mu at N = 1000 (batches of 86) 46.8 MiB, a quarter batch 27.4 MiB but 4 % slower
        on 2 vCPUs; 600 mu at N = 300 (288) 17.8 MiB, a quarter batch 8.1 MiB and 3 % slower."""
        batch = max(1, _BLOCK_ELEMENTS // (6 * self.samples))
        tables = _kept_tables(0.0, 2 * self.dims.n_atoms + 1, 3, self.rate * self.phis)
        for i in range(0, len(mus), batch):
            yield from self._cd_batch(mus[i : i + batch], pool, tables)

    def _cd_batch(self, mus, pool, tables):
        dim, n, samples = self.dims.dim, self.dims.n_atoms, self.samples
        top = (dim + 1) // 2
        kernel = self.kernel
        states = [(apply_pulses(self.ops, (*kernel.pre, *self.moved), kernel.v_lead, mu=mu),
                   *self._observable(mu)) for mu in mus]
        half = dim // 2  # the rows below mirror the top slabs'; at even N row half is its own

        def slabs():  # a group's rows are built while the last slabs of the one before run
            for first, last, group in self.plan:
                block = (rotation_rows(self.ops, self.middle_pulses[0].angle, first, last)
                         if self.middle_pulses else None)
                for lo, hi in group:
                    yield lo, hi, first, block

        def slab(item):
            """(W, M, V) per mu of the rows lo .. hi - 1 with a halo row on
            both sides, zero past the edges; sample j at theta = 2 pi j / samples,
            and sample 0 again after the last, so that reversed they read -theta.
            Even N's middle row comes apart: (rows lo .. end - 1 or None, the
            middle row or None)."""
            lo, hi, start, block = item
            first, last = max(lo - 1, 0), min(hi + 1, dim)
            cut = min(max(first, top), last)
            pieces = () if block is None else (
                block[first - start : cut - start],
                block[n + 1 - last - start : n + 1 - cut - start][::-1, ::-1])
            end = min(hi, half)
            moments = np.empty((3, len(states), samples + 1)) if end > lo else None
            middle = np.empty((3, len(states), samples)) if end < hi else None
            w = np.empty((hi - lo + 2, samples), dtype=complex)
            for i, (v0, diag, below, above) in enumerate(states):
                v0 = _project(v0, self.eigen)  # as the mirror takes it
                w.fill(0.0)
                at = first - lo + 1
                for piece in pieces:
                    np.multiply(piece, v0, out=w[at : at + len(piece), :dim])
                    at += len(piece)
                if block is None:  # no middle: row r of diag(v0) is v0_r e_r
                    w[np.arange(at, at + last - first), np.arange(first, last)] = v0[first:last]
                np.fft.fft(w, axis=-1, out=w)
                if moments is not None:
                    moments[:, i, :samples] = _moments(w[: end - lo + 2], diag[lo:end],
                                                       below[lo:end], above[lo:end])
                if middle is not None:  # one row, as _moments takes it; T's diagonal is m = 0
                    left, row, right = w[end - lo : end - lo + 3]
                    tw = below[half] * left + above[half] * right
                    weight = row.real**2 + row.imag**2
                    middle[:2, i] = weight, (row.conj() * tw).real
                    tw -= middle[1, i] / np.where(weight > 0, weight, 1.0) * row
                    middle[2, i] = tw.real**2 + tw.imag**2
            if moments is not None:
                moments[..., samples] = moments[..., 0]
            return moments, middle

        def partials():  # in slab order: a top slab's rows, their mirror image, a middle row
            for rows, middle in pool.map(slab, slabs(), self.slabs):
                if rows is not None:
                    yield rows[..., :samples], 1
                    yield rows[..., self.mirror[0]], self.mirror[1]
                if middle is not None:
                    yield middle, 1

        mean, var = _merge(partials())

        def finish(item):
            """A mu's arrays and its rounding-band points; where the mu run on
            the pool, a worker's, which writes no scan state."""
            mu, (v0, diag, below, above), mean_mu, var_mu = item

            def direct(points):  # v0, unprojected, after the dark zone and the middle, a column a point
                w = np.zeros((dim + 2, len(points)), dtype=complex)
                np.multiply(v0[:, None], np.exp(-1j * self.rate * np.outer(self.ops.m, points)),
                            out=w[1:-1])
                w[1:-1] = apply_pulses(self.ops, self.middle_pulses, w[1:-1], mu=mu)
                return _moments(w, diag, below, above)[2]

            return self._interpolate(mean_mu, var_mu, direct, tables)

        # the pool takes the slabs where there are several, else the mu
        items = zip(mus, states, mean, var)
        for columns, band in pool.map(finish, items, len(mus) if self.slabs == 1 else 1):
            self.health["rounding_band_points"] += band
            yield columns

    def _evaluated(self, mus, pool):
        """The path of specs with several dark zones after folding, and of CD
        ones whose middle is more than one x rotation or that miss the tail
        or the mirror rule: every phi directly."""
        for mu in mus:
            signal, var, pgs = self._direct(self.phis, mu)
            yield signal, np.sqrt(np.maximum(var, 0.0)), pgs

    def _direct(self, points, mu):
        """(signal, variance, exact dS/dphi) at points, as a (3, points) array
        reduced from CompiledProtocol.evaluate's psi and dpsi/dphi in blocks
        whose (dim, 2 block) state stays in _BLOCK_ELEMENTS.  CD reads <J_z>,
        its centred variance and 2 Re <psi|J_z|dpsi>; CSD p, p times the
        summed other populations and 2 Re(conj(psi_idx) dpsi_idx)."""
        m, index = self.ops.m, self.index
        out = np.empty((3, len(points)))
        step = max(1, _BLOCK_ELEMENTS // (2 * self.dims.dim))
        for i in range(0, len(points), step):
            psi, dpsi = self.kernel.evaluate(points[i : i + step], mu)
            pops = np.abs(psi) ** 2
            if index is not None:
                p, rest = pops[index], np.delete(pops, index, axis=0).sum(axis=0)
                out[:, i : i + step] = p, p * rest, 2.0 * np.real(psi[index].conj() * dpsi[index])
            else:
                mean = m @ pops
                var = np.einsum("ij,ij->j", (m[:, None] - mean) ** 2, pops)
                out[:, i : i + step] = mean, var, 2.0 * _dot(psi, m[:, None] * dpsi)
        return out

    def _interpolate(self, mean, var, direct, tables):
        """The CD polynomials of degree N and 2N at the phis, and how many
        points' SDS fell in the rounding band and came from direct(phis)."""
        degree = self.dims.n_atoms
        freqs = np.arange(2 * degree + 1)
        coefs = np.zeros((2 * degree + 1, 3), dtype=complex)
        coefs[: degree + 1, 0] = _trig_coefficients(mean, degree)
        coefs[:, 1] = 1j * freqs * coefs[:, 0]
        coefs[:, 2] = _trig_coefficients(var, 2 * degree)
        coefs[1::2, 2] = 0.0  # on the odd grid, odd bins hold only aliased negative frequencies
        values = _fourier_sum(0.0, coefs, self.rate * self.phis, tables).real
        sds = np.sqrt(np.maximum(values[:, 2], 0.0))
        band = self._blockwise(sds, np.flatnonzero(sds < _ROUNDING_BAND * degree),
                               lambda points: np.sqrt(np.maximum(direct(points), 0.0)))
        return (values[:, 0], sds, self.rate * values[:, 1]), band


def fringe_scan(
    spec: ProtocolSpec,
    dims: EnsembleDims,
    ops: OperatorSet,
    phi_grid,
    mu_override: float | None = None,
    threads: int | None = None,
    report: dict | None = None,
) -> Fringe:
    """Signal/SDS/PGS at every point of a sorted phi grid.

    A point's values may differ in their last bits with the other points of
    the grid, as the products that evaluate a scan take its points
    together: Lambda by up to 3.5e-16 N over CRAIN, SCAIN, CAC and SCAC at
    N = 40, 41 and 600.  threads caps the pool (see threads.budget); every
    scan runs BLAS on one thread.  report, if given, receives pool_workers,
    the most threads the scan ran on at once, blas_threads, the BLAS
    threads it ran on (1, None where numpy's OpenBLAS is not found), and a
    health block counting the points recomputed in the rounding band
    (rounding_band_points) and those whose 1 - p was summed (csd_sum_points).
    """
    phis = np.asarray(phi_grid, dtype=float)
    if phis.size and not (np.all(np.isfinite(phis)) and np.all(np.diff(phis) >= 0)):
        raise ValueError("phi grid must be finite and sorted")
    ((signal, sds, pgs),) = _Scanner(spec, dims, ops, phis, threads).scan([mu_override], report)
    return Fringe(phi=phis, signal=signal, sds=sds, pgs=pgs)


# --- sensitivity ------------------------------------------------------------


def sensitivity_at(
    spec: ProtocolSpec,
    dims: EnsembleDims,
    ops: OperatorSet,
    phi: float,
    mu_override: float | None = None,
) -> float:
    """Lambda = |dS/dphi| / DeltaS at a single finite phi, nan where the
    point is degenerate; it may differ from a fringe_scan through phi at
    rounding level (see there)."""
    return float(fringe_scan(spec, dims, ops, [phi], mu_override).sensitivity(dims)[0])


def default_phi_window(n_points: int = 2001) -> np.ndarray:
    """Central-fringe search window phi in (0, pi/2]."""
    return np.linspace(0.0, math.pi / 2, n_points + 1)[1:]


def sensitivity_scan_mu(
    spec: ProtocolSpec,
    dims: EnsembleDims,
    ops: OperatorSet,
    mu_grid,
    phi_window: np.ndarray | None = None,
    threads: int | None = None,
    report: dict | None = None,
) -> Sweep:
    """Best Lambda over the phi window for each mu.

    Degenerate phi points are skipped; a mu where every point is degenerate
    has nan lam and phi_star.  phi_star is the first window point whose
    Lambda lies within 1e-9 (relative) of the best, so flat maxima (even N
    at mu = pi/2 reaches Lambda = N everywhere) resolve deterministically.
    lam is the raw Lambda, whose Heisenberg limit is N; the CLI's
    --normalize-hl and --gamma scale it.  threads and report: see fringe_scan.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    if not np.all((mu_grid >= 0) & (mu_grid <= math.pi / 2 + 1e-12)):
        raise ValueError("mu grid must lie within [0, pi/2]")
    if phi_window is None:
        phi_window = default_phi_window()

    scanner = _Scanner(spec, dims, ops, phi_window, threads)
    best, phi_star = np.full(mu_grid.size, np.nan), np.full(mu_grid.size, np.nan)
    for i, (_, sds, pgs) in enumerate(scanner.scan(mu_grid.tolist(), report)):
        lam = _sensitivity(sds, pgs, dims.n_atoms)
        # the max over the defined points: -inf, which no point reaches, if none is
        top = np.fmax.reduce(lam, initial=-np.inf)
        hits = np.flatnonzero(lam >= top * (1.0 - 1e-9))
        if hits.size:
            best[i], phi_star[i] = top, scanner.phis[hits[0]]
    return Sweep(mu=mu_grid, lam=best, phi_star=phi_star)


def parity_average(lambda_even: float, lambda_odd: float) -> float:
    """RMS average of the sensitivities for the two atom-number parities."""
    if lambda_even < 0 or lambda_odd < 0:
        raise ValueError("sensitivities must be nonnegative")
    return math.sqrt((lambda_even**2 + lambda_odd**2) / 2.0)


# --- central-fringe width ----------------------------------------------------


def central_fringe_fwhm(
    spec: ProtocolSpec,
    dims: EnsembleDims,
    ops: OperatorSet,
    half_window: float = math.pi,
    n_points: int = 4001,
    mu_override: float | None = None,
) -> float:
    """Full width at half depth of the fringe lobe centered at phi = 0.

    The depth reference is the extreme signal value inside the window; the
    crossings nearest phi = 0 on each side are interpolated linearly.
    n_points must be odd and at least 3, so that the middle point is phi = 0.
    """
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError(f"n_points must be odd and >= 3, got {n_points}")
    phis = np.linspace(-half_window, half_window, n_points)
    signal = fringe_scan(spec, dims, ops, phis, mu_override).signal
    center = n_points // 2
    s0 = signal[center]
    span_max, span_min = signal.max(), signal.min()
    reference = span_max if (span_max - s0) >= (s0 - span_min) else span_min
    half_level = 0.5 * (s0 + reference)

    def first_crossing(direction: int) -> float:
        i = center
        while 0 < i < n_points - 1:
            a, b = i, i + direction
            if (signal[a] - half_level) * (signal[b] - half_level) <= 0:
                frac = (half_level - signal[a]) / (signal[b] - signal[a])
                return float(phis[a] + frac * (phis[b] - phis[a]))
            i += direction
        raise ValueError("no half-level crossing inside the window")

    return first_crossing(+1) - first_crossing(-1)


# --- excess-noise model -------------------------------------------------------


@dataclass(frozen=True)
class NoiseModelRow:
    """Analytic PGS/SDS multipliers of a protocol relative to a conventional
    interferometer operated at its maximum-slope point."""

    protocol: str
    pgs_scale: float
    sds_scale: float

    def __post_init__(self):
        if self.pgs_scale <= 0 or self.sds_scale <= 0:
            raise ValueError("PGS/SDS scale factors must be positive")


def noise_model_table(n_atoms: int) -> dict[str, NoiseModelRow]:
    """Scaling table behind the protocol-robustness comparison."""
    n = float(n_atoms)
    return {
        "crain": NoiseModelRow("crain", 1.0, 1.0),
        "tact": NoiseModelRow("tact", 1.0, 1.0 / math.sqrt(n / 2)),
        "esp": NoiseModelRow("esp", math.sqrt(n / 2), 1.0),
        "cd-scain": NoiseModelRow("cd-scain", n, math.sqrt(n)),
        "csd-scain": NoiseModelRow("csd-scain", 1.0, 1.0 / math.sqrt(n)),
    }


def baseline_pgs(n_atoms: int) -> float:
    """Conventional-interferometer slope N/2 at the operating point."""
    return n_atoms / 2.0


def baseline_sds(n_atoms: int) -> float:
    """Conventional-interferometer projection noise sqrt(N)/2."""
    return math.sqrt(n_atoms) / 2.0


def excess_noise_curve(
    row: NoiseModelRow, n_atoms: int, en_grid
) -> np.ndarray:
    """Lambda as a function of the excess-noise standard deviation.

    Lambda = |PGS| / sqrt(DeltaS_QPN^2 + DeltaS_EN^2), with the protocol's
    PGS and quantum projection noise taken from the scaling table.
    """
    en = np.asarray(en_grid, dtype=float)
    pgs = baseline_pgs(n_atoms) * row.pgs_scale
    qpn = baseline_sds(n_atoms) * row.sds_scale
    return pgs / np.sqrt(qpn**2 + en**2)


def excess_noise_crossover(row: NoiseModelRow, n_atoms: int) -> float:
    """DeltaS_EN at which excess noise equals the quantum projection noise,
    i.e. where Lambda has dropped by sqrt(2)."""
    return baseline_sds(n_atoms) * row.sds_scale
