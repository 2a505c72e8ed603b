"""Signals, noise, sensitivities and scans over final protocol states.

Sensitivity is the dimensionless Lambda = |dS/dphi| / DeltaS with the
linewidth conversion factor set to 1; the CLI applies an optional physical
scale.  Lambda is nan wherever it is undefined, and scans return read-only
float columns: a Fringe over a phi grid, a Sweep over a mu grid.

Every scan goes through one spectral engine, whose path, slab plan and
pool _Scanner decides once.  Once compile_protocol has folded the
CRAIN/SCAIN spin echo into a single dark zone, each built-in reads
psi(phi) = Tail B e^{-i c phi J_z} v0, so <J_z> and its variance are
trigonometric polynomials of degree N and 2N in theta = c phi.  Their
samples on an equispaced theta grid of at least 4N+1 points come from FFTs
of the rows of B diag(v0), one per row, with J_z pushed back through Tail
as a tridiagonal T.  B is never built whole: it is one x rotation or none,
whose fold row r (dicke.rotation_rows) is its row r and, reversed, N - r.
Where B and Tail hold only squeezes and rotations by multiples of pi/2
(the tail rule, which every built-in meets), theta + pi maps J_z to +-J_z
and the variance has even frequencies only: an odd grid of at least 2N+1
points fixes both polynomials (2025 samples at N = 1000, against 4050).

The rows run in slabs of at most 4 MB of samples (8 at N = 1000, 126 at
4000, one up to N = 358, on the odd grid), each a top slab of rows
r <= N/2 or its mirror image, or both where they fit, with a halo row on
each side as T couples neighbouring rows.  The top slabs' fold rows come in
groups of at most 16 MB, each built while the last slabs of the one before
run, so two are held at most.  The mu run in batches whose slab moments
hold at most 4 MB (86 mu at N = 1000, 21 at 4000, on the odd grid); each
group builds its rows once per batch.
The centred moments per mu merge in slab order by the pairwise update of
Chan, Golub & LeVeque (1983).  A scan of more than one slab (N >= 359 for
every built-in) runs them on a pool of up to `threads` threads, two slabs
per worker ahead, bitwise the serial result, and the pool is the scan's
whole thread budget: every BLAS call of the scan (v0, group rows, slabs,
interpolation, recomputes) runs on one thread of numpy's OpenBLAS, whose own
count comes back when the scan returns or raises (the last to end of scans
running at once restores it), so these scans' bits do not follow the BLAS
thread count either.  One-slab scans and every other path keep BLAS's defaults.

One FFT of the samples gives the exact coefficients, and signal, variance
and the exact dS/dphi follow at every requested phi from baby-step
giant-step exponential tables over those phis, which a scan builds at its
first mu and reads at every later one while they fit 1 MB.
Collective-state detection evaluates the degree-N amplitude polynomial of
its single row directly; its variance is p (1 - p), with 1 - p summed from
the other populations of the state where it falls below 1e-4.  Variance
samples are centered, sum |(T - S) w|^2, and requested points whose
interpolated SDS falls in the rounding band below 1e-6 N are recomputed
directly from the state.  Specs that do not fold to one dark zone, or
whose B is more than one x rotation, are evaluated directly at every phi:
CompiledProtocol.evaluate carries psi and its exact phase derivative.

Measured accuracy: the SDS matches the centered variance of run()'s state
to 1e-15 N at N = 40/41; at N = 2000 (SCAIN, mu = pi/2) the signal matches
-(N/2) cos(N phi) to 5e-12, the gradient (N^2/2) sin(N phi) to 1e-13 N^2
and the CSD population cos^2(N phi/2) to 6e-15.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
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
    split_at_squeeze,
)

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
# of 2025 samples at N = 1000 (8 slabs), 32 of 8019 at 4000 (126), one slab
# up to N = 358, on the odd grid.  _moments takes it in blocks of a quarter.
# More than one slab (N >= 359 for every built-in) run on a pool, stopped at
# the CPUs, the slab count and by default at _POOL_DEFAULT, the measured size,
# with BLAS on one thread: an OpenBLAS worker spun about 0.12 s of CPU after
# each threaded call, taking a core from the slab workers.  On 2 vCPUs a pool
# of 2 against serial slabs cost 1 % per mu at N = 359, saved 1-10 % at 400,
# 2-17 % at 450, 16-23 % at 511, 16 % at 600, 26 % at 700 and 31 % at 1000
# (minima of 5-7 runs of 12 SCAIN mu).  One-slab scans and the paths without
# slabs keep BLAS's defaults, as one BLAS thread was slower there: in process
# +5-10 % on N = 40/41 sweeps and +19 % on N = 4000 stages.
_SLAB_ELEMENTS, _POOL_DEFAULT = 1 << 18, 2


def pool_size(threads: int | None, slabs: int) -> int:
    """Worker threads for `slabs` tasks: threads (>= 1; by default
    _POOL_DEFAULT), capped at the CPUs this process may run on and at slabs."""
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(_POOL_DEFAULT if threads is None else threads, cpus, slabs)


@functools.cache
def _openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, looked up
    at the first call, not at import; None where numpy carries no such pair."""
    try:
        from numpy._core import _multiarray_umath
        # dlsym on the extension's handle searches the libraries it links
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def blas_threads() -> int | None:
    """The threads numpy's OpenBLAS runs on now, None where it is not found."""
    api = _openblas()
    return None if api is None else api[0]()


# the process's own BLAS count while _blas_limit blocks are open, and how many are
_blas_saved = {"count": None, "open": 0}
_blas_lock = threading.Lock()


@contextmanager
def _blas_limit(threads: int | None):
    """BLAS on `threads` threads inside the block; None leaves the library
    untouched.  The count is the process's, so blocks open at once (scans on
    several threads) share it: the first to open saves it, and the last to
    close, or raise, restores it, in whatever order they close."""
    api = None if threads is None else _openblas()
    if api is None:
        yield
        return
    get, put = api
    with _blas_lock:
        if not _blas_saved["open"]:
            _blas_saved["count"] = get()
        _blas_saved["open"] += 1
        put(threads)
    try:
        yield
    finally:
        with _blas_lock:
            _blas_saved["open"] -= 1
            if not _blas_saved["open"]:
                put(_blas_saved["count"])


def _slabs(dims: EnsembleDims, pi_periodic: bool) -> tuple[int, int]:
    """(samples, rows): CD takes a fast FFT length of at least 4N+1 samples,
    or, where the variance is pi-periodic in theta, an odd one of at least
    2N+1 (2025 at N = 1000, against 4050), in slabs of `rows` rows that
    hold _SLAB_ELEMENTS."""
    n = dims.n_atoms
    samples = _fft_length(2 * n + 1, (3, 5, 7, 11)) if pi_periodic else _fft_length(4 * n + 1)
    return samples, max(1, _SLAB_ELEMENTS // samples)


def _plan(dim: int, rows: int) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """The CD slabs (lo, hi) of `rows` rows by group, as (first, last, slabs)
    with the group's fold rows first .. last - 1, its halo rows included."""
    top = (dim + 1) // 2
    group = rows * max(1, _BLOCK_ELEMENTS // (dim * rows))
    plan = []
    for g in range(0, top, group):
        slabs = []
        for a in range(g, min(g + group, top), rows):
            slabs += ([(a, dim - a)] if dim - 2 * a <= rows else
                      [(a, min(a + rows, top)), (max(top, dim - a - rows), dim - a)])
        plan.append((max(g - 1, 0), min(g + group + 1, top), slabs))
    return plan


def _exp_tables(first: float, baby: int, giant: int, t: np.ndarray):
    """e^{i l t} for l < baby and e^{i (first + baby h) t} for h < giant."""
    return (np.exp(1j * np.outer(t, np.arange(baby))),
            np.exp(1j * np.outer(t, first + baby * np.arange(giant))))


def _fourier_sum(first: float, coefs: np.ndarray, theta: np.ndarray,
                 kept: list | None = None) -> np.ndarray:
    """sum_k coefs[k, :] e^{i (first + k) theta} at every theta.

    Baby-step giant-step: with k = B h + l each theta needs about 2 sqrt(K)
    exponentials, e^{i (first + B h) theta} and e^{i l theta}, instead of K;
    theta is taken in blocks.  kept, a list owned by one scan whose calls all
    share first, the shape of coefs and theta, keeps each block's tables for
    the next call while they hold at most _KEPT_TABLE_ELEMENTS.
    """
    count, cols = coefs.shape
    baby = math.isqrt(count - 1) + 1
    giant = -(-count // baby)
    table = np.zeros((giant * baby, cols), dtype=complex)
    table[:count] = coefs
    table = table.reshape(giant, baby, cols).transpose(1, 0, 2).reshape(baby, giant * cols)
    keep = kept is not None and len(theta) * (baby + giant) <= _KEPT_TABLE_ELEMENTS
    out = np.empty((len(theta), cols), dtype=complex)
    step = max(1, _BLOCK_ELEMENTS // (giant * cols))
    for block, i in enumerate(range(0, len(theta), step)):
        t = theta[i : i + step]
        if keep and block < len(kept):
            baby_exp, giant_exp = kept[block]
        else:
            baby_exp, giant_exp = _exp_tables(first, baby, giant, t)
            if keep:
                kept.append((baby_exp, giant_exp))
        inner = (baby_exp @ table).reshape(len(t), giant, cols)
        out[i : i + step] = np.einsum("th,thc->tc", giant_exp, inner)
    return out


def _fft_length(n: int, primes=(2, 3, 5)) -> int:
    """Smallest integer >= n whose prime factors all lie in primes: a fast
    FFT length (odd where primes are)."""
    while True:
        rest = n
        for p in primes:
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
    """sum M and the variance of slab partials (W, M, V) merged in order by the pairwise update
    of Chan, Golub & LeVeque (1983), all terms >= 0: V += V_s + (M_s W - M W_s)^2 / (W W_s (W + W_s)),
    in place."""
    weight = first = var = None
    for w_s, m_s, v_s in partials:
        if weight is None:
            weight, first, var = np.zeros_like(w_s), np.zeros_like(m_s), np.zeros_like(v_s)
        gap, spread = m_s * weight, weight * w_s
        gap -= first * w_s
        weight += w_s
        spread *= weight
        var += v_s
        gap *= gap
        gap /= np.where(spread > 0, spread, 1.0)
        var += gap
        first += m_s
        del w_s, m_s, v_s, gap, spread  # none held while the next partial is awaited
    return first, var


def _in_order(pool, depth: int, fn, items):
    """fn(item) for each item, in order, run on the pool with at most
    `depth` results submitted and not yet read."""
    pending = deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) == depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


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
    rotation, direct evaluation at every phi (_direct).  With one dark zone
    it reads tail middle D(rate phi) pre v_lead, pre acting first on v_lead.
    tail is the longest trailing run that J_z can be pushed back through as
    a tridiagonal T: diagonal pulses followed in time by x/y rotations,
    through which T stays a spin component n.J whose off-diagonal the
    diagonals twist.
    """

    def __init__(self, spec: ProtocolSpec, dims: EnsembleDims, ops: OperatorSet,
                 phis, threads: int | None = None):
        self.phis = np.asarray(phis, dtype=float)
        check_phase(dims, self.phis)
        self.spec, self.dims, self.ops = spec, dims, ops
        self.kernel = compile_protocol(spec, dims, ops)
        self._tables = []  # _fourier_sum's kept tables over self.phis
        self.health = {"rounding_band_points": 0, "csd_sum_points": 0}  # _blockwise points
        csd = spec.detection.kind == "csd"
        self.index = _resolve_csd_index(spec.detection, dims) if csd else None
        # the path of every scan (unbound: no reference cycle) and its slabs,
        # one off the CD rows path; more than one run on the pool with BLAS on
        # one thread (None: the process's own).  pool_size checks any threads
        self._path, slabs = self._route(dims, ops, csd)
        self.workers, self.blas = pool_size(threads, slabs), 1 if slabs > 1 else None

    def _route(self, dims: EnsembleDims, ops: OperatorSet, csd: bool):
        """(path, slabs) of every scan, setting the CD rows path's slab plan."""
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
        if len(middle) > 1:
            return _Scanner._evaluated, 1
        self.middle_pulses = middle
        # The tail rule.  theta + pi multiplies the state after the tail by
        # U R_z(pi) U^dagger, U = tail middle, up to a phase.  Squeezes commute
        # with 1, R_x(pi), R_y(pi) and R_z(pi), and rotations by multiples of
        # pi/2 permute them up to phases, so where U holds nothing else the
        # state moves by one of them, which maps J_z to +-J_z: the variance
        # has even frequencies only.
        self.pi_periodic = all(p.kind == "squeeze" or p.angle % (math.pi / 2) == 0
                               for p in (*middle, *self.tail))
        self.samples, rows = _slabs(dims, self.pi_periodic)
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

    def _blockwise(self, out, where, values_at, count: str):
        """out[where] = values_at(phis[where]) for the rounding band or the CSD
        sum path, in blocks of points whose (dim, block) state stays in
        _BLOCK_ELEMENTS; health[count] adds the points.  A point's value may
        differ in its last bits with the points that share its block, as
        those of CompiledProtocol.evaluate and apply_pulses do."""
        self.health[count] += where.size
        step = max(1, _BLOCK_ELEMENTS // self.dims.dim)
        for i in range(0, len(where), step):
            part = where[i : i + step]
            out[part] = values_at(self.phis[part])

    # --- evaluation -------------------------------------------------------

    def scan(self, mus, report: dict | None = None):
        """signal, SDS and exact dS/dphi at every phi, for each mu of mus in
        turn (None: the spec's own), CD's in one pass over the slabs.  The
        BLAS limit holds until the last, so callers exhaust the scan; report,
        if given, is filled as fringe_scan describes before it closes."""
        for mu in mus:
            if mu is not None and not np.isfinite(mu):
                raise ValueError(f"squeezing strength must be finite, got {mu}")
        detection = self.spec.detection
        with _blas_limit(self.blas):
            columns = self._path(self, mus) if self.phis.size else ((np.empty(0),) * 3 for _ in mus)
            for signal, sds, pgs in columns:
                if detection.kind == "cd" and detection.add_j:
                    signal = signal + self.dims.j
                yield signal, sds, pgs
            if report is not None:
                report.update(pool_workers=self.workers, blas_threads=blas_threads(),
                              health=self.health)

    def _csd(self, mus):
        m = self.ops.m
        for mu in mus:
            v0 = self.kernel.v0(mu)
            c = apply_pulses(self.ops, self.row_pulses, self.row_lead, mu=mu) * v0
            # a(theta) = sum_k c_k e^{-i m_k theta}; reversed, the frequencies
            # -m_k run upward from m_0
            amp = _fourier_sum(m[0], np.stack([c, -1j * m * c], axis=1)[::-1],
                               self.rate * self.phis, self._tables)
            p = np.abs(amp[:, 0]) ** 2
            pgs = 2.0 * self.rate * np.real(amp[:, 0].conj() * amp[:, 1])
            # projector: Q^2 = Q, so the variance is p (1 - p); where 1 - p has
            # cancelled, _direct sums it from the other Dicke states
            var = p * (1.0 - p)
            self._blockwise(var, np.flatnonzero(1.0 - p < _CSD_SUM_BAND),
                            lambda points: self._direct(points, mu)[1], "csd_sum_points")
            yield p, np.sqrt(np.maximum(var, 0.0)), pgs

    def _cd(self, mus):
        """The CD arrays of each mu, in batches whose slab moments, 3 x batch x samples,
        stay within half of _BLOCK_ELEMENTS at any N: a smaller batch rebuilds the group
        rows more often.  tracemalloc peaks on the odd grid, SCAIN over the default window:
        200 mu at N = 1000 (batches of 86) 46.8 MiB, a quarter batch 27.4 MiB but 4 % slower
        on 2 vCPUs; 600 mu at N = 300 (288) 17.8 MiB, a quarter batch 8.1 MiB and 3 % slower."""
        batch = max(1, _BLOCK_ELEMENTS // (6 * self.samples))
        for i in range(0, len(mus), batch):
            yield from self._cd_batch(mus[i : i + batch])

    def _cd_batch(self, mus):
        dim, n, samples = self.dims.dim, self.dims.n_atoms, self.samples
        top = (dim + 1) // 2
        kernel = self.kernel
        states = [(apply_pulses(self.ops, (*kernel.pre, *self.moved), kernel.v_lead, mu=mu),
                   *self._observable(mu)) for mu in mus]

        def slabs():  # a group's rows are built while the last slabs of the one before run
            for first, last, group in self.plan:
                block = (rotation_rows(self.ops, self.middle_pulses[0].angle, first, last)
                         if self.middle_pulses else None)
                for lo, hi in group:
                    yield lo, hi, first, block

        def slab(item):
            """(W, M, V) per mu of the rows lo .. hi - 1 with a halo row on
            both sides, zero past the edges; sample j at theta = 2 pi j / samples."""
            lo, hi, start, block = item
            first, last = max(lo - 1, 0), min(hi + 1, dim)
            cut = min(max(first, top), last)
            pieces = () if block is None else (
                block[first - start : cut - start],
                block[n + 1 - last - start : n + 1 - cut - start][::-1, ::-1])
            partials = np.empty((3, len(states), samples))
            w = np.empty((hi - lo + 2, samples), dtype=complex)
            for i, (v0, diag, below, above) in enumerate(states):
                w.fill(0.0)
                at = first - lo + 1
                for piece in pieces:
                    np.multiply(piece, v0, out=w[at : at + len(piece), :dim])
                    at += len(piece)
                if block is None:  # no middle: row r of diag(v0) is v0_r e_r
                    w[np.arange(at, at + last - first), np.arange(first, last)] = v0[first:last]
                np.fft.fft(w, axis=-1, out=w)
                partials[:, i] = _moments(w, diag[lo:hi], below[lo:hi], above[lo:hi])
            return partials

        with ThreadPoolExecutor(self.workers) as pool:  # each worker has a slab queued
            mean, var = _merge(_in_order(pool, 2 * self.workers, slab, slabs())
                               if self.workers > 1 else map(slab, slabs()))

        for mu, (v0, diag, below, above), mean_mu, var_mu in zip(mus, states, mean, var):
            def direct(points):  # v0 after the dark zone and the middle, one column per point
                w = np.zeros((dim + 2, len(points)), dtype=complex)
                np.multiply(v0[:, None], np.exp(-1j * self.rate * np.outer(self.ops.m, points)),
                            out=w[1:-1])
                w[1:-1] = apply_pulses(self.ops, self.middle_pulses, w[1:-1], mu=mu)
                return _moments(w, diag, below, above)[2]

            yield self._interpolate(mean_mu, var_mu, direct)

    def _evaluated(self, mus):
        """The path of specs with several dark zones after folding, and of CD
        ones whose middle is more than one x rotation: every phi directly."""
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

    def _interpolate(self, mean, var, direct):
        """Evaluate the CD polynomials of degree N and 2N at the phis; SDS
        values in the rounding band are replaced by direct(phis) variances."""
        degree = self.dims.n_atoms
        freqs = np.arange(2 * degree + 1)
        coefs = np.zeros((2 * degree + 1, 3), dtype=complex)
        coefs[: degree + 1, 0] = _trig_coefficients(mean, degree)
        coefs[:, 1] = 1j * freqs * coefs[:, 0]
        coefs[:, 2] = _trig_coefficients(var, 2 * degree)
        if self.pi_periodic:  # on the odd grid, odd bins hold only aliased negative frequencies
            coefs[1::2, 2] = 0.0
        values = _fourier_sum(0.0, coefs, self.rate * self.phis, self._tables).real
        sds = np.sqrt(np.maximum(values[:, 2], 0.0))
        self._blockwise(sds, np.flatnonzero(sds < _ROUNDING_BAND * degree),
                        lambda points: np.sqrt(np.maximum(direct(points), 0.0)),
                        "rounding_band_points")
        return values[:, 0], sds, self.rate * values[:, 1]


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
    N = 40, 41 and 600.  threads caps the pool of the CD slabs; a scan of
    more than one slab (N >= 359 for every built-in) runs BLAS on one
    thread.  report, if given, receives pool_workers, the threads the scan
    ran on, blas_threads, the BLAS threads it ran on (None where numpy's
    OpenBLAS is not found), and a health block counting the points
    recomputed in the rounding band (rounding_band_points) and those whose
    1 - p was summed (csd_sum_points).
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
