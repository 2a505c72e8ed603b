"""Pulse-sequence protocols: built-ins, execution, and a tiny-N product-space oracle.

The built-in sequences (CRAIN, SCAIN, CAC, COSAC, SCAC) are stored
right-to-left in temporal order, i.e. pulses[0] acts first on the initial
state |E_0> = |-z>.  Dark-zone pulses bind the scan phase phi, squeeze
pulses bind mu; everything else is fixed at construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from catspin.dicke import (
    DimensionError,
    EnsembleDims,
    OperatorSet,
    Pulse,
    SpinState,
    apply_pulses,
    basis_state,
    check_phase,
    dark_pulse,
    rotate_pulse,
    squeeze_pulse,
)

ORACLE_MAX_ATOMS = 4


@dataclass(frozen=True)
class Detection:
    """What is measured on the final state.

    kind 'cd' measures J_z (conventional detection; with add_j the signal is
    the spin-up population count j + J_z, the usual clock convention).
    kind 'csd' measures the population of the single Dicke state |E_index>;
    its index may be negative (python-style, -1 is the topmost state) or
    None, in which case builtin() fills the protocol's default.
    """

    kind: str
    index: int | None = None
    add_j: bool = False

    def __post_init__(self):
        if self.kind not in ("cd", "csd"):
            raise ValueError(f"detection kind must be 'cd' or 'csd', got {self.kind!r}")

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "csd":
            out["index"] = self.index
        if self.add_j:
            out["add_j"] = True
        return out

    @staticmethod
    def from_dict(data: dict) -> "Detection":
        return Detection(
            kind=data["kind"],
            index=data.get("index"),
            add_j=bool(data.get("add_j", False)),
        )


@dataclass(frozen=True)
class ProtocolParams:
    """Knobs of the cat-state protocols: squeezing mu, auxiliary rotation
    axis, corrective rotation sign, and the detection used on the output."""

    mu: float = np.pi / 2
    ara: str = "x"
    xi: int = -1
    detection: Detection | None = None

    def __post_init__(self):
        if self.ara not in ("x", "y"):
            raise ValueError(f"auxiliary rotation axis must be 'x' or 'y', got {self.ara!r}")
        if self.xi not in (1, -1):
            raise ValueError(f"xi must be +1 or -1, got {self.xi}")
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")


# a pulse's JSON: kind: (constructor, {key, in argument order: Pulse attribute})
_PULSE_FIELDS = {
    "rotate": (rotate_pulse, {"axis": "axis", "angle": "angle"}),
    "squeeze": (squeeze_pulse, {"mu": "mu", "mu_sign": "sign"}),
    "dark_phase": (dark_pulse, {"fraction": "fraction", "sign": "sign"}),
}


@dataclass(frozen=True)
class ProtocolSpec:
    """Named, ordered pulse sequence plus the detection convention."""

    name: str
    pulses: tuple[Pulse, ...]
    detection: Detection

    def to_json(self) -> str:
        pulses = [{"kind": p.kind, **{key: getattr(p, attr)
                                      for key, attr in _PULSE_FIELDS[p.kind][1].items()}}
                  for p in self.pulses]
        doc = {"name": self.name, "pulses": pulses, "detection": self.detection.to_dict()}
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "ProtocolSpec":
        doc = json.loads(text)
        try:
            pulses = []
            for p in doc["pulses"]:
                if p["kind"] not in _PULSE_FIELDS:
                    raise ValueError(f"unknown pulse kind {p['kind']!r}")
                make, fields = _PULSE_FIELDS[p["kind"]]
                pulses.append(make(*(p[key] for key in fields)))
            return ProtocolSpec(doc["name"], tuple(pulses), Detection.from_dict(doc["detection"]))
        except KeyError as exc:  # a pulse, the detection or the protocol lacks a key
            raise ValueError(f"protocol JSON lacks the key {exc}") from None


# id: (dark-zone core, cat wrapper or not, default detection, CSD index of a
# detection left unset: interferometers read the bottom state, clocks the top)
_ECHO = (dark_pulse(0.5, +1), rotate_pulse("x", np.pi), dark_pulse(0.5, -1))
_CLOCK = (dark_pulse(1.0, +1),)
_BUILTINS = {
    "crain": (_ECHO, False, Detection("cd"), 0),
    "scain": (_ECHO, True, Detection("cd"), 0),
    "cac": (_CLOCK, False, Detection("cd", add_j=True), -1),
    "cosac": (_CLOCK, False, Detection("csd", index=-1), -1),
    "scac": (_CLOCK, True, Detection("cd"), -1),
}
PROTOCOL_IDS = tuple(_BUILTINS)


def builtin(protocol_id: str, params: ProtocolParams | None = None) -> ProtocolSpec:
    """Build one of the five built-in protocols: x pi/2, core, x pi/2.

    The core of the interferometer CRAIN is the spin echo dark(phi/2), x pi,
    dark(phi/2); that of the clock CAC (signal j + <J_z>) is one dark(phi),
    and COSAC is CAC detecting |E_N>.  SCAIN and SCAC are CRAIN and CAC plus
    the cat wrapper: squeeze(mu, -1) and a pi/2 rotation about ara before the
    core, the correction (angle xi pi/2) and unsqueeze(mu, +1) after it.
    """
    params = ProtocolParams() if params is None else params
    pid = protocol_id.lower()
    if pid not in _BUILTINS:
        raise ValueError(f"unknown protocol {protocol_id!r}; choose from {PROTOCOL_IDS}")
    core, cat, detection, csd_index = _BUILTINS[pid]
    if cat:
        half = np.pi / 2
        core = (squeeze_pulse(params.mu, -1), rotate_pulse(params.ara, half), *core,
                rotate_pulse(params.ara, params.xi * half), squeeze_pulse(params.mu, +1))
    detection = params.detection or detection
    if detection.kind == "csd" and detection.index is None:
        detection = replace(detection, index=csd_index)
    outer = rotate_pulse("x", np.pi / 2)
    return ProtocolSpec(name=pid.upper(), pulses=(outer, *core, outer), detection=detection)


def run(
    spec: ProtocolSpec,
    dims: EnsembleDims,
    ops: OperatorSet,
    phi: float,
    mu_override: float | None = None,
    n_pulses: int | None = None,
) -> SpinState:
    """Run the pulse sequence on |E_0> = basis_state(dims, 0) and return the final state.

    n_pulses truncates the sequence (used for stage-resolved snapshots);
    mu_override rebinds the squeeze strength of every squeeze pulse while
    keeping each pulse's sign.
    """
    if dims != ops.dims:
        raise DimensionError("dims and operator set disagree")
    check_phase(dims, phi)
    pulses = spec.pulses if n_pulses is None else spec.pulses[:n_pulses]
    return SpinState(dims, apply_pulses(ops, pulses, basis_state(dims, 0).amps, phi, mu_override))


# --- batched scan kernel ----------------------------------------------------


def flips_jz(pulse: Pulse) -> bool:
    """A pi rotation about x or y maps J_z to -J_z."""
    return pulse.kind == "rotate" and pulse.axis in ("x", "y") and abs(pulse.angle) == np.pi


def pi_axis(axis: str | None, pulses) -> str | None:
    """The axis b with U P_axis U^dagger = P_b up to a phase, for the pi
    rotations P_a = e^{-i pi J_a} and U the pulses in temporal order; None
    where the rule below does not tell.  A squeeze, even in J_z, commutes with
    P_x, P_y and P_z, as each maps J_z to +-J_z.  A rotation by a multiple of
    pi/2 permutes them, an odd multiple swapping the two axes other than its
    own, and a rotation about the axis itself keeps it at any angle.  Any
    other pulse ends the rule."""
    for pulse in pulses:
        if axis is None or pulse.kind == "squeeze":
            continue
        if pulse.kind != "rotate":
            axis = None
        elif pulse.angle % (np.pi / 2) == 0:
            if pulse.axis != axis and round(pulse.angle / (np.pi / 2)) % 2:
                axis = "xyz".replace(axis, "").replace(pulse.axis, "")
        elif pulse.axis != axis:
            axis = None
    return axis


def fold_echoes(pulses: tuple[Pulse, ...]) -> tuple[Pulse, ...]:
    """Rewrite every spin echo as a single dark zone.

    For a pi rotation R about x or y, R^dagger J_z R = -J_z, so the echo
    D(f1, s1), R, D(f2, s2) (temporal order) equals D with phase coefficient
    s1 f1 - s2 f2 followed by R.  CRAIN and SCAIN fold to one dark zone of
    coefficient 1; a zero coefficient drops the dark zone altogether.
    """
    out = list(pulses)
    i = 0
    while i + 2 < len(out):
        first, mirror, second = out[i : i + 3]
        if first.kind == second.kind == "dark_phase" and flips_jz(mirror):
            rate = first.sign * first.fraction - second.sign * second.fraction
            folded = [mirror]
            if rate != 0.0:
                folded.insert(
                    0, Pulse(kind="dark_phase", fraction=abs(rate), sign=1 if rate > 0 else -1)
                )
            out[i : i + 3] = folded
        else:
            i += 1
    return tuple(out)


def split_at_squeeze(pulses):
    """(the pulses before the first squeeze, the rest): the first part holds
    no mu, so a scan applies it once."""
    lead = next((i for i, p in enumerate(pulses) if p.kind == "squeeze"), len(pulses))
    return pulses[:lead], pulses[lead:]


@dataclass(frozen=True)
class CompiledProtocol:
    """A protocol folded and cut at its dark zones into mu-free pulse runs.

    The final state is  S_k D_k(phi) ... S_1 D_1(phi) pre v_lead, where
    v_lead is |E_0> after the pulses before the first squeeze, pre the rest
    before the first dark zone, D_i the dark-zone diagonals (spin echoes
    already folded by fold_echoes) and S_i the pulse run after D_i, kept in
    segments as ((fraction, sign), S_i).  mu binds at evaluation; no dense
    matrix is held.
    """

    ops: OperatorSet
    v_lead: np.ndarray
    pre: tuple[Pulse, ...]
    segments: tuple[tuple[tuple[float, int], tuple[Pulse, ...]], ...]

    @property
    def dims(self) -> EnsembleDims:
        return self.ops.dims

    def v0(self, mu: float | None = None) -> np.ndarray:
        """The state entering the first dark zone."""
        return apply_pulses(self.ops, self.pre, self.v_lead, mu=mu)

    def evaluate(self, phis: np.ndarray, mu: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(psi, dpsi): the final amplitudes and their exact derivative in phi,
        each (dim, n_phi).  dpsi goes by the product rule: a dark zone
        D = e^{-i s f phi J_z} maps (psi, dpsi) to (D psi, D dpsi - i s f J_z D psi),
        and every other pulse acts on both halves of one (dim, 2 n_phi) block.
        A phi's column may differ in its last bits with the phis evaluated
        beside it, as apply_pulses rounds a block's columns together (up to
        2.5e-16 at N <= 64)."""
        phis = np.atleast_1d(np.asarray(phis, dtype=float))
        k, m = len(phis), self.ops.m
        block = np.zeros((self.dims.dim, 2 * k), dtype=complex)
        block[:, :k] = self.v0(mu)[:, None]
        for (fraction, sign), pulses in self.segments:
            block *= np.tile(np.exp((-1j * sign * fraction) * np.outer(m, phis)), 2)
            block[:, k:] += (-1j * sign * fraction) * m[:, None] * block[:, :k]
            block = apply_pulses(self.ops, pulses, block, mu=mu)
        return block[:, :k], block[:, k:]


def compile_protocol(spec: ProtocolSpec, dims: EnsembleDims, ops: OperatorSet) -> CompiledProtocol:
    """Fold the spin echoes of spec and cut it at its dark zones."""
    if dims != ops.dims:
        raise DimensionError("dims and operator set disagree")
    pulses = fold_echoes(spec.pulses)
    bounds = [i for i, p in enumerate(pulses) if p.kind == "dark_phase"] + [len(pulses)]
    lead, pre = split_at_squeeze(pulses[: bounds[0]])
    segments = tuple(
        ((pulses[a].fraction, pulses[a].sign), pulses[a + 1 : b])
        for a, b in zip(bounds[:-1], bounds[1:])
    )
    v_lead = apply_pulses(ops, lead, basis_state(dims, 0).amps)
    return CompiledProtocol(ops=ops, v_lead=v_lead, pre=pre, segments=segments)


# --- product-space oracle ---------------------------------------------------


def oracle_run(
    spec: ProtocolSpec,
    n_atoms: int,
    phi: float,
    mu_override: float | None = None,
) -> SpinState:
    """Brute-force check: evolve the full 2^N product space, then project
    onto the symmetric subspace.

    A rotation is the Kronecker product of N single-spin rotations
    cos(angle/2) I - 2i sin(angle/2) s_axis, and J_z is diagonal in the
    product basis (spins up - N/2), so squeeze and dark-zone pulses are
    elementwise phases.  This shares nothing with the Dicke-basis path.
    Limited to N <= 4.
    """
    if n_atoms > ORACLE_MAX_ATOMS:
        raise DimensionError(f"oracle supports N <= {ORACLE_MAX_ATOMS}, got {n_atoms}")
    dims = EnsembleDims(n_atoms)
    size = 2**n_atoms

    # index 0 = spin down, so sigma_y is the transpose of the textbook
    # (up, down) matrix; this keeps [s_x, s_y] = i s_z
    singles = {
        "x": 0.5 * np.array([[0, 1], [1, 0]], dtype=complex),
        "y": 0.5 * np.array([[0, 1j], [-1j, 0]], dtype=complex),
        "z": 0.5 * np.array([[-1, 0], [0, 1]], dtype=complex),
    }
    ups = np.array([bin(b).count("1") for b in range(size)])
    jz = ups - n_atoms / 2

    psi = np.zeros(size, dtype=complex)
    psi[0] = 1.0  # all spins down
    for pulse in spec.pulses:
        if pulse.kind == "rotate":
            half = pulse.angle / 2
            single = np.cos(half) * np.eye(2) - 2j * np.sin(half) * singles[pulse.axis]
            psi = reduce(np.kron, [single] * n_atoms) @ psi
        elif pulse.kind == "squeeze":
            mu = pulse.mu if mu_override is None else float(mu_override)
            psi = np.exp(1j * pulse.sign * mu * jz**2) * psi
        elif pulse.kind == "dark_phase":
            psi = np.exp(-1j * pulse.sign * pulse.fraction * phi * jz) * psi

    # Isometry onto the Dicke basis: |E_n> is the normalized sum of the
    # C(N,n) product states with n spins up.
    proj = np.zeros((dims.dim, size))
    for n in range(dims.dim):
        members = ups == n
        proj[n, members] = 1.0 / np.sqrt(members.sum())
    amps = proj @ psi

    leak = abs(np.vdot(psi, psi).real - np.vdot(amps, amps).real)
    if leak > 1e-10:
        raise RuntimeError(f"oracle state leaked out of the symmetric subspace: {leak}")
    return SpinState(dims, amps)
