"""Cavity-feedback squeezing design formulas and the non-ideality budget.

Closed-form model of one-axis-twist squeezing driven by a probe through a
two-mirror cavity: steady-state field, shearing rate, per-atom scattering,
collective-moment decay under the cavity dephasing term, and the resulting
improvement-factor budget with its optimal probe detuning.

Unit policy: rates in 1/s, lengths in meters, powers in watts.  Quantities
normalized to the cavity half-width carry a _tilde suffix or say so.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, fields

# Atom-light coupling area (m^2) for the alkali D2 line driven on both legs,
# so the single-atom cooperativity is this area over (mode area * mirror
# transmittivity).
ATOM_LIGHT_COUPLING_AREA = 3.6e-12

# Probability that a scattered photon flips the pseudo-spin; 1/2 for the
# symmetric level scheme used here.
SPIN_FLIP_PROBABILITY = 0.5

# Reference design point of the squeezing cavity: shearing rate 1e8 1/s at
# normalized detuning 100, 1 mW probe, (20 um)^2 mode and T = 1e-5 mirrors
# (cooperativity 900).
CHI_REFERENCE = 1.0e8
DELTA_TILDE_REFERENCE = 100.0
POWER_REFERENCE = 1.0e-3
MODE_SIDE_REFERENCE = 20.0e-6
MIRROR_T_REFERENCE = 1.0e-5


class BudgetError(RuntimeError):
    """Raised when the dephasing budget consumes the whole ensemble."""


@dataclass(frozen=True)
class CavityParams:
    """Physical cavity/atom parameters feeding the squeezing model.

    kappa          total intensity decay rate (1/s)
    delta_tilde    probe detuning normalized to kappa/2 (dimensionless)
    xi_sq          incident photon flux |xi|^2 (photons/s)
    cooperativity  single-atom cooperativity 4 g^2 / (kappa Gamma)
    gamma_sp       excited-state decay rate (1/s)
    delta_opt      optical detuning of the probe from the excited state (1/s)
    mirror_t       per-mirror transmittivity
    mode_side      cavity mode side D, mode area D^2 (m)
    power          incident probe power (W)
    """

    kappa: float
    delta_tilde: float
    xi_sq: float
    cooperativity: float
    gamma_sp: float
    delta_opt: float
    mirror_t: float = MIRROR_T_REFERENCE
    mode_side: float = MODE_SIDE_REFERENCE
    power: float = POWER_REFERENCE

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
            if value < 0 and field.name not in ("delta_tilde", "delta_opt"):
                raise ValueError(f"{field.name} must be nonnegative")

    def cooperativity_consistency(self) -> float:
        """Relative deviation of the stored cooperativity from the
        area/(mode area * transmittivity) design value."""
        design = ATOM_LIGHT_COUPLING_AREA / (self.mode_side**2 * self.mirror_t)
        return abs(self.cooperativity - design) / design

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @staticmethod
    def from_json(text: str) -> "CavityParams":
        return CavityParams(**json.loads(text))


def steady_state_amplitude(params: CavityParams) -> complex:
    """Steady-state intracavity field sqrt(kappa/2) xi / (kappa/2 - i delta).

    Both mirrors share the same transmittivity, so the input coupling rate
    is kappa/2.
    """
    if params.kappa <= 0:
        raise ValueError("kappa must be positive for a steady state")
    half = params.kappa / 2.0
    delta = params.delta_tilde * half
    xi = math.sqrt(params.xi_sq)
    return math.sqrt(half) * xi / (half - 1j * delta)


def _detuning_response(delta_tilde: float) -> float:
    """The odd lineshape factor delta (1 + delta^2)^-2 of the shearing rate."""
    return delta_tilde * (1.0 + delta_tilde**2) ** -2


def chi_from_light_shift(delta_tilde: float, xi_sq: float, epsilon_tilde: float) -> float:
    """Shearing rate from the normalized per-photon light shift."""
    return _detuning_response(delta_tilde) * xi_sq * epsilon_tilde**2


def squeezing_rate_chi(params: CavityParams) -> float:
    """Shearing rate chi of the cavity-mediated J_z^2 interaction.

    chi = delta_tilde (1+delta_tilde^2)^-2 |xi|^2 C^2 (Gamma/Delta)^2; odd in
    the probe detuning, so flipping its sign turns squeezing into
    unsqueezing.
    """
    if params.delta_tilde == 0:
        raise ValueError("probe detuning must be nonzero")
    if params.delta_opt == 0:
        raise ValueError("optical detuning must be nonzero")
    ratio = params.gamma_sp / params.delta_opt
    return _detuning_response(params.delta_tilde) * params.xi_sq * (
        params.cooperativity**2
    ) * ratio**2


def chi_cavity_design(
    delta_tilde: float = DELTA_TILDE_REFERENCE,
    power: float = POWER_REFERENCE,
    mode_side: float = MODE_SIDE_REFERENCE,
    mirror_t: float = MIRROR_T_REFERENCE,
) -> float:
    """Shearing rate of the reference cavity design at engineering knobs.

    Anchored at CHI_REFERENCE for the reference point and scaled with the
    exact detuning lineshape, quadratically with probe power and linearly
    with the cooperativity implied by the mode area and mirror
    transmittivity.
    """
    if delta_tilde == 0:
        raise ValueError("probe detuning must be nonzero")
    coop = ATOM_LIGHT_COUPLING_AREA / (mode_side**2 * mirror_t)
    coop_ref = ATOM_LIGHT_COUPLING_AREA / (
        MODE_SIDE_REFERENCE**2 * MIRROR_T_REFERENCE
    )
    return (
        CHI_REFERENCE
        * (_detuning_response(delta_tilde) / _detuning_response(DELTA_TILDE_REFERENCE))
        * (power / POWER_REFERENCE) ** 2
        * (coop / coop_ref)
    )


def squeezing_time(chi: float, mu_target: float = math.pi / 2) -> float:
    """Interaction time needed to accumulate mu_target of twisting."""
    if chi <= 0:
        raise ValueError("squeezing requires chi > 0")
    return mu_target / chi


def scattering_rate(params: CavityParams, chi: float) -> float:
    """Photons scattered per atom per second supporting a shearing rate chi:
    (chi / 2C) (1 + delta_tilde^2) / |delta_tilde|."""
    if params.cooperativity <= 0:
        raise ValueError("cooperativity must be positive")
    if params.delta_tilde == 0:
        raise ValueError("probe detuning must be nonzero")
    dt = params.delta_tilde
    return (chi / (2.0 * params.cooperativity)) * (1.0 + dt**2) / abs(dt)


# --- collective-moment decay --------------------------------------------------


@dataclass(frozen=True)
class MomentSet:
    """The collective moments tracked under cavity-induced dephasing."""

    jy_mean: float
    jx_sq: float
    jy_sq: float
    jz_mean: float
    jz_sq: float

    @staticmethod
    def css_along_y(j: float) -> "MomentSet":
        """Moments of a coherent state along +y (the pre-squeezing state)."""
        return MomentSet(jy_mean=j, jx_sq=j / 2.0, jy_sq=j * j, jz_mean=0.0, jz_sq=j / 2.0)


def decay_moments(initial: MomentSet, gamma: float, t: float) -> MomentSet:
    """Exact solution of the moment equations under the J_z dephasing term.

    Transverse means decay as e^{-gamma t/2}; <J_x^2>+<J_y^2> is conserved
    while their difference decays as e^{-2 gamma t}; the J_z moments are
    constants of motion.
    """
    if gamma * t < 0:
        raise ValueError("gamma * t must be nonnegative")
    gt = gamma * t
    total = initial.jx_sq + initial.jy_sq
    diff = (initial.jx_sq - initial.jy_sq) * math.exp(-2.0 * gt)
    return MomentSet(
        jy_mean=initial.jy_mean * math.exp(-gt / 2.0),
        jx_sq=(total + diff) / 2.0,
        jy_sq=(total - diff) / 2.0,
        jz_mean=initial.jz_mean,
        jz_sq=initial.jz_sq,
    )


# --- improvement-factor budget -------------------------------------------------


@dataclass(frozen=True)
class FidelityBudget:
    """Non-ideality budget of one squeeze/unsqueeze cycle.

    theta_frac is the fraction of atoms dephased out of the cat state by
    cavity decay and spontaneous emission; n_eff = N (1 - theta_frac) is
    what remains coherent.  f_linear/f_db hold the improvement factor from
    the magnified-slope budget evaluated at the half-fringe operating point;
    f_approx_* hold the small-theta closed approximation of the same budget.
    """

    n_atoms: float
    theta_frac: float
    n_eff: float
    ds_cav_sq: float
    ds_se_sq: float
    f_linear: float
    f_db: float
    f_approx_linear: float
    f_approx_db: float


def improvement_factor(
    n_atoms: float,
    cooperativity: float,
    delta_tilde: float,
    chi_t: float = math.pi / 2,
) -> FidelityBudget:
    """Improvement factor (Lambda / Lambda_SQL)^2 after cavity decay and
    spontaneous emission during the squeeze and unsqueeze pulses.

    Cavity decay adds signal variance N^2 gamma t / 2 with
    gamma t = 2 chi t / delta_tilde and removes N gamma t / 2 atoms;
    scattering adds variance N chi t |delta_tilde| / (8 C) and removes the
    square root of that.  The budget is evaluated at phi = pi / (2 n_eff),
    where both the slope and the coherent variance peak.
    """
    if n_atoms < 1:
        raise ValueError("need at least one atom")
    if cooperativity <= 0:
        raise ValueError("cooperativity must be positive")
    if delta_tilde <= 0:
        raise ValueError("the budget assumes squeezing-side detuning > 0")

    gamma_t = 2.0 * chi_t / delta_tilde
    ds_cav_sq = n_atoms**2 * gamma_t / 2.0
    dn_cav = n_atoms * gamma_t / 2.0
    # random-walk J_z variance from scattering at rate (chi/2C)|delta_tilde|
    # (the far-detuned limit), half-weighted per event by the flip odds
    ds_se_sq = (
        SPIN_FLIP_PROBABILITY
        * 0.5
        * n_atoms
        * (chi_t / (2.0 * cooperativity))
        * abs(delta_tilde)
    )
    dn_se = math.sqrt(ds_se_sq)

    theta = (dn_cav + dn_se) / n_atoms
    if theta >= 1.0:
        raise BudgetError(
            f"dephasing budget invalid: theta = {theta:.3f} >= 1 "
            f"(N={n_atoms:g}, C={cooperativity:g}, delta_tilde={delta_tilde:g})"
        )
    n_eff = n_atoms * (1.0 - theta)

    # exact budget at the half-fringe point: coherent variance n_eff^2/4,
    # slope^2 n_eff^4/4
    f_exact = 1.0 / (
        (4.0 * n_atoms / n_eff**4) * (n_eff**2 / 4.0 + ds_cav_sq + ds_se_sq)
    )
    # small-theta closed approximation of the same expression
    f_approx = 1.0 / (
        (1.0 / n_atoms) * (1.0 + 2.0 * theta)
        + (2.0 * math.pi / n_atoms**2)
        * (1.0 + 4.0 * theta)
        * (n_atoms / abs(delta_tilde) + abs(delta_tilde) / (8.0 * cooperativity))
        * (chi_t / (math.pi / 2.0))
    )
    return FidelityBudget(
        n_atoms=float(n_atoms),
        theta_frac=theta,
        n_eff=n_eff,
        ds_cav_sq=ds_cav_sq,
        ds_se_sq=ds_se_sq,
        f_linear=f_exact,
        f_db=10.0 * math.log10(f_exact),
        f_approx_linear=f_approx,
        f_approx_db=10.0 * math.log10(f_approx),
    )


def optimal_detuning(n_atoms: float, cooperativity: float) -> float:
    """Probe detuning sqrt(8 N C) balancing cavity decay against scattering."""
    coll = n_atoms * cooperativity
    if coll < 1.0:
        warnings.warn(
            f"collective cooperativity {coll:g} < 1; the optimum assumes it is large",
            stacklevel=2,
        )
    return math.sqrt(8.0 * coll)


def closed_form_theta(n_atoms: float, cooperativity: float) -> float:
    """Dephased fraction at optimal detuning, large-collective-cooperativity
    closed form (pi^2 / (32 N C))^(1/4).

    This is the spontaneous-emission term alone.  At delta_tilde =
    sqrt(8 N C) and chi t = pi/2 the cavity-decay term pi / (2 delta_tilde)
    equals its square, so improvement_factor's theta_frac = theta (1 + theta)
    and the relative gap between the two is theta itself; it reaches 1% at
    N C = (pi^2 / 32) 1e8 ~ 3.08e7.
    """
    return (math.pi**2 / (32.0 * n_atoms * cooperativity)) ** 0.25


def closed_form_improvement(n_atoms: float, cooperativity: float) -> float:
    """Improvement factor at optimal detuning from the closed form
    N / (1 + 2 theta + 8 theta^2 + 32 theta^3)."""
    theta = closed_form_theta(n_atoms, cooperativity)
    return n_atoms / (1.0 + 2.0 * theta + 8.0 * theta**2 + 32.0 * theta**3)


# --- wavepacket separation ------------------------------------------------------


@dataclass(frozen=True)
class WavepacketSeparation:
    distance: float
    distinguishable: bool


def wavepacket_separation(
    recoil_velocity: float, duration: float, photon_wavelength: float
) -> WavepacketSeparation:
    """Spatial separation of the two cat components after `duration`, and
    whether a scattered photon could resolve which component emitted it."""
    if recoil_velocity < 0 or duration < 0 or photon_wavelength < 0:
        raise ValueError("inputs must be nonnegative")
    distance = recoil_velocity * duration
    return WavepacketSeparation(
        distance=distance, distinguishable=distance >= photon_wavelength
    )
