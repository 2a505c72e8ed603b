import dataclasses
import itertools
import json

import numpy as np
import pytest
from scipy.linalg import expm

from catspin.dicke import DimensionError, css_state, dark_pulse, rotate_pulse
from catspin.observables import expect_jz
from catspin.protocols import (
    PROTOCOL_IDS,
    Detection,
    ProtocolParams,
    ProtocolSpec,
    builtin,
    compile_protocol,
    fold_echoes,
    oracle_run,
    run,
)

from conftest import cached_ops, unfolded

HALF = np.pi / 2


def pulse_signature(pulse):
    if pulse.kind == "rotate":
        return ("rotate", pulse.axis, pulse.angle)
    if pulse.kind == "squeeze":
        return ("squeeze", pulse.mu, pulse.sign)
    return ("dark", pulse.fraction, pulse.sign)


class TestBuiltins:
    def test_scain_operator_factor_order(self):
        # right-to-left factors: pi/2 x, squeeze(-), ARA pi/2, dark(phi/2),
        # pi x, dark(-phi/2 sign), corrective xi*pi/2, unsqueeze(+), pi/2 x
        spec = builtin("scain", ProtocolParams(mu=HALF, ara="x", xi=-1))
        assert [pulse_signature(p) for p in spec.pulses] == [
            ("rotate", "x", HALF),
            ("squeeze", HALF, -1),
            ("rotate", "x", HALF),
            ("dark", 0.5, 1),
            ("rotate", "x", np.pi),
            ("dark", 0.5, -1),
            ("rotate", "x", -HALF),
            ("squeeze", HALF, 1),
            ("rotate", "x", HALF),
        ]
        assert len(spec.pulses) == 9

    def test_crain_five_pulses(self):
        spec = builtin("crain")
        assert [pulse_signature(p) for p in spec.pulses] == [
            ("rotate", "x", HALF),
            ("dark", 0.5, 1),
            ("rotate", "x", np.pi),
            ("dark", 0.5, -1),
            ("rotate", "x", HALF),
        ]

    def test_crain_is_scain_without_squeeze_and_aux(self, dims40, ops40):
        scain = builtin("scain", ProtocolParams(mu=0.3, ara="x", xi=-1))
        stripped = ProtocolSpec(
            name="CRAIN",
            pulses=tuple(
                p
                for i, p in enumerate(scain.pulses)
                if p.kind != "squeeze" and i not in (2, 6)
            ),
            detection=Detection("cd"),
        )
        crain = builtin("crain")
        for phi in (0.0, 0.4, -1.3):
            a = run(stripped, dims40, ops40, phi).amps
            b = run(crain, dims40, ops40, phi).amps
            assert np.max(np.abs(a - b)) < 1e-12

    def test_scac_seven_pulses(self):
        spec = builtin("scac", ProtocolParams(mu=HALF, ara="x", xi=-1))
        assert [pulse_signature(p) for p in spec.pulses] == [
            ("rotate", "x", HALF),
            ("squeeze", HALF, -1),
            ("rotate", "x", HALF),
            ("dark", 1.0, 1),
            ("rotate", "x", -HALF),
            ("squeeze", HALF, 1),
            ("rotate", "x", HALF),
        ]

    @pytest.mark.parametrize("xi", [1, -1])
    @pytest.mark.parametrize("ara", ["x", "y"])
    def test_exact_pulse_sequences(self, ara, xi):
        mu = 0.3
        x90, x180 = ("rotate", "x", HALF), ("rotate", "x", np.pi)
        cat_in, cat_out = [("squeeze", mu, -1), ("rotate", ara, HALF)], [
            ("rotate", ara, xi * HALF), ("squeeze", mu, 1)]
        echo, clock = [("dark", 0.5, 1), x180, ("dark", 0.5, -1)], [("dark", 1.0, 1)]
        expected = {
            "crain": [x90, *echo, x90],
            "scain": [x90, *cat_in, *echo, *cat_out, x90],
            "cac": [x90, *clock, x90],
            "cosac": [x90, *clock, x90],
            "scac": [x90, *cat_in, *clock, *cat_out, x90],
        }
        for pid, pulses in expected.items():
            spec = builtin(pid, ProtocolParams(mu=mu, ara=ara, xi=xi))
            assert spec.name == pid.upper()
            assert [pulse_signature(p) for p in spec.pulses] == pulses, pid

    def test_ara_y_moves_auxiliary_rotations_only(self):
        spec = builtin("scain", ProtocolParams(mu=HALF, ara="y", xi=1))
        axes = [p.axis for p in spec.pulses if p.kind == "rotate"]
        assert axes == ["x", "y", "x", "y", "x"]

    def test_dark_zone_structure_validated(self):
        # the interferometers' spin echo: two half-phase dark zones of
        # opposite sign; the clocks: one full-phase dark zone
        for pid in PROTOCOL_IDS:
            darks = [(p.fraction, p.sign) for p in builtin(pid).pulses if p.kind == "dark_phase"]
            echo = pid in ("crain", "scain")
            assert darks == ([(0.5, 1), (0.5, -1)] if echo else [(1.0, 1)]), pid

    def test_csd_default_indices(self):
        scain = builtin("scain", ProtocolParams(detection=Detection("csd")))
        assert scain.detection.index == 0
        cosac = builtin("cosac")
        assert cosac.detection.kind == "csd" and cosac.detection.index == -1
        scac = builtin("scac", ProtocolParams(detection=Detection("csd")))
        assert scac.detection.index == -1

    def test_cac_detection_counts_up_population(self):
        assert builtin("cac").detection.add_j is True

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            builtin("esp")


class TestInputChecks:
    @pytest.mark.parametrize("make, match", [
        (lambda: Detection("x"), "detection kind"),
        (lambda: ProtocolParams(xi=0), "xi must be"),
        (lambda: ProtocolParams(mu=np.nan), "mu must be finite"),
    ], ids=["detection-kind", "xi", "mu"])
    def test_rejects_bad_params(self, make, match):
        with pytest.raises(ValueError, match=match) as raised:
            make()
        assert raised.type is ValueError

    def test_compile_rejects_other_operators(self, dims40, ops41):
        with pytest.raises(DimensionError, match="disagree"):
            compile_protocol(builtin("scain"), dims40, ops41)


class TestRun:
    def test_scain_even_final_state_on_extremal_pair(self, dims40, ops40):
        spec = builtin("scain", ProtocolParams(mu=HALF, ara="x", xi=-1))
        for phi in (0.003, 0.011, 0.02):
            state = run(spec, dims40, ops40, phi)
            pops = state.populations()
            assert pops[0] == pytest.approx(np.cos(40 * phi / 2) ** 2, abs=1e-12)
            assert pops[40] == pytest.approx(np.sin(40 * phi / 2) ** 2, abs=1e-12)
            assert np.sum(pops[1:40]) < 1e-20

    def test_crain_at_zero_phase(self, dims41, ops41):
        state = run(builtin("crain"), dims41, ops41, 0.0)
        assert expect_jz(state) == pytest.approx(-20.5, abs=1e-12)

    def test_scac_equal_split_at_half_fringe(self, dims40, ops40):
        spec = builtin("scac", ProtocolParams(mu=HALF, ara="x", xi=-1))
        state = run(spec, dims40, ops40, np.pi / 80)
        pops = state.populations()
        assert pops[40] == pytest.approx(0.5, abs=1e-12)
        assert pops[0] == pytest.approx(0.5, abs=1e-12)

    def test_mu_override_keeps_signs(self, dims40, ops40):
        spec = builtin("scain", ProtocolParams(mu=HALF, ara="x", xi=-1))
        direct = builtin("scain", ProtocolParams(mu=0.22, ara="x", xi=-1))
        a = run(spec, dims40, ops40, 0.13, mu_override=0.22).amps
        b = run(direct, dims40, ops40, 0.13).amps
        assert np.max(np.abs(a - b)) < 1e-14

    def test_stage_truncation(self, dims40, ops40):
        spec = builtin("scain", ProtocolParams(mu=HALF, ara="x", xi=-1))
        state = run(spec, dims40, ops40, np.pi / 80, n_pulses=4)
        # stage D: the cat on the two extremal states
        pops = state.populations()
        assert pops[0] == pytest.approx(0.5, abs=1e-12)
        assert pops[40] == pytest.approx(0.5, abs=1e-12)

    def test_dims_mismatch(self, dims40, ops41):
        with pytest.raises(DimensionError):
            run(builtin("crain"), dims40, ops41, 0.0)


@pytest.mark.slow
class TestLargeEnsembleRun:
    """The exact SCAIN laws and unitarity of run() at the largest N."""

    def test_scain_final_state_laws_at_n4000(self):
        n = 4000
        ops = cached_ops(n)
        spec = builtin("scain", ProtocolParams(mu=HALF, ara="x", xi=-1))
        for phi in (0.0125 * np.pi, 0.0125 * np.pi + 1.0 / (3 * n)):
            state = run(spec, ops.dims, ops, phi)
            assert expect_jz(state) == pytest.approx(-(n / 2) * np.cos(n * phi), abs=1e-9)
            assert state.populations()[0] == pytest.approx(np.cos(n * phi / 2) ** 2, abs=1e-9)

    @pytest.mark.parametrize("n", [40, 41, 3999, 4000])
    def test_one_axis_twist_makes_a_cat(self, n):
        # Kitagawa & Ueda, PRA 47, 5138 (1993): the twist e^{-i (pi/2) J_z^2}
        # of stage C takes the coherent state along +y to an equal
        # superposition of two opposite equatorial coherent states, along
        # +-y for even N and +-x for odd N
        ops = cached_ops(n)
        spec = builtin("scain", ProtocolParams(mu=HALF, ara="x", xi=-1))
        state = run(spec, ops.dims, ops, 0.0, n_pulses=2)
        pair = (HALF, 3 * HALF) if n % 2 == 0 else (0.0, np.pi)
        pops = [abs(np.vdot(css_state(ops.dims, HALF, phi).amps, state.amps)) ** 2
                for phi in pair]
        assert pops == pytest.approx([0.5, 0.5], abs=1e-12)
        assert sum(pops) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2000, 4000])
    def test_norm_drift_over_the_nine_pulses(self, n):
        ops = cached_ops(n)
        for ara in ("x", "y"):
            spec = builtin("scain", ProtocolParams(mu=HALF, ara=ara, xi=-1))
            drift = [abs(run(spec, ops.dims, ops, 0.0125 * np.pi, n_pulses=k).norm() - 1.0)
                     for k in range(1, len(spec.pulses) + 1)]
            assert max(drift) <= 1e-13


class TestInvariants:
    def test_mu_zero_signal_is_constant(self, dims40, ops40):
        # with the auxiliary rotations still present, mu=0 collapses the
        # interferometer: the output is phi-independent
        for xi in (+1, -1):
            spec = builtin("scain", ProtocolParams(mu=0.0, ara="x", xi=xi))
            signals = [
                expect_jz(run(spec, dims40, ops40, phi))
                for phi in np.linspace(-np.pi, np.pi, 17)
            ]
            assert max(signals) - min(signals) < 1e-10

    def test_xi_flip_inverts_fringe(self, dims40, ops40):
        minus = builtin("scain", ProtocolParams(mu=HALF, ara="x", xi=-1))
        plus = builtin("scain", ProtocolParams(mu=HALF, ara="x", xi=+1))
        for phi in np.linspace(-0.05, 0.05, 11):
            s_m = expect_jz(run(minus, dims40, ops40, phi))
            s_p = expect_jz(run(plus, dims40, ops40, phi))
            assert s_p == pytest.approx(-s_m, abs=1e-9)

    def test_ara_swap_exchanges_parity_roles(self, ops40, ops41):
        # with the auxiliary rotations about y, the N-fold fringe law holds
        # for odd N and disappears for even N
        spec_y = builtin("scain", ProtocolParams(mu=HALF, ara="y", xi=-1))
        n = 41
        for phi in np.linspace(-np.pi / n, np.pi / n, 21):
            s = expect_jz(run(spec_y, ops41.dims, ops41, phi))
            assert s == pytest.approx(-(n / 2) * np.cos(n * phi), abs=1e-9)
        state = run(spec_y, ops40.dims, ops40, 0.1)
        pops = state.populations()
        assert pops[0] + pops[40] < 0.999  # no extremal cat for even N

    def test_scac_ara_y_signal_independent_of_xi(self, dims40, ops40):
        phis = np.linspace(-0.3, 0.3, 31)
        signals = {}
        for xi in (1, -1):
            spec = builtin("scac", ProtocolParams(mu=HALF, ara="y", xi=xi))
            signals[xi] = [expect_jz(run(spec, dims40, ops40, p)) for p in phis]
        assert np.max(np.abs(np.subtract(signals[1], signals[-1]))) < 1e-9

    def test_symmetric_subspace_closure(self):
        spec = builtin("scain", ProtocolParams(mu=HALF, ara="x", xi=-1))
        for n in (2, 4):
            ops = cached_ops(n)
            state = run(spec, ops.dims, ops, 0.37)
            assert abs(state.norm() - 1.0) < 1e-12
            # and the product-space oracle confirms nothing left the basis
            oracle_run(spec, n, 0.37)


class TestOracle:
    def test_crain_matches_dicke_run(self):
        ops = cached_ops(2)
        spec = builtin("crain")
        phi = np.pi / 3
        a = run(spec, ops.dims, ops, phi).amps
        b = oracle_run(spec, 2, phi).amps
        assert np.max(np.abs(a - b)) < 1e-10

    def test_scain_matches_and_fringe_follows_cos(self):
        ops = cached_ops(2)
        spec = builtin("scain", ProtocolParams(mu=HALF, ara="x", xi=-1))
        for phi in (0.2, 0.9, -0.4):
            a = run(spec, ops.dims, ops, phi)
            b = oracle_run(spec, 2, phi)
            assert np.max(np.abs(a.amps - b.amps)) < 1e-10
            assert expect_jz(b) == pytest.approx(-np.cos(2 * phi), abs=1e-10)

    def test_single_atom_bases_coincide(self):
        ops = cached_ops(1)
        for pid in ("crain", "scac"):
            spec = builtin(pid, ProtocolParams(mu=0.3, ara="x", xi=1))
            a = run(spec, ops.dims, ops, 0.8).amps
            b = oracle_run(spec, 1, 0.8).amps
            assert np.max(np.abs(a - b)) < 1e-12

    def test_y_rotations_match_dicke_run(self):
        # the oracle's single-spin operators obey [s_x, s_y] = i s_z like the
        # Dicke-basis J's, so every axis rotates the same way in both
        for n in (1, 3, 4):
            ops = cached_ops(n)
            for pid in ("scain", "scac"):
                spec = builtin(pid, ProtocolParams(mu=0.3, ara="y", xi=1))
                a = run(spec, ops.dims, ops, 0.8).amps
                b = oracle_run(spec, n, 0.8).amps
                assert np.max(np.abs(a - b)) < 1e-10

    def test_rejects_large_n(self):
        with pytest.raises(DimensionError):
            oracle_run(builtin("crain"), 5, 0.1)

    @staticmethod
    def expm_oracle(spec, n, phi, mu_override):
        """The product-space state from dense matrix exponentials of the
        atom-by-atom summed collective generators."""
        singles = {
            "x": 0.5 * np.array([[0, 1], [1, 0]], dtype=complex),
            "y": 0.5 * np.array([[0, 1j], [-1j, 0]], dtype=complex),
            "z": 0.5 * np.array([[-1, 0], [0, 1]], dtype=complex),
        }
        big = {}
        for axis, single in singles.items():
            big[axis] = np.zeros((2**n, 2**n), dtype=complex)
            for atom in range(n):
                op = np.eye(1)
                for a in range(n):
                    op = np.kron(single if a == atom else np.eye(2), op)
                big[axis] += op
        psi = np.zeros(2**n, dtype=complex)
        psi[0] = 1.0
        for pulse in spec.pulses:
            if pulse.kind == "rotate":
                generator = -1j * pulse.angle * big[pulse.axis]
            elif pulse.kind == "squeeze":
                mu = pulse.mu if mu_override is None else mu_override
                generator = 1j * pulse.sign * mu * big["z"] @ big["z"]
            else:
                generator = -1j * pulse.sign * pulse.fraction * phi * big["z"]
            psi = expm(generator) @ psi
        ups = np.array([bin(b).count("1") for b in range(2**n)])
        return np.array([psi[ups == k].sum() / np.sqrt(np.sum(ups == k)) for k in range(n + 1)])

    def test_matches_expm_oracle(self):
        # the Kronecker-product oracle against the dense-exponential one it replaced
        for pid, ara, xi, n in itertools.product(PROTOCOL_IDS, "xy", (1, -1), range(1, 5)):
            spec = builtin(pid, ProtocolParams(mu=0.6, ara=ara, xi=xi))
            for phi, mu in itertools.product((-0.4, 0.37, 1.3), (None, 0.9)):
                a = oracle_run(spec, n, phi, mu).amps
                assert np.max(np.abs(a - self.expm_oracle(spec, n, phi, mu))) <= 1e-14


# SCAIN, mu 0.41, ara y, xi +1, CSD of |E_0>, as to_json writes it: the
# exchange format of a protocol, its key names, key order and indent
_SCAIN_JSON = """{
  "name": "SCAIN",
  "pulses": [
    {
      "kind": "rotate",
      "axis": "x",
      "angle": 1.5707963267948966
    },
    {
      "kind": "squeeze",
      "mu": 0.41,
      "mu_sign": -1
    },
    {
      "kind": "rotate",
      "axis": "y",
      "angle": 1.5707963267948966
    },
    {
      "kind": "dark_phase",
      "fraction": 0.5,
      "sign": 1
    },
    {
      "kind": "rotate",
      "axis": "x",
      "angle": 3.141592653589793
    },
    {
      "kind": "dark_phase",
      "fraction": 0.5,
      "sign": -1
    },
    {
      "kind": "rotate",
      "axis": "y",
      "angle": 1.5707963267948966
    },
    {
      "kind": "squeeze",
      "mu": 0.41,
      "mu_sign": 1
    },
    {
      "kind": "rotate",
      "axis": "x",
      "angle": 1.5707963267948966
    }
  ],
  "detection": {
    "kind": "csd",
    "index": 0
  }
}"""


class TestSerialization:
    def test_json_text_is_pinned(self):
        spec = builtin("scain", ProtocolParams(mu=0.41, ara="y", xi=1,
                                               detection=Detection("csd", index=0)))
        assert spec.to_json() == _SCAIN_JSON
        assert ProtocolSpec.from_json(_SCAIN_JSON) == spec

    def test_unknown_pulse_kind_is_rejected(self):
        doc = json.loads(_SCAIN_JSON)
        doc["pulses"][4]["kind"] = "warp"
        with pytest.raises(ValueError, match="unknown pulse kind 'warp'"):
            ProtocolSpec.from_json(json.dumps(doc))

    @pytest.mark.parametrize("drop, key", [
        (lambda doc: doc["pulses"][0].pop("angle"), "angle"),
        (lambda doc: doc["pulses"][1].pop("kind"), "kind"),
        (lambda doc: doc["detection"].pop("kind"), "kind"),
    ], ids=["rotate-without-angle", "pulse-without-kind", "detection-without-kind"])
    def test_missing_key_is_rejected(self, drop, key):
        doc = json.loads(_SCAIN_JSON)
        drop(doc)
        with pytest.raises(ValueError, match=f"lacks the key '{key}'") as raised:
            ProtocolSpec.from_json(json.dumps(doc))
        assert raised.type is ValueError

    def test_json_round_trip(self):
        spec = builtin("scain", ProtocolParams(mu=0.41, ara="y", xi=1,
                                               detection=Detection("csd", index=0)))
        clone = ProtocolSpec.from_json(spec.to_json())
        assert clone == spec

    def test_deserialized_spec_runs_identically(self, dims40, ops40):
        spec = builtin("scac", ProtocolParams(mu=0.27, ara="y", xi=-1))
        clone = ProtocolSpec.from_json(spec.to_json())
        a = run(spec, dims40, ops40, 0.19).amps
        b = run(clone, dims40, ops40, 0.19).amps
        assert np.array_equal(a, b)

    def test_detection_round_trip(self):
        for det in (Detection("cd"), Detection("cd", add_j=True),
                    Detection("csd", index=-1)):
            assert Detection.from_dict(det.to_dict()) == det


class TestCompiledKernel:
    def test_echo_folds_to_one_dark_zone(self, dims40, ops40):
        for pid in PROTOCOL_IDS:
            spec = builtin(pid)
            darks = [p for p in fold_echoes(spec.pulses) if p.kind == "dark_phase"]
            assert [(d.fraction, d.sign) for d in darks] == [(1.0, 1)]
            assert len(compile_protocol(spec, dims40, ops40).segments) == 1

    def test_echo_of_any_odd_multiple_of_pi_folds(self, dims40, ops40):
        # x(3 pi) = (-1)^N x(pi) maps J_z to -J_z as x(pi) does; a turn by
        # 2 pi or pi/2 keeps both dark zones
        dark, back = dark_pulse(0.5, 1), dark_pulse(0.5, -1)
        for angle, zones in ((np.pi, 1), (-3 * np.pi, 1), (5 * np.pi, 1), (2 * np.pi, 2),
                             (HALF, 2)):
            pulses = (dark, rotate_pulse("y", angle), back)
            assert sum(p.kind == "dark_phase" for p in fold_echoes(pulses)) == zones, angle
        outer = rotate_pulse("x", HALF)
        spec = ProtocolSpec("echo-3pi", (outer, dark, rotate_pulse("x", 3 * np.pi), back, outer),
                            Detection("cd"))
        kernel = compile_protocol(spec, dims40, ops40)
        assert len(kernel.segments) == 1
        phis = np.array([-0.2, 0.017, 1.1])
        folded = kernel.evaluate(phis)[0]
        for i, phi in enumerate(phis):
            assert np.max(np.abs(folded[:, i] - run(spec, dims40, ops40, phi).amps)) < 1e-12

    def test_holds_no_dense_matrix(self, dims40, ops40):
        # every array of a compiled protocol is a vector; the dense J_x
        # eigenvector blocks stay in the operator set it shares
        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, tuple):
                for item in value:
                    yield from arrays(item)
            elif dataclasses.is_dataclass(value):
                for f in dataclasses.fields(value):
                    yield from arrays(getattr(value, f.name))

        for spec in [builtin(pid) for pid in PROTOCOL_IDS] + [unfolded()]:
            kernel = compile_protocol(spec, dims40, ops40)
            assert kernel.ops is ops40
            held = [getattr(kernel, f.name) for f in dataclasses.fields(kernel) if f.name != "ops"]
            found = list(arrays(tuple(held)))
            assert found and all(a.ndim <= 1 for a in found)

    def test_matches_pulsewise_run(self, dims40, ops40):
        for pid, mu in (("scain", HALF), ("crain", None), ("scac", 0.31), ("cac", None)):
            spec = builtin(pid, ProtocolParams(mu=HALF, ara="x", xi=-1))
            kernel = compile_protocol(spec, dims40, ops40)
            phis = np.array([-0.2, 0.0, 0.017, 1.1])
            block = kernel.evaluate(phis, mu)[0]
            for i, phi in enumerate(phis):
                direct = run(spec, dims40, ops40, phi, mu_override=mu).amps
                assert np.max(np.abs(block[:, i] - direct)) < 1e-12
